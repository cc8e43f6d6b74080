#include "phy/tb_codec.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "channel/channel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "phy/mcs.h"

namespace slingshot {
namespace {

std::vector<std::uint8_t> random_payload(std::size_t n, RngStream& rng) {
  std::vector<std::uint8_t> payload(n);
  for (auto& b : payload) {
    b = std::uint8_t(rng.next_u64());
  }
  return payload;
}

UeChannel fixed_snr_channel(double snr_db, std::uint64_t idx = 0) {
  FadingConfig cfg;
  cfg.mean_snr_db = snr_db;
  cfg.ar1_sigma_db = 0.0;
  cfg.amp_sigma_db = 0.0;
  return UeChannel{cfg, RngRegistry{11}.stream("tbchan", idx)};
}

TEST(TbCodec, EncodeProducesPilotsPlusData) {
  auto rng = RngRegistry{1}.stream("tb");
  const auto payload = random_payload(500, rng);
  const auto enc = encode_tb(payload, Modulation::kQpsk);
  EXPECT_EQ(enc.codeword_bits, 648U);
  EXPECT_EQ(enc.iq.size(), std::size_t(kNumPilotSymbols) + 648 / 2);
}

TEST(TbCodec, CleanChannelDecodes) {
  auto rng = RngRegistry{2}.stream("tb");
  const auto payload = random_payload(1000, rng);
  const auto enc = encode_tb(payload, Modulation::kQam16);
  const auto dec = decode_tb(enc.iq, Modulation::kQam16, payload, 8);
  EXPECT_TRUE(dec.parity_ok);
  EXPECT_TRUE(dec.crc_ok);
  EXPECT_GT(dec.est_snr_db, 30.0);  // essentially noiseless
}

TEST(TbCodec, WrongShadowPayloadFailsCrc) {
  auto rng = RngRegistry{3}.stream("tb");
  const auto payload = random_payload(100, rng);
  const auto enc = encode_tb(payload, Modulation::kQpsk);
  auto tampered = payload;
  tampered[0] ^= 1U;
  const auto dec = decode_tb(enc.iq, Modulation::kQpsk, tampered, 8);
  EXPECT_TRUE(dec.parity_ok);   // the codeword itself is clean
  EXPECT_FALSE(dec.crc_ok);     // but it does not match the payload
}

// gtest names a parameter that has no PrintTo by dumping its bytes, so the
// bytes after `mod` are a zeroed member rather than padding: padding would
// carry leftover stack bytes and give the test a different name every run.
struct SnrCase {
  SnrCase(Modulation m, double good, double bad)
      : mod(m), good_snr_db(good), bad_snr_db(bad) {}
  Modulation mod;
  std::uint8_t zero_pad[7]{};
  double good_snr_db;
  double bad_snr_db;
};
static_assert(sizeof(SnrCase) == 24);

class TbCodecSnr : public ::testing::TestWithParam<SnrCase> {};

TEST_P(TbCodecSnr, DecodesAboveThresholdFailsFarBelow) {
  const auto param = GetParam();
  auto rng = RngRegistry{4}.stream("tb", std::uint64_t(param.mod));
  int good_ok = 0;
  int bad_ok = 0;
  const int trials = 12;
  auto good_chan = fixed_snr_channel(param.good_snr_db, 1);
  auto bad_chan = fixed_snr_channel(param.bad_snr_db, 2);
  for (int t = 0; t < trials; ++t) {
    const auto payload = random_payload(600, rng);
    const auto enc = encode_tb(payload, param.mod);
    good_chan.step_slot();
    bad_chan.step_slot();
    const auto rx_good = good_chan.apply(enc.iq);
    const auto rx_bad = bad_chan.apply(enc.iq);
    good_ok += decode_tb(rx_good, param.mod, payload, 10).crc_ok ? 1 : 0;
    bad_ok += decode_tb(rx_bad, param.mod, payload, 10).crc_ok ? 1 : 0;
  }
  EXPECT_GE(good_ok, trials - 1) << modulation_name(param.mod);
  EXPECT_LE(bad_ok, 1) << modulation_name(param.mod);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, TbCodecSnr,
    ::testing::Values(SnrCase{Modulation::kQpsk, 6.0, -6.0},
                      SnrCase{Modulation::kQam16, 13.0, 1.0},
                      SnrCase{Modulation::kQam64, 19.0, 7.0},
                      SnrCase{Modulation::kQam256, 26.0, 12.0}),
    [](const auto& info) { return modulation_name(info.param.mod); });

TEST(TbCodec, SnrEstimateTracksTrueSnr) {
  auto rng = RngRegistry{5}.stream("tb");
  for (const double snr : {5.0, 15.0, 25.0}) {
    auto chan = fixed_snr_channel(snr, std::uint64_t(snr));
    RunningStats est;
    for (int t = 0; t < 20; ++t) {
      const auto payload = random_payload(200, rng);
      const auto enc = encode_tb(payload, Modulation::kQpsk);
      chan.step_slot();
      const auto rx = chan.apply(enc.iq);
      est.add(decode_tb(rx, Modulation::kQpsk, payload, 4).est_snr_db);
    }
    EXPECT_NEAR(est.mean(), snr, 2.5) << "true SNR " << snr;
  }
}

TEST(TbCodec, ChannelPhaseRotationIsEqualizedAway) {
  auto rng = RngRegistry{6}.stream("tb");
  const auto payload = random_payload(300, rng);
  const auto enc = encode_tb(payload, Modulation::kQam16);
  // Strong static rotation + mild noise.
  std::vector<Cf> rx;
  const Cf h{0.6F, 0.8F};  // |h| = 1, 53 degrees
  auto noise_rng = RngRegistry{7}.stream("noise");
  for (const auto& s : enc.iq) {
    rx.push_back(h * s + Cf{float(noise_rng.gaussian(0, 0.02)),
                            float(noise_rng.gaussian(0, 0.02))});
  }
  const auto dec = decode_tb(rx, Modulation::kQam16, payload, 8);
  EXPECT_TRUE(dec.crc_ok);
}

TEST(TbCodec, HarqChaseCombiningRescuesFailedDecode) {
  // Two transmissions, each individually at an SNR where decoding
  // fails; combined LLRs succeed. The soft state Slingshot discards.
  auto rng = RngRegistry{8}.stream("tb");
  int solo_ok = 0;
  int combined_ok = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const auto payload = random_payload(400, rng);
    const auto enc = encode_tb(payload, Modulation::kQpsk);
    auto chan = fixed_snr_channel(0.0, 100 + std::uint64_t(t));
    chan.step_slot();
    const auto rx1 = chan.apply(enc.iq);
    chan.step_slot();
    const auto rx2 = chan.apply(enc.iq);
    const auto dec1 = decode_tb(rx1, Modulation::kQpsk, payload, 8);
    solo_ok += dec1.crc_ok ? 1 : 0;
    const auto dec2 = decode_tb(rx2, Modulation::kQpsk, payload, 8,
                                &dec1.combined_llrs);
    combined_ok += dec2.crc_ok ? 1 : 0;
  }
  EXPECT_GT(combined_ok, solo_ok);
}

TEST(TbCodec, GarbageInputFailsGracefully) {
  // Missing fronthaul packets make the PHY process garbage IQ (§4) —
  // indistinguishable from a noisy channel, and caught by CRC.
  const std::vector<Cf> garbage(std::size_t(kNumPilotSymbols) + 324,
                                Cf{0.01F, -0.02F});
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const auto dec = decode_tb(garbage, Modulation::kQpsk, payload, 8);
  EXPECT_FALSE(dec.crc_ok);
}

TEST(TbCodec, TruncatedIqFails) {
  const std::vector<Cf> tiny(3, Cf{1.0F, 0.0F});
  const auto dec = decode_tb(tiny, Modulation::kQpsk, {}, 8);
  EXPECT_FALSE(dec.crc_ok);
  EXPECT_FALSE(dec.parity_ok);
}

TEST(Mcs, TableMonotonicInEfficiency) {
  for (int m = 1; m < kNumMcs; ++m) {
    EXPECT_GT(mcs_entry(std::uint8_t(m)).spectral_efficiency(),
              mcs_entry(std::uint8_t(m - 1)).spectral_efficiency());
    EXPECT_GT(mcs_entry(std::uint8_t(m)).snr_threshold_db,
              mcs_entry(std::uint8_t(m - 1)).snr_threshold_db);
  }
}

TEST(Mcs, SelectionRespectsThresholds) {
  EXPECT_EQ(select_mcs(0.0), 0);
  EXPECT_EQ(select_mcs(12.0), 1);
  EXPECT_EQ(select_mcs(18.5), 2);
  EXPECT_EQ(select_mcs(30.0), 3);
}

TEST(Mcs, TbSizeScalesWithMcsAndPrbs) {
  EXPECT_GT(tb_size_bytes(3, 100), tb_size_bytes(0, 100));
  EXPECT_GT(tb_size_bytes(1, 200), tb_size_bytes(1, 100));
  EXPECT_GE(tb_size_bytes(0, 1), 1U);
  // Full-carrier 256QAM TB ~ 21 kB (≈340 Mbps at 3/5 DL duty): sanity.
  const auto full = tb_size_bytes(3, 273);
  EXPECT_GT(full, 15'000U);
  EXPECT_LT(full, 30'000U);
}

}  // namespace
}  // namespace slingshot
