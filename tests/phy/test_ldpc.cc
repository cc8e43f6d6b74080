#include "phy/ldpc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/rng.h"
#include "phy/simd.h"

namespace slingshot {
namespace {

std::vector<std::uint8_t> random_bits(int n, RngStream& rng) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(n));
  for (auto& b : bits) {
    b = std::uint8_t(rng.next_u64() & 1U);
  }
  return bits;
}

// Transmit a codeword over BPSK + AWGN, produce channel LLRs.
std::vector<float> bpsk_llrs(std::span<const std::uint8_t> cw, double snr_db,
                             RngStream& rng) {
  const double sigma2 = std::pow(10.0, -snr_db / 10.0);
  const double sigma = std::sqrt(sigma2);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    const double x = cw[i] ? -1.0 : 1.0;
    const double y = x + rng.gaussian(0.0, sigma);
    llrs[i] = float(2.0 * y / sigma2);
  }
  return llrs;
}

// Hard decisions straight from the channel (llr < 0 is bit 1).
std::vector<std::uint8_t> hard_decisions(std::span<const float> llrs) {
  std::vector<std::uint8_t> bits(llrs.size());
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    bits[i] = llrs[i] < 0.0F ? 1 : 0;
  }
  return bits;
}

// Reference flooding decoder: the per-check loop that the check-lane
// layout replaced, kept as an oracle. One scalar cn_minsum call per
// check over edges numbered by (check, position); the variable pass
// sums each variable's messages in edge-id order.
class FloodingOracle {
 public:
  explicit FloodingOracle(const LdpcCode& code) : n_(code.n()) {
    check_offset_.push_back(0);
    for (int c = 0; c < code.num_checks(); ++c) {
      for (const int v : code.check_vars(c)) {
        edge_var_.push_back(v);
        edge_check_.push_back(c);
      }
      check_offset_.push_back(int(edge_var_.size()));
    }
    var_edges_.resize(std::size_t(n_));
    for (std::size_t e = 0; e < edge_var_.size(); ++e) {
      var_edges_[std::size_t(edge_var_[e])].push_back(int(e));
    }
  }

  LdpcCode::DecodeResult decode(std::span<const float> llr,
                                int max_iterations) const {
    const auto& cn_minsum = simd::kernels_for(simd::Level::kScalar).cn_minsum;
    const std::size_t edges = edge_var_.size();
    std::vector<float> var_to_check(edges);
    std::vector<float> check_to_var(edges);
    std::vector<std::uint8_t> syndrome(check_offset_.size() - 1, 0);
    LdpcCode::DecodeResult result;
    result.codeword.assign(std::size_t(n_), 0);
    int unsatisfied = 0;
    for (std::size_t e = 0; e < edges; ++e) {
      var_to_check[e] = llr[std::size_t(edge_var_[e])];
    }
    for (int iter = 1; iter <= max_iterations; ++iter) {
      for (std::size_t c = 0; c + 1 < check_offset_.size(); ++c) {
        const int base = check_offset_[c];
        cn_minsum(&var_to_check[std::size_t(base)],
                  &check_to_var[std::size_t(base)],
                  check_offset_[c + 1] - base, 0.8F);
      }
      for (int v = 0; v < n_; ++v) {
        float total = llr[std::size_t(v)];
        for (const int e : var_edges_[std::size_t(v)]) {
          total += check_to_var[std::size_t(e)];
        }
        for (const int e : var_edges_[std::size_t(v)]) {
          var_to_check[std::size_t(e)] = total - check_to_var[std::size_t(e)];
        }
        const std::uint8_t bit = total < 0.0F ? 1 : 0;
        if (bit != result.codeword[std::size_t(v)]) {
          result.codeword[std::size_t(v)] = bit;
          for (const int e : var_edges_[std::size_t(v)]) {
            const auto c = std::size_t(edge_check_[std::size_t(e)]);
            syndrome[c] ^= 1U;
            unsatisfied += syndrome[c] ? 1 : -1;
          }
        }
      }
      result.iterations_used = iter;
      if (unsatisfied == 0) {
        break;
      }
    }
    result.parity_ok = unsatisfied == 0;
    return result;
  }

 private:
  int n_;
  std::vector<int> check_offset_;
  std::vector<int> edge_var_;
  std::vector<int> edge_check_;
  std::vector<std::vector<int>> var_edges_;
};

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels;
  for (const auto level :
       {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
    if (simd::level_supported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

// Decode `llrs` at every compiled-in SIMD level and expect codeword,
// parity_ok and iterations_used identical to the oracle's.
void expect_matches_oracle(const LdpcCode& code, const FloodingOracle& oracle,
                           std::span<const float> llrs, int max_iterations,
                           const std::string& where) {
  const auto want = oracle.decode(llrs, max_iterations);
  LdpcCode::DecodeWorkspace ws;
  for (const auto level : supported_levels()) {
    const auto got = code.decode_into(llrs, max_iterations, ws,
                                      LdpcSchedule::kFlooding,
                                      simd::kernels_for(level));
    EXPECT_EQ(got.parity_ok, want.parity_ok)
        << where << " level " << simd::level_name(level);
    EXPECT_EQ(got.iterations_used, want.iterations_used)
        << where << " level " << simd::level_name(level);
    EXPECT_EQ(ws.codeword, want.codeword)
        << where << " level " << simd::level_name(level);
  }
}

TEST(LdpcCode, DimensionsAreSane) {
  const auto& code = LdpcCode::standard();
  EXPECT_EQ(code.n(), 648);
  // Rate ~1/2; a few dependent checks may shift k slightly upward.
  EXPECT_GE(code.k(), 320);
  EXPECT_LE(code.k(), 340);
}

TEST(LdpcCode, EncodedWordsSatisfyParity) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{1}.stream("ldpc");
  for (int trial = 0; trial < 20; ++trial) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    ASSERT_EQ(int(cw.size()), code.n());
    EXPECT_TRUE(code.check_parity(cw));
  }
}

TEST(LdpcCode, EncodeIsSystematicInExtraction) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{2}.stream("ldpc");
  const auto info = random_bits(code.k(), rng);
  const auto cw = code.encode(info);
  EXPECT_EQ(code.extract_info(cw), info);
}

TEST(LdpcCode, CorruptedWordFailsParity) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{3}.stream("ldpc");
  auto cw = code.encode(random_bits(code.k(), rng));
  cw[100] ^= 1U;
  EXPECT_FALSE(code.check_parity(cw));
}

TEST(LdpcCode, DecodesCleanChannelInOneIteration) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{4}.stream("ldpc");
  const auto info = random_bits(code.k(), rng);
  const auto cw = code.encode(info);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    llrs[i] = cw[i] ? -10.0F : 10.0F;
  }
  const auto result = code.decode(llrs, 8);
  EXPECT_TRUE(result.parity_ok);
  EXPECT_EQ(result.iterations_used, 1);
  EXPECT_EQ(code.extract_info(result.codeword), info);
}

TEST(LdpcCode, DecodesNoisyChannelAtModerateSnr) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{5}.stream("ldpc");
  int successes = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    const auto llrs = bpsk_llrs(cw, 4.0, rng);  // comfortable SNR
    const auto result = code.decode(llrs, 20);
    if (result.parity_ok && code.extract_info(result.codeword) == info) {
      ++successes;
    }
  }
  EXPECT_EQ(successes, trials);
}

TEST(LdpcCode, FailsAtVeryLowSnr) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{6}.stream("ldpc");
  int successes = 0;
  for (int t = 0; t < 20; ++t) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    const auto llrs = bpsk_llrs(cw, -4.0, rng);
    const auto result = code.decode(llrs, 20);
    if (result.parity_ok) {
      ++successes;
    }
  }
  EXPECT_LT(successes, 3);
}

// The property behind the paper's Fig 11 live-upgrade experiment: more
// BP iterations decode at SNRs where fewer iterations fail.
TEST(LdpcCode, MoreIterationsImproveNearThresholdDecoding) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{7}.stream("ldpc");
  const int trials = 60;
  int ok_few = 0;
  int ok_many = 0;
  for (int t = 0; t < trials; ++t) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    const auto llrs = bpsk_llrs(cw, 1.4, rng);  // near threshold
    ok_few += code.decode(llrs, 3).parity_ok ? 1 : 0;
    ok_many += code.decode(llrs, 40).parity_ok ? 1 : 0;
  }
  EXPECT_GT(ok_many, ok_few + trials / 10)
      << "few=" << ok_few << " many=" << ok_many;
}

TEST(LdpcCode, EarlyTerminationReportsIterations) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{8}.stream("ldpc");
  const auto cw = code.encode(random_bits(code.k(), rng));
  const auto llrs = bpsk_llrs(cw, 6.0, rng);
  const auto result = code.decode(llrs, 50);
  EXPECT_TRUE(result.parity_ok);
  EXPECT_LT(result.iterations_used, 10);  // early exit, not 50
}

TEST(LdpcCode, WrongInputSizesThrow) {
  const auto& code = LdpcCode::standard();
  EXPECT_THROW((void)code.encode(std::vector<std::uint8_t>(10)),
               std::invalid_argument);
  EXPECT_THROW((void)code.decode(std::vector<float>(10), 5),
               std::invalid_argument);
  EXPECT_THROW(LdpcCode(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(LdpcCode(100, 100, 1), std::invalid_argument);
}

TEST(LdpcCode, DeterministicForSeed) {
  const LdpcCode a{324, 162, 77};
  const LdpcCode b{324, 162, 77};
  auto rng = RngRegistry{9}.stream("ldpc");
  const auto info = random_bits(a.k(), rng);
  ASSERT_EQ(a.k(), b.k());
  EXPECT_EQ(a.encode(info), b.encode(info));
}

TEST(LdpcCode, LayeredDecodesCleanChannel) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{10}.stream("ldpc");
  const auto info = random_bits(code.k(), rng);
  const auto cw = code.encode(info);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    llrs[i] = cw[i] ? -10.0F : 10.0F;
  }
  LdpcCode::DecodeWorkspace ws;
  const auto status =
      code.decode_into(llrs, 8, ws, LdpcSchedule::kLayered);
  EXPECT_TRUE(status.parity_ok);
  EXPECT_EQ(code.extract_info(ws.codeword), info);
}

TEST(LdpcCode, DecodeIntoMatchesDecode) {
  // The workspace entry point is the same algorithm as the allocating
  // wrapper — byte-identical outcomes.
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{11}.stream("ldpc");
  LdpcCode::DecodeWorkspace ws;
  for (int t = 0; t < 10; ++t) {
    const auto cw = code.encode(random_bits(code.k(), rng));
    const auto llrs = bpsk_llrs(cw, 2.0, rng);
    const auto via_wrapper = code.decode(llrs, 8);
    const auto via_ws = code.decode_into(llrs, 8, ws);
    EXPECT_EQ(via_wrapper.parity_ok, via_ws.parity_ok);
    EXPECT_EQ(via_wrapper.iterations_used, via_ws.iterations_used);
    EXPECT_EQ(via_wrapper.codeword, ws.codeword);
  }
}

// The check-lane flooding decoder is the per-check loop it replaced,
// decode for decode: same codeword, parity verdict and iteration count
// on the standard code, an irregular-degree code (300 sockets over 40
// checks: degrees 7 and 8, so groups carry pad slots), and column
// weights 2 and 4, across an SNR sweep and iteration caps.
TEST(LdpcCode, CheckLaneFloodingMatchesPerCheckOracle) {
  const LdpcCode irregular{100, 40, 0xC0DE};
  const LdpcCode weight2{324, 162, 21, /*wc=*/2};
  const LdpcCode weight4{324, 162, 22, /*wc=*/4};
  std::size_t min_degree = 99;
  std::size_t max_degree = 0;
  for (int c = 0; c < irregular.num_checks(); ++c) {
    min_degree = std::min(min_degree, irregular.check_vars(c).size());
    max_degree = std::max(max_degree, irregular.check_vars(c).size());
  }
  ASSERT_LT(min_degree, max_degree) << "irregular code came out regular";
  const std::vector<std::pair<const char*, const LdpcCode*>> codes{
      {"standard", &LdpcCode::standard()},
      {"irregular", &irregular},
      {"wc2", &weight2},
      {"wc4", &weight4}};
  auto rng = RngRegistry{2025}.stream("oracle");
  int converged_late = 0;
  int failed = 0;
  int zero_syndrome = 0;
  for (const auto& [name, code] : codes) {
    const FloodingOracle oracle{*code};
    for (const double snr_db : {-1.0, 1.0, 2.0, 3.0, 4.5, 7.0, 12.0}) {
      for (int trial = 0; trial < 3; ++trial) {
        const auto cw = code->encode(random_bits(code->k(), rng));
        const auto llrs = bpsk_llrs(cw, snr_db, rng);
        zero_syndrome += code->check_parity(hard_decisions(llrs)) ? 1 : 0;
        for (const int cap : {1, 2, 4, 8, 20}) {
          expect_matches_oracle(*code, oracle, llrs, cap,
                                std::string(name) + " snr " +
                                    std::to_string(snr_db) + " cap " +
                                    std::to_string(cap));
          const auto outcome = oracle.decode(llrs, cap);
          converged_late += outcome.parity_ok && outcome.iterations_used > 1;
          failed += outcome.parity_ok ? 0 : 1;
        }
      }
    }
  }
  // The sweep must exercise every exit of the decode loop.
  EXPECT_GT(converged_late, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GT(zero_syndrome, 0);
}

// Inputs aimed at the zero-syndrome exit and at signed zeros: -0.0 is
// not negative, so it is hard decision 0 in the exit, the check
// kernels and the variable pass alike.
TEST(LdpcCode, CheckLaneFloodingMatchesOracleOnZeroSyndromeAndSignedZeros) {
  const LdpcCode irregular{100, 40, 0xC0DE};
  auto rng = RngRegistry{2026}.stream("oracle-zeros");
  for (const LdpcCode* code : {&LdpcCode::standard(), &irregular}) {
    const FloodingOracle oracle{*code};
    const auto cw = code->encode(random_bits(code->k(), rng));
    std::vector<std::vector<float>> inputs;
    // Clean channel: hard decisions are the codeword.
    std::vector<float> clean(cw.size());
    for (std::size_t i = 0; i < cw.size(); ++i) {
      clean[i] = cw[i] ? -4.0F : 4.0F;
    }
    inputs.push_back(clean);
    // Still zero syndrome, with +/-0.0 on some of the 0 bits.
    auto zeros_on_clean = clean;
    for (std::size_t i = 0; i < cw.size(); i += 3) {
      if (cw[i] == 0) {
        zeros_on_clean[i] = (i % 2 != 0) ? -0.0F : 0.0F;
      }
    }
    inputs.push_back(zeros_on_clean);
    // +/-0.0 on 1 bits: hard decision 0 there, so a non-zero syndrome
    // and zero-magnitude messages in the first iteration.
    auto zeros_on_ones = clean;
    for (std::size_t i = 0; i < cw.size(); ++i) {
      if (cw[i] == 1 && i % 4 == 0) {
        zeros_on_ones[i] = (i % 8 == 0) ? -0.0F : 0.0F;
      }
    }
    inputs.push_back(zeros_on_ones);
    // All signed zeros: the all-zero word, zero syndrome.
    std::vector<float> all_zero(cw.size());
    for (std::size_t i = 0; i < cw.size(); ++i) {
      all_zero[i] = (i % 2 != 0) ? -0.0F : 0.0F;
    }
    inputs.push_back(all_zero);
    // Noisy, salted with signed zeros.
    auto noisy_zeros = bpsk_llrs(cw, 2.0, rng);
    for (std::size_t i = 0; i < cw.size(); i += 5) {
      noisy_zeros[i] = (rng.next_u64() & 1U) ? -0.0F : 0.0F;
    }
    inputs.push_back(noisy_zeros);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      for (const int cap : {1, 2, 4, 8, 20}) {
        expect_matches_oracle(*code, oracle, inputs[k], cap,
                              "input " + std::to_string(k) + " cap " +
                                  std::to_string(cap));
      }
    }
    EXPECT_TRUE(code->check_parity(hard_decisions(zeros_on_clean)));
    EXPECT_FALSE(code->check_parity(hard_decisions(zeros_on_ones)));
  }
}

// LLRs mixing +/-2^26 with +/-1 and +/-0.5: a variable whose two
// large messages cancel keeps its small channel term only in the
// specified order — ((1 + m) - m) is 0 in float, (m - m) + 1 is 1 — so
// a variable pass that reassociated ((llr + m0) + m1) + m2 would flip
// decisions here, where Gaussian LLRs almost never expose it.
TEST(LdpcCode, CheckLaneFloodingMatchesOracleWhenMessagesCancel) {
  const LdpcCode irregular{100, 40, 0xC0DE};
  auto rng = RngRegistry{2028}.stream("oracle-cancel");
  for (const LdpcCode* code : {&LdpcCode::standard(), &irregular}) {
    const FloodingOracle oracle{*code};
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<float> llrs(std::size_t(code->n()));
      for (auto& llr : llrs) {
        const auto draw = rng.next_u64() % 20;
        const float magnitude = draw < 14 ? 67108864.0F  // 2^26
                                : draw < 17 ? 1.0F
                                            : 0.5F;
        llr = (rng.next_u64() & 1U) ? -magnitude : magnitude;
      }
      for (const int cap : {1, 2, 4, 8}) {
        expect_matches_oracle(*code, oracle, llrs, cap,
                              "trial " + std::to_string(trial) + " cap " +
                                  std::to_string(cap));
      }
    }
  }
}

// With no iteration budget neither schedule passes a message: the
// result is the channel hard decisions with their real syndrome.
TEST(LdpcCode, ZeroIterationBudgetReturnsChannelHardDecisions) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{12}.stream("ldpc");
  const auto cw = code.encode(random_bits(code.k(), rng));
  std::vector<float> clean(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    clean[i] = cw[i] ? -3.0F : 3.0F;
  }
  auto noisy = clean;
  noisy[7] = -noisy[7];  // one wrong hard decision: parity must fail
  LdpcCode::DecodeWorkspace ws;
  for (const auto schedule : {LdpcSchedule::kFlooding, LdpcSchedule::kLayered}) {
    for (const int budget : {0, -1}) {
      for (const auto* llrs : {&clean, &noisy}) {
        const auto status = code.decode_into(*llrs, budget, ws, schedule);
        const auto hard = hard_decisions(*llrs);
        EXPECT_EQ(ws.codeword, hard);
        EXPECT_EQ(status.parity_ok, code.check_parity(hard));
        EXPECT_EQ(status.iterations_used, 0);
      }
    }
  }
  EXPECT_TRUE(code.decode_into(clean, 0, ws).parity_ok);
  EXPECT_FALSE(code.decode_into(noisy, 0, ws).parity_ok);
}

// The property that motivates the layered (serial-C) schedule: updated
// beliefs propagate within an iteration, so at an equal (tight)
// iteration budget the layered schedule's frame error rate is no worse
// than flooding's. Swept across near-threshold SNRs.
class LdpcScheduleSweep : public ::testing::TestWithParam<double> {};

TEST_P(LdpcScheduleSweep, LayeredFerNoWorseThanFloodingAtEqualBudget) {
  const auto& code = LdpcCode::standard();
  const double snr_db = GetParam();
  // Seed depends on the SNR point so sweep points are independent.
  auto rng = RngRegistry{std::uint64_t(100 + snr_db * 10)}.stream("ldpc");
  const int trials = 120;
  const int budget = 4;  // tight: convergence speed decides the FER
  int flooding_failures = 0;
  int layered_failures = 0;
  LdpcCode::DecodeWorkspace ws;
  for (int t = 0; t < trials; ++t) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    const auto llrs = bpsk_llrs(cw, snr_db, rng);
    const auto flooding =
        code.decode_into(llrs, budget, ws, LdpcSchedule::kFlooding);
    const bool flooding_ok =
        flooding.parity_ok && code.extract_info(ws.codeword) == info;
    const auto layered =
        code.decode_into(llrs, budget, ws, LdpcSchedule::kLayered);
    const bool layered_ok =
        layered.parity_ok && code.extract_info(ws.codeword) == info;
    flooding_failures += flooding_ok ? 0 : 1;
    layered_failures += layered_ok ? 0 : 1;
  }
  EXPECT_LE(layered_failures, flooding_failures)
      << "snr=" << snr_db << " layered=" << layered_failures << "/" << trials
      << " flooding=" << flooding_failures << "/" << trials;
}

INSTANTIATE_TEST_SUITE_P(NearThreshold, LdpcScheduleSweep,
                         ::testing::Values(1.5, 2.0, 2.5, 3.0));

}  // namespace
}  // namespace slingshot
