// Bit-exactness of the runtime-dispatched SIMD kernels (phy/simd.h).
//
// The golden-trace tests pin LDPC iteration counts and CRC verdicts, so
// the vector kernels must match the scalar reference to the last bit —
// not "close", identical. These tests memcmp the outputs of every
// compiled-in dispatch level against scalar on randomized inputs salted
// with the adversarial cases (ties in magnitude, signed zeros, degrees
// that land on every vector-width tail).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "phy/modulation.h"
#include "phy/simd.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace slingshot {
namespace {

std::vector<simd::Level> supported_vector_levels() {
  std::vector<simd::Level> levels;
  for (const auto level : {simd::Level::kSse2, simd::Level::kAvx2}) {
    if (simd::level_supported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

// Signed zeros, repeated magnitudes (the tie-selection proof), tiny,
// huge and ordinary values.
float adversarial_value(RngStream& rng) {
  switch (rng.next_u64() % 8) {
    case 0: return 0.0F;
    case 1: return -0.0F;
    case 2: return (rng.next_u64() & 1U) ? 1.25F : -1.25F;
    case 3: return float(rng.gaussian(0.0, 1e-4));
    case 4: return float(rng.gaussian(0.0, 1e6));
    default: return float(rng.gaussian(0.0, 5.0));
  }
}

// ---- cn_minsum_lanes: eight checks per call, [position][lane] ----

constexpr int kLanes = simd::kCheckLanes;

// A check group of slab degree `deg` whose lane l holds lane_degree[l]
// real messages from `draw` and kMinSumPad below them.
template <typename Draw>
std::vector<float> make_group(int deg, const std::vector<int>& lane_degree,
                              Draw&& draw) {
  std::vector<float> q(std::size_t(deg * kLanes), simd::kMinSumPad);
  for (int lane = 0; lane < kLanes; ++lane) {
    for (int pos = 0; pos < lane_degree[std::size_t(lane)]; ++pos) {
      q[std::size_t(pos * kLanes + lane)] = draw();
    }
  }
  return q;
}

// Every level's lane kernel against the per-check scalar reference run
// on each lane's padded column, and — the pad rule — each lane's real
// outputs against the reference on its unpadded messages alone.
void expect_cn_minsum_lanes_parity(const std::vector<float>& q, int deg,
                                   const std::vector<int>& lane_degree,
                                   float scale) {
  std::vector<float> want(q.size());
  std::vector<float> column(static_cast<std::size_t>(deg));
  std::vector<float> out(static_cast<std::size_t>(deg));
  for (int lane = 0; lane < kLanes; ++lane) {
    for (int pos = 0; pos < deg; ++pos) {
      column[std::size_t(pos)] = q[std::size_t(pos * kLanes + lane)];
    }
    simd::cn_minsum_reference(column.data(), out.data(), deg, scale);
    for (int pos = 0; pos < deg; ++pos) {
      want[std::size_t(pos * kLanes + lane)] = out[std::size_t(pos)];
    }
    const int real = lane_degree[std::size_t(lane)];
    if (real > 0) {
      std::vector<float> unpadded(static_cast<std::size_t>(real));
      simd::cn_minsum_reference(column.data(), unpadded.data(), real, scale);
      EXPECT_EQ(std::memcmp(unpadded.data(), out.data(),
                            unpadded.size() * sizeof(float)),
                0)
          << "pad changed lane " << lane << " (degree " << real << " of "
          << deg << ")";
    }
  }
  for (const auto level : {simd::Level::kScalar, simd::Level::kSse2,
                           simd::Level::kAvx2}) {
    if (!simd::level_supported(level)) {
      continue;
    }
    std::vector<float> got(q.size(), -999.0F);
    simd::kernels_for(level).cn_minsum_lanes(q.data(), got.data(), deg,
                                             scale);
    EXPECT_EQ(
        std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "level " << simd::level_name(level) << " deg " << deg;
  }
}

// Every slab degree from 2 to 24, each lane with its own real degree
// in [0, deg]: full lanes, padded lanes and empty (all-pad) lanes.
TEST(SimdKernels, CnMinsumLanesMatchesScalarAtEveryDegreeWithPadLanes) {
  auto rng = RngRegistry{2027}.stream("cn-lanes");
  for (int deg = 2; deg <= 24; ++deg) {
    for (int rep = 0; rep < 60; ++rep) {
      std::vector<int> lane_degree(kLanes);
      for (auto& d : lane_degree) {
        d = (rep % 3 == 0) ? deg : int(rng.next_u64() % std::uint64_t(deg + 1));
      }
      const auto q = make_group(deg, lane_degree,
                                [&] { return adversarial_value(rng); });
      expect_cn_minsum_lanes_parity(q, deg, lane_degree, 0.8F);
    }
  }
}

TEST(SimdKernels, CnMinsumLanesMatchesScalarWhenAllMagnitudesTie) {
  for (const int deg : {2, 3, 6, 7, 8, 9, 16}) {
    for (const float magnitude : {2.5F, 0.0F}) {
      std::vector<int> lane_degree(kLanes);
      for (int lane = 0; lane < kLanes; ++lane) {
        lane_degree[std::size_t(lane)] = std::max(2, deg - lane % 3);
      }
      int k = 0;
      const auto q = make_group(deg, lane_degree, [&] {
        return (k++ % 3 == 1) ? -magnitude : magnitude;  // +/-0.0 too
      });
      expect_cn_minsum_lanes_parity(q, deg, lane_degree, 0.8F);
    }
  }
}

// Recover the Modulator's PAM level table by modulating each bit
// pattern (duplicated into both dimensions) and reading the I value —
// the kernels then run against the exact production tables.
std::vector<float> recover_levels(const Modulator& modulator, Modulation mod) {
  const int bits_per_dim = bits_per_symbol(mod) / 2;
  std::vector<float> levels(std::size_t(1) << bits_per_dim);
  std::vector<std::uint8_t> pat_bits(std::size_t(bits_per_symbol(mod)));
  for (std::size_t pattern = 0; pattern < levels.size(); ++pattern) {
    for (int b = 0; b < bits_per_dim; ++b) {
      pat_bits[std::size_t(b)] =
          std::uint8_t((pattern >> (bits_per_dim - 1 - b)) & 1U);
      pat_bits[std::size_t(bits_per_dim + b)] = pat_bits[std::size_t(b)];
    }
    levels[pattern] = modulator.modulate(pat_bits)[0].real();
  }
  return levels;
}

TEST(SimdKernels, DemapSoftMatchesScalarAcrossModulationsAndCounts) {
  auto rng = RngRegistry{99}.stream("demap-parity");
  for (const auto mod : {Modulation::kQpsk, Modulation::kQam16,
                         Modulation::kQam64, Modulation::kQam256}) {
    const Modulator& modulator = modulator_for(mod);
    const auto levels = recover_levels(modulator, mod);
    const int bits_per_dim = bits_per_symbol(mod) / 2;
    // Counts 1..17 cover every 4- and 8-symbol remainder.
    for (std::size_t count = 1; count <= 17; ++count) {
      std::vector<std::complex<float>> syms(count);
      for (auto& s : syms) {
        s = {float(rng.gaussian(0.0, 1.2)), float(rng.gaussian(0.0, 1.2))};
      }
      const double sigma2 = 0.003 + double(rng.next_u64() % 64) / 100.0;
      const std::size_t n_llrs = count * std::size_t(bits_per_symbol(mod));
      std::vector<float> want(n_llrs, -999.0F);
      simd::kernels_for(simd::Level::kScalar)
          .demap_soft(syms.data(), count, levels.data(), bits_per_dim, sigma2,
                      want.data());
      for (const auto level : supported_vector_levels()) {
        std::vector<float> got(n_llrs, -999.0F);
        simd::kernels_for(level).demap_soft(syms.data(), count, levels.data(),
                                            bits_per_dim, sigma2, got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              n_llrs * sizeof(float)),
                  0)
            << "level " << simd::level_name(level) << " mod "
            << modulation_name(mod) << " count " << count;
      }
    }
  }
}

// demap_into is the production entry point; whatever level is active,
// its output must equal the forced-scalar kernel fed the same tables
// and the same per-dimension variance clamp.
TEST(SimdKernels, DemapIntoMatchesForcedScalarKernel) {
  auto rng = RngRegistry{123}.stream("demap-into");
  for (const auto mod : {Modulation::kQpsk, Modulation::kQam64}) {
    const Modulator& modulator = modulator_for(mod);
    const auto levels = recover_levels(modulator, mod);
    const int bits_per_dim = bits_per_symbol(mod) / 2;
    std::vector<std::complex<float>> syms(37);
    for (auto& s : syms) {
      s = {float(rng.gaussian(0.0, 1.0)), float(rng.gaussian(0.0, 1.0))};
    }
    const double noise_var = 0.08;
    std::vector<float> got;
    modulator.demap_into(syms, noise_var, got);
    std::vector<float> want(got.size(), -999.0F);
    simd::kernels_for(simd::Level::kScalar)
        .demap_soft(syms.data(), syms.size(), levels.data(), bits_per_dim,
                    std::max(noise_var / 2.0, 1e-9), want.data());
    EXPECT_EQ(
        std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << modulation_name(mod);
  }
}

// ---- deadline_scan: the massive-UE batch's RLF/reattach sweep ----

void expect_deadline_scan_parity(const std::vector<std::int64_t>& deadlines,
                                 std::int64_t now) {
  std::vector<std::uint32_t> want(deadlines.size() + 1, 0xFFFFFFFFU);
  const std::size_t want_n =
      simd::kernels_for(simd::Level::kScalar)
          .deadline_scan(deadlines.data(), deadlines.size(), now, want.data());
  for (const auto level : supported_vector_levels()) {
    std::vector<std::uint32_t> got(deadlines.size() + 1, 0xFFFFFFFFU);
    const std::size_t got_n = simd::kernels_for(level).deadline_scan(
        deadlines.data(), deadlines.size(), now, got.data());
    ASSERT_EQ(want_n, got_n)
        << "level " << simd::level_name(level) << " n " << deadlines.size();
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          want_n * sizeof(std::uint32_t)),
              0)
        << "level " << simd::level_name(level) << " n " << deadlines.size();
  }
}

TEST(SimdKernels, DeadlineScanSemanticsOnScalar) {
  // Negative lanes are unarmed; hits are expired lanes in ascending
  // index order.
  const std::vector<std::int64_t> deadlines = {5, -1, 0, 100, 7, -42, 6};
  std::vector<std::uint32_t> hits(deadlines.size(), 0);
  const std::size_t n = simd::kernels_for(simd::Level::kScalar)
                            .deadline_scan(deadlines.data(), deadlines.size(),
                                           /*now=*/6, hits.data());
  ASSERT_EQ(n, 3U);
  EXPECT_EQ(hits[0], 0U);  // 5 <= 6
  EXPECT_EQ(hits[1], 2U);  // 0 <= 6
  EXPECT_EQ(hits[2], 6U);  // 6 <= 6 (boundary inclusive)
}

TEST(SimdKernels, DeadlineScanMatchesScalarOnRandomInputs) {
  auto rng = RngRegistry{31}.stream("deadline-parity");
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.next_u64() % 40;
    std::vector<std::int64_t> deadlines(n);
    for (auto& d : deadlines) {
      switch (rng.next_u64() % 5) {
        case 0: d = -1; break;                               // unarmed
        case 1: d = std::int64_t(rng.next_u64() % 8); break;  // near now
        case 2: d = INT64_MAX; break;
        case 3: d = INT64_MIN; break;  // negative: must NOT hit
        default: d = std::int64_t(rng.next_u64() % 1000); break;
      }
    }
    expect_deadline_scan_parity(deadlines, std::int64_t(rng.next_u64() % 16));
  }
}

TEST(SimdKernels, DeadlineScanMatchesScalarAtEveryTailLength) {
  auto rng = RngRegistry{32}.stream("deadline-tails");
  for (std::size_t n = 1; n <= 33; ++n) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<std::int64_t> deadlines(n);
      for (auto& d : deadlines) {
        d = std::int64_t(rng.next_u64() % 20) - 4;  // mix of negatives
      }
      expect_deadline_scan_parity(deadlines, 8);
    }
  }
}

// ---- ar1_update: the batch's fused fading / credit-accrual kernel ----

void expect_ar1_parity(const std::vector<float>& x0, float mean, float rho,
                       const std::vector<float>& innov) {
  std::vector<float> want = x0;
  simd::kernels_for(simd::Level::kScalar)
      .ar1_update(want.data(), want.size(), mean, rho, innov.data());
  for (const auto level : supported_vector_levels()) {
    std::vector<float> got = x0;
    simd::kernels_for(level).ar1_update(got.data(), got.size(), mean, rho,
                                        innov.data());
    EXPECT_EQ(
        std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "level " << simd::level_name(level) << " n " << x0.size();
  }
}

TEST(SimdKernels, Ar1UpdateSemanticsOnScalar) {
  // x = mean + rho*(x - mean) + innov, in exactly that operation order.
  std::vector<float> x = {10.0F, -3.5F, 0.0F};
  const std::vector<float> innov = {0.25F, -1.0F, 0.5F};
  simd::kernels_for(simd::Level::kScalar)
      .ar1_update(x.data(), x.size(), 20.0F, 0.5F, innov.data());
  EXPECT_EQ(x[0], 20.0F + 0.5F * (10.0F - 20.0F) + 0.25F);
  EXPECT_EQ(x[1], 20.0F + 0.5F * (-3.5F - 20.0F) + -1.0F);
  EXPECT_EQ(x[2], 20.0F + 0.5F * (0.0F - 20.0F) + 0.5F);
}

TEST(SimdKernels, Ar1UpdateWithUnitRhoZeroMeanIsCreditAccrual) {
  // The batch reuses the kernel as `credits += rate` — must be exact.
  std::vector<float> credits = {0.0F, 1.5F, 1024.0F, 0.1F};
  const std::vector<float> rate = {3.0F, 0.76F, 0.0F, 0.1F};
  simd::kernels_for(simd::Level::kScalar)
      .ar1_update(credits.data(), credits.size(), 0.0F, 1.0F, rate.data());
  EXPECT_EQ(credits[0], 3.0F);
  EXPECT_EQ(credits[1], 1.5F + 0.76F);
  EXPECT_EQ(credits[2], 1024.0F);
  EXPECT_EQ(credits[3], 0.1F + 0.1F);
}

TEST(SimdKernels, Ar1UpdateMatchesScalarOnRandomInputs) {
  auto rng = RngRegistry{33}.stream("ar1-parity");
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.next_u64() % 40;
    std::vector<float> x(n);
    std::vector<float> innov(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = float(rng.gaussian(20.0, 15.0));
      innov[i] = float(rng.gaussian(0.0, 1.5));
    }
    const float mean = float(rng.gaussian(10.0, 10.0));
    const float rho = float(rng.uniform(0.0, 1.0));
    expect_ar1_parity(x, mean, rho, innov);
  }
}

TEST(SimdKernels, Ar1UpdateMatchesScalarAtEveryTailLength) {
  auto rng = RngRegistry{34}.stream("ar1-tails");
  for (std::size_t n = 1; n <= 33; ++n) {
    std::vector<float> x(n);
    std::vector<float> innov(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = float(rng.gaussian(0.0, 25.0));
      innov[i] = float(rng.gaussian(0.0, 0.6));
    }
    expect_ar1_parity(x, 20.0F, 0.98F, innov);
  }
}

TEST(SimdKernels, ScalarLevelIsAlwaysSupported) {
  EXPECT_TRUE(simd::level_supported(simd::Level::kScalar));
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kSse2), "sse2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

TEST(SimdKernels, ActiveLevelIsSupportedAndStable) {
  const auto level = simd::active_level();
  EXPECT_TRUE(simd::level_supported(level));
  // Dispatch is decided once; repeated calls must agree.
  EXPECT_EQ(simd::active_level(), level);
  EXPECT_EQ(&simd::kernels(), &simd::kernels_for(level));
}

TEST(SimdKernels, UnsupportedLevelFallsBackToScalar) {
  for (const auto level : {simd::Level::kSse2, simd::Level::kAvx2}) {
    if (!simd::level_supported(level)) {
      EXPECT_EQ(&simd::kernels_for(level),
                &simd::kernels_for(simd::Level::kScalar))
          << simd::level_name(level);
    }
  }
}

#if defined(__x86_64__)
// XINUSE bit 2 (xgetbv with ecx = 1): the upper YMM halves may be
// non-zero. Left set after an AVX2 kernel returns, every later
// legacy-SSE instruction — libm, the channel model — pays a state
// transition penalty until some other code runs vzeroupper.
__attribute__((target("xsave"))) bool avx_upper_in_use() {
  return (_xgetbv(1) & 4U) != 0;
}
__attribute__((target("avx"))) void clear_avx_upper() { _mm256_zeroupper(); }

// A 256-bit add and nothing else: returns clean only when the compiler
// inserts vzeroupper on exit, which GCC does from -O2 (its pass is gated
// on -fexpensive-optimizations), not in the -O1 sanitizer builds.
__attribute__((target("avx"), noinline)) float touch_ymm(const float* x) {
  alignas(32) float out[8];
  _mm256_store_ps(out, _mm256_add_ps(_mm256_loadu_ps(x), _mm256_loadu_ps(x)));
  return out[3];
}

bool xinuse_supported() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  return __get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) != 0 &&
         (eax & 4U) != 0;
}

TEST(SimdKernels, Avx2KernelsReturnWithCleanUpperState) {
  if (!simd::level_supported(simd::Level::kAvx2) || !xinuse_supported()) {
    GTEST_SKIP() << "needs AVX2 and xgetbv(1)";
  }
  clear_avx_upper();
  if (avx_upper_in_use()) {
    GTEST_SKIP() << "this CPU reports XINUSE[2] conservatively";
  }
  const float ones[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_EQ(touch_ymm(ones), 2.0F);
  if (avx_upper_in_use()) {
    clear_avx_upper();
    GTEST_SKIP() << "this build does not insert vzeroupper";
  }
  const auto& k = simd::kernels_for(simd::Level::kAvx2);
  const float levels[4] = {-3.0F, -1.0F, 1.0F, 3.0F};
  // Every vector-tail length, so each kernel's remainder path runs.
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<std::complex<float>> syms(n, {0.3F, -0.7F});
    std::vector<float> x(2 * n, 0.5F);
    std::vector<float> innov(2 * n, 0.1F);
    std::vector<float> out(4 * n);
    std::vector<std::int64_t> deadlines(n, 5);
    std::vector<std::uint32_t> hits(n);
    std::vector<std::int32_t> mantissas(2 * n, 3);
    std::vector<std::uint8_t> bytes(4 * n);
    std::vector<float> group(std::size_t(kLanes) * n, 1.0F);
    std::vector<float> group_out(group.size());
    const auto expect_clean = [&](const char* kernel) {
      EXPECT_FALSE(avx_upper_in_use()) << kernel << " n " << n;
      clear_avx_upper();
    };
    k.cn_minsum_lanes(group.data(), group_out.data(), int(n), 0.8F);
    expect_clean("cn_minsum_lanes");
    k.demap_soft(syms.data(), n, levels, 2, 0.1, out.data());
    expect_clean("demap_soft");
    (void)k.deadline_scan(deadlines.data(), n, 10, hits.data());
    expect_clean("deadline_scan");
    k.ar1_update(x.data(), n, 0.5F, 0.9F, innov.data());
    expect_clean("ar1_update");
    (void)k.peak_abs(x.data(), n);
    expect_clean("peak_abs");
    k.bfp_quantize(x.data(), n, 0.25, 127, mantissas.data());
    expect_clean("bfp_quantize");
    k.bfp_dequantize(mantissas.data(), n, 0.25F, x.data());
    expect_clean("bfp_dequantize");
    for (const int m : {8, 9, 16}) {
      (void)k.bfp_pack(mantissas.data(), n, m, bytes.data());
      expect_clean("bfp_pack");
      k.bfp_unpack(bytes.data(), n, m, mantissas.data());
      expect_clean("bfp_unpack");
    }
  }
}
#endif

}  // namespace
}  // namespace slingshot
