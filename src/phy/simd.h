// Runtime-dispatched SIMD kernels for the PHY's two hottest inner
// loops: the normalized min-sum check-node update (ldpc.cc; one check
// at a time for the layered schedule, eight check lanes at a time for
// flooding) and the max-log soft demapper (modulation.cc).
//
// Contract: every implementation is BIT-EXACT against the scalar
// reference on all finite inputs — same floats out, down to the sign
// bit. The golden-trace determinism test pins decode iteration counts
// and CRC outcomes, so a kernel that drifted by one ULP would change
// simulation results between machines. The implementations stay exact
// by construction:
//  * min/max/fabs/compare and sign manipulation are exact in IEEE-754;
//    no reassociated sums or FMA contractions are used.
//  * the min-sum magnitude is selected by value equality
//    (mag == min1 ? min2 : min1), which provably matches the scalar
//    code's position-based selection: when a non-minimal position ties
//    with min1, min2 == min1 and both forms emit the same value.
//  * the demapper replicates the scalar path's double-precision
//    division (cvtps_pd -> div_pd -> cvtpd_ps) instead of multiplying
//    by a reciprocal.
//
// Dispatch happens once, at first use: the highest level the CPU
// supports (AVX2 > SSE2 > scalar), overridable with
// SLINGSHOT_SIMD=scalar|sse2|avx2 for A/B benchmarking and tests.
// kernels_for() exposes every compiled-in level so tests can assert
// exact parity between all of them on randomized inputs.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace slingshot::simd {

enum class Level { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

[[nodiscard]] const char* level_name(Level level);

// Checks per cn_minsum_lanes call. Fixed at 8 on every level (SSE2
// runs two 4-wide halves, scalar loops), so the decoder's message
// layout never depends on the CPU.
inline constexpr int kCheckLanes = 8;

// Pad value for message slots past a check's real degree, and the
// min-sum trackers' start value: positive (no sign contribution) and
// never below min1 or min2, so it never replaces either, and a padded
// check computes exactly what the unpadded one does.
inline constexpr float kMinSumPad = 1e30F;

struct Kernels {
  // Normalized min-sum check-node update over one check's `deg`
  // incoming messages q[0..deg): r[j] gets the sign-excluded product
  // sign * scale * mag, where mag is the smallest |q| excluding
  // position j (i.e. min2 at the argmin position, min1 elsewhere).
  // q and r must not alias.
  void (*cn_minsum)(const float* q, float* r, int deg, float scale);

  // The same update on kCheckLanes checks at once, lane-wise with no
  // horizontal merge. q and r hold a group of checks position-major:
  // q[pos * kCheckLanes + lane], pos in [0, deg). Each lane's column
  // gets exactly what cn_minsum gives on that column; a check shorter
  // than `deg` pads its column with kMinSumPad, which leaves its real
  // outputs unchanged. q and r must not alias.
  void (*cn_minsum_lanes)(const float* q, float* r, int deg, float scale);

  // Max-log LLR soft demap of `count` Gray-mapped square-QAM symbols.
  // `levels` holds the 1 << bits_per_dim PAM amplitudes indexed by
  // MSB-first bit pattern; `sigma2` is the per-dimension noise
  // variance. Writes 2 * bits_per_dim LLRs per symbol to `out`
  // (I-dimension bits first, then Q), positive = bit 0.
  void (*demap_soft)(const std::complex<float>* symbols, std::size_t count,
                     const float* levels, int bits_per_dim, double sigma2,
                     float* out);

  // Deadline scan over `n` signed 64-bit deadlines: appends every index
  // i with 0 <= deadlines[i] <= now to `hits` (caller-sized to at least
  // n) and returns the number appended, in ascending index order.
  // Negative deadlines mean "unarmed" and never fire. Used by the
  // massive-UE batch to sweep RLF / reattach timer lanes once per TTI
  // instead of scheduling per-UE events.
  std::size_t (*deadline_scan)(const std::int64_t* deadlines, std::size_t n,
                               std::int64_t now, std::uint32_t* hits);

  // Batched AR(1) filter step over `n` float lanes:
  //   x[i] = mean + rho * (x[i] - mean) + innov[i]
  // evaluated exactly in that operation order (sub, mul, add, add;
  // no FMA contraction), so every level is bit-exact vs scalar. Used
  // for the batch's per-lane SNR fading update.
  void (*ar1_update)(float* x, std::size_t n, float mean, float rho,
                     const float* innov);

  // ---- BFP codec kernels (fronthaul/bfp.cc fast lane) ----
  // These four cover one O-RAN BFP block: exponent scan, quantize,
  // mantissa pack/unpack, dequantize. All are bit-exact vs scalar:
  // abs/max are exact; the quantizer works in double where division
  // and multiplication by a power of two are exact and emulates
  // lround's half-away-from-zero via trunc(x + copysign(0.5, x)),
  // which is provably identical for |x| small enough to survive the
  // mantissa clamp; the dequantizer multiplies a <=16-bit integer by a
  // power of two, which is exact in float.

  // Max |x[i]| over n floats (0 for n == 0). The BFP shared-exponent
  // scan over one block's 2*n real components.
  float (*peak_abs)(const float* x, std::size_t n);

  // q[i] = clamp(lround(double(x[i]) * inv_scale), -max_m, max_m).
  // inv_scale must be a power of two (it is 2^-exponent).
  void (*bfp_quantize)(const float* x, std::size_t n, double inv_scale,
                       std::int32_t max_m, std::int32_t* q);

  // out[i] = float(q[i]) * scale. scale is a power of two, so the
  // product is exact whenever it is representable.
  void (*bfp_dequantize)(const std::int32_t* q, std::size_t n, float scale,
                         float* out);

  // Pack n two's-complement mantissas (the low m bits of q[i],
  // m in [2,16]) MSB-first into dst; returns the (n*m+7)/8 bytes
  // written, zero-padding the final partial byte's low bits. Values
  // must already be in [-(2^(m-1)-1), 2^(m-1)-1]. SIMD levels
  // specialize the byte-aligned widths (m == 8, 16) and fall back to
  // the shared 64-bit word-level core elsewhere — never to a per-bit
  // loop.
  std::size_t (*bfp_pack)(const std::int32_t* q, std::size_t n, int m,
                          std::uint8_t* dst);

  // Inverse of bfp_pack: sign-extend n m-bit mantissas from src (which
  // must hold at least (n*m+7)/8 bytes) into q.
  void (*bfp_unpack)(const std::uint8_t* src, std::size_t n, int m,
                     std::int32_t* q);
};

// The active kernel set, chosen once on first call (thread-safe) from
// CPU capabilities and the optional SLINGSHOT_SIMD env override.
[[nodiscard]] const Kernels& kernels();
[[nodiscard]] Level active_level();

// Kernel set for a specific level, for parity tests and benchmarks.
// Returns the scalar set when `level` is not supported on this CPU.
[[nodiscard]] const Kernels& kernels_for(Level level);
[[nodiscard]] bool level_supported(Level level);

}  // namespace slingshot::simd
