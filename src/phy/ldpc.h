// LDPC forward error correction.
//
// A regular Gallager LDPC code (column weight 3, rate ~1/2) with a
// systematic GF(2) encoder derived by Gaussian elimination and a
// normalized min-sum belief-propagation decoder. The decoder's maximum
// iteration count is a runtime knob — the paper's live-upgrade
// experiment (§8.3, Fig 11) upgrades the PHY to "more FEC iterations for
// decoding the signal", and with a real BP decoder iteration count
// genuinely moves the decoding threshold.
//
// Two message-passing schedules are available:
//  * kFlooding — all check nodes update, then all variable nodes. The
//    codebase-wide default; its arithmetic is bit-identical across
//    refactors, which the golden-trace determinism test relies on.
//  * kLayered — serial-C: checks update one at a time against the live
//    posterior, so information propagates within an iteration and the
//    decoder converges in roughly half the iterations at equal FER.
//
// Flooding runs on a check-lane layout built at construction: checks
// are grouped simd::kCheckLanes (8) at a time, and a group's messages
// are stored [position][lane], so one cn_minsum_lanes call updates 8
// checks with no horizontal merge. A group is as long as its largest
// check; shorter checks pad their column with simd::kMinSumPad (+1e30),
// which is positive and never below the min-sum start value, so the
// padded update is exact. The variable pass reads the slab through
// precomputed slot indices in the same per-variable edge order as
// always — ((llr + m0) + m1) + m2 for column weight 3 — so every float
// sum, and every decode outcome, is unchanged.
//
// Zero-syndrome exit: when the channel hard decisions (llr < 0, so
// -0.0 is bit 0, as in the kernels and the variable pass) already
// satisfy every check, flooding returns them as iteration 1 without
// passing a message. That is exactly what iteration 1 would produce:
// with even parity in every check, each message's exclusion sign equals
// the receiving variable's own sign, so every message reinforces the
// channel decision and no bit flips.
//
// The hot decode path is allocation-free: callers own a reusable
// DecodeWorkspace whose buffers amortize to zero heap traffic, parity is
// tracked on the fly as hard decisions flip (no per-iteration
// check_parity walk), and the Tanner graph is stored as flat SoA edge
// arrays rather than vector<vector<int>> adjacency.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"

namespace slingshot {

namespace simd {
struct Kernels;
}  // namespace simd

enum class LdpcSchedule : std::uint8_t { kFlooding = 0, kLayered = 1 };

class LdpcCode {
 public:
  // Build a pseudo-random regular code: n coded bits, m = n - k checks,
  // column weight `wc`. Deterministic for a given seed.
  LdpcCode(int n, int m, std::uint64_t seed, int wc = 3);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int num_checks() const { return m_; }
  [[nodiscard]] int num_edges() const { return num_edges_; }

  // Encode k info bits into an n-bit codeword (values 0/1).
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> info_bits) const;

  // Extract the k info bits from a (decoded) codeword.
  [[nodiscard]] std::vector<std::uint8_t> extract_info(
      std::span<const std::uint8_t> codeword) const;
  // Non-allocating variant (resizes `out` to k).
  void extract_info_into(std::span<const std::uint8_t> codeword,
                         std::vector<std::uint8_t>& out) const;

  struct DecodeResult {
    std::vector<std::uint8_t> codeword;  // hard decisions, n bits
    bool parity_ok = false;              // all checks satisfied
    int iterations_used = 0;
  };

  // Caller-owned scratch buffers for decode_into(). Reusing one
  // workspace across decodes makes the decode loop allocation-free
  // (asserted by a counting-allocator test). The decoded hard decisions
  // land in `codeword`.
  struct DecodeWorkspace {
    std::vector<std::uint8_t> codeword;   // n hard decisions (output)
    // Per-edge messages: the check-lane slab for flooding, indexed by
    // edge id for layered (which uses check_to_var only).
    std::vector<float> var_to_check;
    std::vector<float> check_to_var;
    std::vector<float> posterior;         // layered: live LLR accumulator
    std::vector<float> layer_q;           // layered: one check's inputs
    std::vector<float> layer_r;           // layered: one check's outputs
    std::vector<std::uint8_t> syndrome;   // per-check parity bit
  };

  struct DecodeStatus {
    bool parity_ok = false;
    int iterations_used = 0;
  };

  // Normalized min-sum BP decode from channel LLRs (positive = bit 0).
  // Hard decisions are written to ws.codeword. Zero heap allocations
  // once the workspace has warmed up to this code's dimensions. With
  // max_iterations <= 0 no message is passed: ws.codeword holds the
  // channel hard decisions, parity_ok their syndrome, and
  // iterations_used is 0.
  DecodeStatus decode_into(std::span<const float> llr, int max_iterations,
                           DecodeWorkspace& ws,
                           LdpcSchedule schedule = LdpcSchedule::kFlooding)
      const;
  // The same decode on an explicit kernel table (simd::kernels_for), so
  // tests and benchmarks can pin an ISA in one process. Outcomes are
  // identical at every level.
  DecodeStatus decode_into(std::span<const float> llr, int max_iterations,
                           DecodeWorkspace& ws, LdpcSchedule schedule,
                           const simd::Kernels& kernels) const;

  // Convenience wrapper around decode_into() that returns an owned
  // codeword (flooding schedule; message buffers come from a
  // thread-local workspace).
  [[nodiscard]] DecodeResult decode(std::span<const float> llr,
                                    int max_iterations) const;

  [[nodiscard]] bool check_parity(std::span<const std::uint8_t> cw) const;

  // Variables of check c in edge order: the Tanner graph, read-only,
  // for reference decoders in tests.
  [[nodiscard]] std::span<const int> check_vars(int c) const;

  // The codebase-wide default code: n = 648, rate 1/2 — one
  // representative codeword per transport block.
  static const LdpcCode& standard();

 private:
  int n_;
  int m_;
  int k_;
  // Flat SoA Tanner graph. Edges are numbered by (check, position):
  // check c owns edges [check_edge_offset_[c], check_edge_offset_[c+1]).
  std::vector<int> check_edge_offset_;  // m+1 offsets into edge arrays
  std::vector<int> edge_var_;           // variable at each edge (by check)
  // Per-variable edge lists: every variable has exactly wc_ edges, and
  // variable v's are entries [v * wc_, (v + 1) * wc_), in edge-id order.
  int wc_;
  std::vector<int> var_check_;          // check of each entry
  int num_edges_ = 0;
  int max_check_degree_ = 0;
  // Flooding check-lane layout: group g holds checks [8g, 8g+8) in
  // slab floats [lane_group_offset_[g], lane_group_offset_[g+1]) as
  // [position][lane]; var_slot_ is the slab index of each per-variable
  // entry, and pad_slots_ lists the slots past a check's degree.
  std::vector<int> lane_group_offset_;
  std::vector<int> var_slot_;
  std::vector<int> pad_slots_;
  // Systematic encoder: after RREF, pivot (parity) columns and the
  // info columns, plus per-parity-row masks over info bits.
  std::vector<int> info_cols_;
  std::vector<int> parity_cols_;           // pivot column of each kept row
  std::vector<BitVector> parity_masks_;    // over info-bit indices
};

}  // namespace slingshot
