#include "phy/ldpc.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

#include "phy/simd.h"

namespace slingshot {
namespace {
constexpr float kMinSumScale = 0.8F;  // normalized min-sum correction

// Flip `v`'s hard decision: toggle the syndrome bit of every adjacent
// check and keep the unsatisfied-check count current. This is how
// parity tracking stays folded into the update pass — no full
// check_parity walk per iteration. `var_check` lists each variable's
// `weight` checks back to back.
inline void flip_bit(int v, int weight, const int* var_check,
                     std::uint8_t* syndrome, int& unsatisfied) {
  const int* checks = var_check + std::size_t(v) * std::size_t(weight);
  for (int i = 0; i < weight; ++i) {
    syndrome[checks[i]] ^= 1U;
    unsatisfied += syndrome[checks[i]] ? 1 : -1;
  }
}

// Variable-node pass of one flooding iteration over the check-lane
// slab: each variable sums its messages in edge order, so for weight 3
// total = ((llr + m0) + m1) + m2, writes total - m back to every
// check, and flips its hard decision when the sign of total changes.
// kWeight fixes the column weight at compile time (0 reads `weight`),
// which keeps the standard code's three messages in registers.
template <int kWeight>
void flooding_var_pass(std::span<const float> llr, int weight,
                       const int* var_slot, const int* var_check,
                       const float* __restrict r, float* __restrict q,
                       std::uint8_t* codeword, std::uint8_t* syndrome,
                       int& unsatisfied) {
  const int w = kWeight > 0 ? kWeight : weight;
  for (std::size_t v = 0; v < llr.size(); ++v) {
    const int* slots = var_slot + v * std::size_t(w);
    float total = llr[v];
#pragma GCC unroll 4
    for (int i = 0; i < w; ++i) {
      total += r[slots[i]];
    }
#pragma GCC unroll 4
    for (int i = 0; i < w; ++i) {
      q[slots[i]] = total - r[slots[i]];
    }
    const std::uint8_t bit = total < 0.0F ? 1 : 0;
    if (bit != codeword[v]) {
      codeword[v] = bit;
      flip_bit(int(v), w, var_check, syndrome, unsatisfied);
    }
  }
}

}  // namespace

LdpcCode::LdpcCode(int n, int m, std::uint64_t seed, int wc)
    : n_(n), m_(m), k_(0), wc_(wc) {
  if (n <= 0 || m <= 0 || m >= n || wc < 2) {
    throw std::invalid_argument{"LdpcCode: bad parameters"};
  }
  std::mt19937_64 rng{seed};

  // --- Build a (near-)regular parity-check matrix via the permutation
  // construction: each of the n*wc column sockets is matched to a check
  // socket; checks get degree ~ n*wc/m.
  const int total_edges = n * wc;
  std::vector<int> sockets;
  sockets.reserve(std::size_t(total_edges));
  for (int e = 0; e < total_edges; ++e) {
    sockets.push_back(e % m);
  }
  std::shuffle(sockets.begin(), sockets.end(), rng);

  std::vector<std::vector<int>> col_rows{std::size_t(n)};
  int cursor = 0;
  for (int c = 0; c < n; ++c) {
    auto& rows = col_rows[std::size_t(c)];
    for (int j = 0; j < wc; ++j) {
      int row = sockets[std::size_t(cursor + j)];
      // Resolve duplicates within a column by swapping with a random
      // later socket (keeps the degree distribution intact).
      int guard = 0;
      while (std::find(rows.begin(), rows.end(), row) != rows.end() &&
             guard < 64) {
        const auto swap_with =
            cursor + wc +
            int(rng() % std::uint64_t(std::max(1, total_edges - cursor - wc)));
        if (swap_with < total_edges) {
          std::swap(sockets[std::size_t(cursor + j)],
                    sockets[std::size_t(swap_with)]);
          row = sockets[std::size_t(cursor + j)];
        }
        ++guard;
      }
      rows.push_back(row);
    }
    cursor += wc;
  }

  // Per-check variable lists (construction scratch; the decoder works
  // off the flat SoA arrays built below).
  std::vector<std::vector<int>> check_vars{std::size_t(m)};
  for (int c = 0; c < n; ++c) {
    for (const int row : col_rows[std::size_t(c)]) {
      check_vars[std::size_t(row)].push_back(c);
    }
  }

  // Flatten the Tanner graph into SoA edge arrays: edges numbered by
  // (check, position), plus per-variable edge lists carrying each
  // edge's check (for the fused parity tracking) and lane-slab slot.
  check_edge_offset_.assign(std::size_t(m) + 1, 0);
  for (int c = 0; c < m; ++c) {
    const int deg = int(check_vars[std::size_t(c)].size());
    check_edge_offset_[std::size_t(c) + 1] =
        check_edge_offset_[std::size_t(c)] + deg;
    max_check_degree_ = std::max(max_check_degree_, deg);
  }
  num_edges_ = check_edge_offset_[std::size_t(m)];
  edge_var_.resize(std::size_t(num_edges_));
  std::vector<int> edge_check(static_cast<std::size_t>(num_edges_));
  for (int c = 0; c < m; ++c) {
    const auto& vars = check_vars[std::size_t(c)];
    const int base = check_edge_offset_[std::size_t(c)];
    for (std::size_t j = 0; j < vars.size(); ++j) {
      edge_var_[std::size_t(base) + j] = vars[j];
      edge_check[std::size_t(base) + j] = c;
    }
  }
  // Every column took exactly wc sockets, so variable v owns entries
  // [v * wc, (v + 1) * wc) of the per-variable lists. Filled in edge-id
  // order, the same order as the old vector<vector> build, so each
  // variable sees its edges in an identical order — the flooding
  // schedule's float-summation order (and thus every decode outcome)
  // is unchanged.
  std::vector<int> var_edges(static_cast<std::size_t>(num_edges_));
  std::vector<int> cursor_of_var(std::size_t(n), 0);
  for (int e = 0; e < num_edges_; ++e) {
    const auto v = std::size_t(edge_var_[std::size_t(e)]);
    var_edges[v * std::size_t(wc) + std::size_t(cursor_of_var[v]++)] = e;
  }

  // Check-lane slab for the flooding schedule (see ldpc.h): group g's
  // slot for (position, lane) is offset + position * 8 + lane.
  constexpr int kLanes = simd::kCheckLanes;
  const int groups = (m + kLanes - 1) / kLanes;
  lane_group_offset_.assign(std::size_t(groups) + 1, 0);
  std::vector<int> slot_of_edge(static_cast<std::size_t>(num_edges_));
  for (int g = 0; g < groups; ++g) {
    const auto degree = [&](int lane) {
      const int c = g * kLanes + lane;
      return c < m ? check_edge_offset_[std::size_t(c) + 1] -
                         check_edge_offset_[std::size_t(c)]
                   : 0;
    };
    int group_degree = 0;
    for (int lane = 0; lane < kLanes; ++lane) {
      group_degree = std::max(group_degree, degree(lane));
    }
    const int base = lane_group_offset_[std::size_t(g)];
    lane_group_offset_[std::size_t(g) + 1] = base + group_degree * kLanes;
    for (int lane = 0; lane < kLanes; ++lane) {
      for (int pos = 0; pos < group_degree; ++pos) {
        const int slot = base + pos * kLanes + lane;
        if (pos < degree(lane)) {
          const int c = g * kLanes + lane;
          slot_of_edge[std::size_t(check_edge_offset_[std::size_t(c)] +
                                   pos)] = slot;
        } else {
          pad_slots_.push_back(slot);
        }
      }
    }
  }
  var_check_.resize(std::size_t(num_edges_));
  var_slot_.resize(std::size_t(num_edges_));
  for (int i = 0; i < num_edges_; ++i) {
    const int e = var_edges[std::size_t(i)];
    var_check_[std::size_t(i)] = edge_check[std::size_t(e)];
    var_slot_[std::size_t(i)] = slot_of_edge[std::size_t(e)];
  }

  // --- Derive a systematic encoder by Gaussian elimination (RREF) on a
  // dense copy of H. Pivot columns become parity positions.
  std::vector<BitVector> rows(static_cast<std::size_t>(m),
                              BitVector(static_cast<std::size_t>(n)));
  for (int c = 0; c < m; ++c) {
    for (const int v : check_vars[std::size_t(c)]) {
      rows[std::size_t(c)].flip(std::size_t(v));  // flip handles dup edges
    }
  }

  std::vector<bool> is_pivot_col(std::size_t(n), false);
  std::vector<int> pivot_col_of_row;
  int rank = 0;
  for (int col = n - 1; col >= 0 && rank < m; --col) {
    // Pivot from the high columns so low columns stay as info positions.
    int pivot_row = -1;
    for (int r = rank; r < m; ++r) {
      if (rows[std::size_t(r)].get(std::size_t(col))) {
        pivot_row = r;
        break;
      }
    }
    if (pivot_row < 0) {
      continue;
    }
    std::swap(rows[std::size_t(rank)], rows[std::size_t(pivot_row)]);
    for (int r = 0; r < m; ++r) {
      if (r != rank && rows[std::size_t(r)].get(std::size_t(col))) {
        rows[std::size_t(r)] ^= rows[std::size_t(rank)];
      }
    }
    is_pivot_col[std::size_t(col)] = true;
    pivot_col_of_row.push_back(col);
    ++rank;
  }

  info_cols_.clear();
  for (int c = 0; c < n; ++c) {
    if (!is_pivot_col[std::size_t(c)]) {
      info_cols_.push_back(c);
    }
  }
  k_ = int(info_cols_.size());

  // Map each kept row to a parity equation over info-bit indices.
  std::vector<int> info_index_of_col(std::size_t(n), -1);
  for (std::size_t i = 0; i < info_cols_.size(); ++i) {
    info_index_of_col[std::size_t(info_cols_[i])] = int(i);
  }
  parity_cols_ = pivot_col_of_row;
  parity_masks_.clear();
  parity_masks_.reserve(std::size_t(rank));
  for (int r = 0; r < rank; ++r) {
    BitVector mask(static_cast<std::size_t>(k_));
    for (int c = 0; c < n; ++c) {
      if (c != parity_cols_[std::size_t(r)] &&
          rows[std::size_t(r)].get(std::size_t(c))) {
        const int idx = info_index_of_col[std::size_t(c)];
        if (idx < 0) {
          throw std::logic_error{"LdpcCode: non-pivot RREF residue"};
        }
        mask.flip(std::size_t(idx));
      }
    }
    parity_masks_.push_back(std::move(mask));
  }
}

std::vector<std::uint8_t> LdpcCode::encode(
    std::span<const std::uint8_t> info_bits) const {
  if (int(info_bits.size()) != k_) {
    throw std::invalid_argument{"LdpcCode::encode: wrong info length"};
  }
  BitVector u(static_cast<std::size_t>(k_));
  for (int i = 0; i < k_; ++i) {
    if (info_bits[std::size_t(i)] & 1U) {
      u.set(std::size_t(i), true);
    }
  }
  std::vector<std::uint8_t> cw(std::size_t(n_), 0);
  for (int i = 0; i < k_; ++i) {
    cw[std::size_t(info_cols_[std::size_t(i)])] = info_bits[std::size_t(i)] & 1U;
  }
  for (std::size_t r = 0; r < parity_masks_.size(); ++r) {
    cw[std::size_t(parity_cols_[r])] =
        parity_masks_[r].dot(u) ? 1 : 0;
  }
  return cw;
}

std::vector<std::uint8_t> LdpcCode::extract_info(
    std::span<const std::uint8_t> codeword) const {
  std::vector<std::uint8_t> info;
  extract_info_into(codeword, info);
  return info;
}

void LdpcCode::extract_info_into(std::span<const std::uint8_t> codeword,
                                 std::vector<std::uint8_t>& out) const {
  out.resize(static_cast<std::size_t>(k_));
  for (int i = 0; i < k_; ++i) {
    out[std::size_t(i)] = codeword[std::size_t(info_cols_[std::size_t(i)])] & 1U;
  }
}

std::span<const int> LdpcCode::check_vars(int c) const {
  const int begin = check_edge_offset_[std::size_t(c)];
  const int end = check_edge_offset_[std::size_t(c) + 1];
  return {edge_var_.data() + begin, std::size_t(end - begin)};
}

bool LdpcCode::check_parity(std::span<const std::uint8_t> cw) const {
  for (int c = 0; c < m_; ++c) {
    unsigned parity = 0;
    for (int e = check_edge_offset_[std::size_t(c)];
         e < check_edge_offset_[std::size_t(c) + 1]; ++e) {
      parity ^= cw[std::size_t(edge_var_[std::size_t(e)])] & 1U;
    }
    if (parity != 0) {
      return false;
    }
  }
  return true;
}

LdpcCode::DecodeStatus LdpcCode::decode_into(std::span<const float> llr,
                                             int max_iterations,
                                             DecodeWorkspace& ws,
                                             LdpcSchedule schedule) const {
  // SIMD-dispatched check-node kernels; bit-exact against the scalar
  // reference at every level (see phy/simd.h), so decode outcomes —
  // and the golden trace that pins them — don't depend on the CPU.
  return decode_into(llr, max_iterations, ws, schedule, simd::kernels());
}

LdpcCode::DecodeStatus LdpcCode::decode_into(
    std::span<const float> llr, int max_iterations, DecodeWorkspace& ws,
    LdpcSchedule schedule, const simd::Kernels& kernels) const {
  if (int(llr.size()) != n_) {
    throw std::invalid_argument{"LdpcCode::decode: wrong LLR length"};
  }
  // Both schedules start from the channel hard decisions and their
  // exact syndrome; flip_bit() keeps the syndrome and the
  // unsatisfied-check count exact from then on.
  ws.codeword.resize(std::size_t(n_));
  for (int v = 0; v < n_; ++v) {
    ws.codeword[std::size_t(v)] = llr[std::size_t(v)] < 0.0F ? 1 : 0;
  }
  ws.syndrome.resize(std::size_t(m_));
  int unsatisfied = 0;
  for (int c = 0; c < m_; ++c) {
    std::uint8_t parity = 0;
    for (int e = check_edge_offset_[std::size_t(c)];
         e < check_edge_offset_[std::size_t(c) + 1]; ++e) {
      parity ^= ws.codeword[std::size_t(edge_var_[std::size_t(e)])];
    }
    ws.syndrome[std::size_t(c)] = parity;
    unsatisfied += parity;
  }

  DecodeStatus status;
  if (max_iterations <= 0) {
    status.parity_ok = unsatisfied == 0;
    return status;
  }

  if (schedule == LdpcSchedule::kFlooding) {
    if (unsatisfied == 0) {
      // Zero syndrome: iteration 1 provably returns these hard
      // decisions (see ldpc.h), so report it without passing a message.
      status.parity_ok = true;
      status.iterations_used = 1;
      return status;
    }
    // Channel LLRs into every real slot of the check-lane slab; pad
    // slots hold kMinSumPad and the variable pass never writes them.
    const auto slab = std::size_t(lane_group_offset_.back());
    ws.var_to_check.resize(slab);
    ws.check_to_var.resize(slab);
    float* const q = ws.var_to_check.data();
    float* const r = ws.check_to_var.data();
    for (const int slot : pad_slots_) {
      q[slot] = simd::kMinSumPad;
    }
    const int* slot = var_slot_.data();
    for (const float channel : llr) {
      for (int i = 0; i < wc_; ++i) {
        q[*slot++] = channel;
      }
    }
    const std::size_t groups = lane_group_offset_.size() - 1;

    for (int iter = 1; iter <= max_iterations; ++iter) {
      // Check-node update (normalized min-sum with exclusion), eight
      // checks per call.
      for (std::size_t g = 0; g < groups; ++g) {
        const int base = lane_group_offset_[g];
        const int deg = (lane_group_offset_[g + 1] - base) / simd::kCheckLanes;
        kernels.cn_minsum_lanes(q + base, r + base, deg, kMinSumScale);
      }

      // Variable-node update; parity tracked on the fly as hard
      // decisions flip.
      (wc_ == 3 ? flooding_var_pass<3> : flooding_var_pass<0>)(
          llr, wc_, var_slot_.data(), var_check_.data(), r, q,
          ws.codeword.data(), ws.syndrome.data(), unsatisfied);

      status.iterations_used = iter;
      if (unsatisfied == 0) {
        status.parity_ok = true;
        return status;
      }
    }
    return status;
  }

  // --- Layered (serial-C) schedule: each check updates against the
  // live posterior, so beliefs propagate within an iteration.
  ws.posterior.assign(llr.begin(), llr.end());
  ws.check_to_var.assign(std::size_t(num_edges_), 0.0F);
  ws.layer_q.resize(std::size_t(max_check_degree_));
  ws.layer_r.resize(std::size_t(max_check_degree_));

  for (int iter = 1; iter <= max_iterations; ++iter) {
    for (int c = 0; c < m_; ++c) {
      const int base = check_edge_offset_[std::size_t(c)];
      const int deg = check_edge_offset_[std::size_t(c) + 1] - base;
      // Gather this check's inputs from the live posterior, run the
      // min-sum kernel, then commit messages/posterior/bit flips.
      for (int j = 0; j < deg; ++j) {
        const int e = base + j;
        ws.layer_q[std::size_t(j)] =
            ws.posterior[std::size_t(edge_var_[std::size_t(e)])] -
            ws.check_to_var[std::size_t(e)];
      }
      kernels.cn_minsum(ws.layer_q.data(), ws.layer_r.data(), deg,
                        kMinSumScale);
      for (int j = 0; j < deg; ++j) {
        const int e = base + j;
        const int v = edge_var_[std::size_t(e)];
        const float q = ws.layer_q[std::size_t(j)];
        const float r = ws.layer_r[std::size_t(j)];
        ws.check_to_var[std::size_t(e)] = r;
        const float post = q + r;
        ws.posterior[std::size_t(v)] = post;
        const std::uint8_t bit = post < 0.0F ? 1 : 0;
        if (bit != ws.codeword[std::size_t(v)]) {
          ws.codeword[std::size_t(v)] = bit;
          flip_bit(v, wc_, var_check_.data(), ws.syndrome.data(),
                   unsatisfied);
        }
      }
    }
    status.iterations_used = iter;
    if (unsatisfied == 0) {
      status.parity_ok = true;
      return status;
    }
  }
  return status;
}

LdpcCode::DecodeResult LdpcCode::decode(std::span<const float> llr,
                                        int max_iterations) const {
  thread_local DecodeWorkspace ws;
  const auto status = decode_into(llr, max_iterations, ws);
  DecodeResult result;
  result.codeword = ws.codeword;
  result.parity_ok = status.parity_ok;
  result.iterations_used = status.iterations_used;
  return result;
}

const LdpcCode& LdpcCode::standard() {
  // n = 648, m = 324, rate ~1/2 (like the 802.11n short code size).
  static const LdpcCode code{648, 324, /*seed=*/0x5D1A9C0DEULL};
  return code;
}

}  // namespace slingshot
