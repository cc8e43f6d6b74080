// Real-process deployment testbed: Orion, each PHY, and the L2 run as
// separate OS processes exchanging the existing FAPI wire format over
// real UDP sockets plus shared-memory rings for the IQ-heavy path, all
// paced by CLOCK_MONOTONIC TTIs instead of the simulator clock. This is
// the repo's answer to the paper's §8 hardware testbed: same protocol
// machinery (fapi/wire.h datagrams, null-FAPI hot standby, episode
// ledger), real kill -9 fault injection, wall-clock detection and
// restoration gaps.
//
// Two modes:
//   * fork mode (default) — the launcher opens every socket and maps
//     every ring *before* fork(), so children inherit the wiring with
//     no rendezvous; roles report results through key=value files in a
//     temp directory; the fault plan is a literal SIGKILL of the active
//     PHY's pid at the scripted wall slot.
//   * inproc mode (--inproc; CI-safe) — the same role loops run as
//     threads of one process; the kill becomes a freeze flag the PHY
//     role observes, which produces the identical external symptom
//     (its socket goes silent, datagrams queue unread).
//
// Conformance contract: for the same kill slot, the real run's episode
// ledger (kind, ru, phy sequence) must equal the simulator's — see
// run_sim_fault_plan()/ledgers_conform(). Both modes drive the same
// OrionCore and record with the same EpisodeRecorder, so a divergence
// is a transport or detector difference, never a second implementation.
// That is what licenses using the simulator's failover numbers as
// predictions for the real mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/real_orion.h"

namespace slingshot {

struct RealTestbedConfig {
  bool inproc = false;            // threads instead of processes
  std::int64_t tti_ns = 500'000;  // µ=1 slot, matching SlotConfig
  std::int64_t run_slots = 400;
  // L2-paced slot at which the active PHY is killed; < 0 = no fault.
  std::int64_t kill_slot = -1;
  std::int64_t detect_timeout_ns = 2'000'000;  // 4 slots of silence
  std::size_t num_phys = 2;
  std::size_t ring_bytes = std::size_t{1} << 16;
};

struct RealRunResult {
  bool ok = false;        // all roles launched, ran, and reported
  bool restored = false;  // CRC flow re-established by run end
  std::int64_t kill_wall_ns = -1;  // CLOCK_MONOTONIC instant of the kill
  // kDetected wall time minus the kill instant (-1 when no fault ran).
  std::int64_t detection_ns = -1;
  // Longest interruption of the L2's CRC-indication flow — the
  // user-visible outage the paper plots in §8.2 (-1 when no fault ran).
  std::int64_t outage_ns = -1;
  std::int64_t max_ind_gap_ns = 0;
  std::uint64_t l2_crcs = 0;
  std::uint64_t l2_rx_records = 0;  // RX_DATA records off the SHM ring
  std::uint64_t l2_error_inds = 0;
  std::uint64_t pacer_overruns = 0;
  std::int64_t last_crc_slot = -1;
  OrionL2Stats orion;  // the relay's decision-core counters
  // Times are wall ns since the pacing epoch (the core's clock).
  std::vector<EpisodeEvent> ledger;
  std::string error;  // non-empty iff a launch/collection step failed
};

class RealTestbed {
 public:
  explicit RealTestbed(RealTestbedConfig config) : config_(config) {}

  // Blocking: spawn the roles, execute the fault plan, reap everyone,
  // and assemble the measurements. Safe to call once per instance.
  RealRunResult run();

 private:
  RealTestbedConfig config_;
};

// Run the same scripted kill (kill_slot < 0: none) through the
// simulator testbed and record its episode ledger with the same
// EpisodeRecorder the real relay uses (sim timestamps are virtual; only
// the (kind, ru, phy) sequence is meaningful for conformance).
[[nodiscard]] std::vector<EpisodeEvent> run_sim_fault_plan(
    std::int64_t kill_slot);

// True when the two ledgers describe the same episode sequence:
// identical (kind, ru, phy) triples in identical order.
[[nodiscard]] bool ledgers_conform(const std::vector<EpisodeEvent>& lhs,
                                   const std::vector<EpisodeEvent>& rhs);

}  // namespace slingshot
