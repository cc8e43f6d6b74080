// Shard coordinator: the sequenced "control island" of the sharded
// multi-cell testbed (see sim/sharded.h and testbed/sharded_testbed.h).
//
// Each cell island runs its own complete vRAN stack — switch, L2,
// Orion, standby-pool slice — so intra-cell resilience (detection,
// failover, drain) never crosses an island boundary. What does cross is
// the fleet-level view the paper's deployment note implies: a global
// operator watching failure episodes everywhere and keeping the shared
// spare inventory topped up. The coordinator is that operator. It is
// not a Simulator: it executes only at window barriers, consuming
// control messages in the mailbox's deterministic (source island, seq)
// order, so its counters and every grant it issues are bit-identical at
// any shard count.
//
// Replenish loop: when an island reports a consumed pool member (a
// failover promoted its standby to primary), the coordinator spends one
// global spare — if any remain — and schedules a replacement on that
// island after `boot_delay` (process start + §6.3 init replay), via the
// grant action the testbed wires to post_event_from_control. The island
// then revives its dead PHY as a fresh pool standby, restoring
// protection; the resulting kMemberRestored report closes the loop.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.h"
#include "sim/sharded.h"

namespace slingshot {

// Control-message vocabulary the sharded testbed posts through the
// mailbox (ControlMsg::kind; payload word `a` carries the PhyId value).
enum class ShardCtrlKind : std::uint32_t {
  kFailureEpisode = 1,  // in-switch detector fired for a watched PHY
  kPoolConsumed = 2,    // failover consumed a pool standby
  kPoolExhausted = 3,   // a cell needed a member and none was available
  kMemberDead = 4,      // a pool standby itself failed
  kMemberRestored = 5,  // a member (re)joined the island's pool
};

struct ShardCoordStats {
  std::uint64_t episodes = 0;          // kFailureEpisode received
  std::uint64_t consumed = 0;          // kPoolConsumed received
  std::uint64_t exhausted = 0;         // kPoolExhausted received
  std::uint64_t member_deaths = 0;     // kMemberDead received
  std::uint64_t restored = 0;          // kMemberRestored received
  std::uint64_t grants_issued = 0;     // spares spent on replenishment
  std::uint64_t grants_declined = 0;   // consumption with no spare left
};

class ShardCoordinator {
 public:
  struct Config {
    // Global replacement inventory shared by all islands.
    int spares = 0;
    // Virtual time from grant to the replacement joining the pool:
    // process boot plus the same watch-arming grace the testbed uses.
    Nanos boot_delay = 5'000'000;
  };

  explicit ShardCoordinator(Config config)
      : config_(config), spares_(config.spares) {}

  // Mailbox sink — wire as
  //   engine.set_control_sink([&](const ControlMsg& m) {
  //     coord.on_control(m); });
  // Runs at barriers only; messages arrive in (src island, seq) order.
  void on_control(const ControlMsg& msg);

  // Invoked inside on_control when a spare is granted to `island`; the
  // testbed schedules the island-side revive at virtual time `at` via
  // ShardedSimulator::post_event_from_control.
  void set_grant_action(std::function<void(int island, Nanos at)> action) {
    grant_ = std::move(action);
  }

  [[nodiscard]] const ShardCoordStats& stats() const { return stats_; }
  [[nodiscard]] int spares_left() const { return spares_; }

 private:
  Config config_;
  int spares_;
  std::function<void(int, Nanos)> grant_;
  ShardCoordStats stats_;
};

}  // namespace slingshot
