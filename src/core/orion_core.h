// OrionCore: every decision of the L2-side Orion (§6), with no transport.
//  * Hot standby via null FAPI (§6.2): real UL_TTI/DL_TTI go to the
//    active PHY, a null request for the same slot keeps the standby alive.
//  * Init interception (§6.3): CONFIG/START are stored and replayed to
//    both PHYs and to any replacement standby.
//  * Migration at a slot boundary B, with a migrate_on_slot command so
//    the RU's fronthaul moves at the same boundary; the old primary's
//    pipelined indications for slots < B still drain to the L2 (Fig 7).
//  * Failover: a failure notification triggers the same migration.
// The simulator's OrionL2Side (core/orion.h) and the real-process
// RealOrionRelay (core/real_orion.h) derive from it and supply only the
// virtual hooks; the core calls them in a fixed order, so an adapter's
// side effects (jitter draws, scheduled events) follow the decisions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fapi/channel.h"
#include "fapi/fapi.h"
#include "obs/trace.h"

namespace slingshot {

// Forwarding-cost model for Orion's transport (DPDK busy-polling in the
// paper): a fixed per-message cost plus a per-byte copy/serialize cost
// and an exponential tail. Reproduces the Fig 12 latency-vs-load shape.
struct OrionCostModel {
  Nanos base = 3'000;            // 3 µs fixed
  double per_byte_ns = 0.08;     // ~12 GB/s copy + serialize
  Nanos tail_mean = 1'500;       // exponential jitter tail
  double tail_per_byte_ns = 0.04;

  [[nodiscard]] Nanos sample(std::size_t bytes, RngStream& rng) const {
    const double mean =
        double(tail_mean) + tail_per_byte_ns * double(bytes);
    return base + Nanos(per_byte_ns * double(bytes)) +
           Nanos(rng.exponential(mean));
  }
};

// How the standby PHY is kept alive. kNullFapi is Slingshot's design
// (§6.2); kDuplicate is the strawman the paper rejects — it doubles the
// PHY compute bill (quantified in bench/abl_standby_modes).
enum class StandbyMode : std::uint8_t { kNullFapi, kDuplicate };

struct OrionL2Config {
  SlotConfig slots{};
  StandbyMode standby_mode = StandbyMode::kNullFapi;
  // Failover migration boundary margin: B = current_slot + margin.
  int failover_margin_slots = 2;
  // Fig 7 drain window: responses from the pre-migration primary are
  // accepted for this many slots after the swap, then the route state
  // expires (stale pipelines must not leak into later migrations).
  int drain_window_slots = 8;
  // ---- Simulator transport only ----
  OrionCostModel costs{};
  MacAddr switch_cmd_mac = MacAddr::broadcast();  // migrate_on_slot dst
  // ABLATION: artificial delay before the migrate_on_slot command takes
  // effect — models the naive design where the RU-to-PHY remap is a
  // switch *control-plane* rule update (milliseconds, §5.1) instead of
  // a data-plane register write.
  Nanos cmd_extra_delay = 0;
};

struct MigrationEvent {
  enum class Kind { kPlanned, kFailover };
  Kind kind = Kind::kPlanned;
  RuId ru;
  PhyId from;
  PhyId to;
  std::int64_t boundary_slot = 0;
  Nanos initiated_at = 0;       // when Orion decided to migrate
  Nanos notification_at = 0;    // failure notification arrival (failover)
};

// Observation tap for the core (src/inject's InvariantChecker and the
// EpisodeRecorder below attach here). Pure observer.
class OrionL2Tap {
 public:
  virtual ~OrionL2Tap() = default;
  // An indication from PHY `from` was forwarded to the L2 (or dropped).
  // `drained` means it was accepted from the pre-migration primary via
  // the Fig 7 drain path; `drain_boundary` is that path's slot bound.
  virtual void on_indication(PhyId /*from*/, const FapiMessage& /*msg*/,
                             bool /*forwarded*/, bool /*drained*/,
                             std::int64_t /*drain_boundary*/) {}
  // A migration (planned or failover) was initiated.
  virtual void on_migration(const MigrationEvent& /*event*/) {}
  // The request stream crossed the boundary; FAPI routing swapped.
  virtual void on_swap_finalized(RuId /*ru*/, std::int64_t /*slot*/,
                                 PhyId /*new_primary*/,
                                 std::int64_t /*boundary_slot*/) {}
  // A replacement standby was adopted (§6.3 init replay).
  virtual void on_adopt(RuId /*ru*/, PhyId /*phy*/) {}
  // A failed-over PHY proved itself alive (fresh indications after the
  // failure notification): the detection was a false positive and its
  // standby keepalive feed resumes.
  virtual void on_rehabilitate(RuId /*ru*/, PhyId /*phy*/) {}
};

struct OrionL2Stats {
  std::uint64_t real_requests_forwarded = 0;
  std::uint64_t null_requests_sent = 0;
  std::uint64_t responses_forwarded = 0;
  std::uint64_t standby_responses_dropped = 0;
  std::uint64_t drained_responses_accepted = 0;  // Fig 7 pipeline drain
  // Every failure notification increments failure_notifications and
  // exactly one outcome counter below: notification_identity_holds().
  std::uint64_t failure_notifications = 0;
  std::uint64_t failovers_initiated = 0;
  // Re-delivered notification for an episode still pending or already
  // executed (boundary set, or the phy is a known-failed standby slot).
  std::uint64_t duplicate_notifications_ignored = 0;
  // Notification for a phy that is primary nowhere and part of no
  // episode (e.g. raced with a planned migration).
  std::uint64_t stale_notifications_ignored = 0;
  // Fig 7 drain windows that expired with route state still held.
  std::uint64_t drain_windows_expired = 0;
  std::uint64_t rehabilitations = 0;  // false-positive failovers rescinded
  std::uint64_t fapi_bytes_to_standby = 0;  // §8.5 network overhead
  // Datagrams from a PHY peer that failed try_parse_fapi (each also
  // raised an ERROR.indication toward the L2).
  std::uint64_t parse_errors = 0;
  // ---- Standby-pool (N+K) extensions.
  // Notification for a primary whose pool is exhausted: the cell enters
  // an explicit "unprotected" state (no stale swap) until a standby is
  // added back, which then executes the failover.
  std::uint64_t unprotected_notifications = 0;
  // Notification for a PHY that is a pool standby (primary nowhere):
  // the member is marked dead and the RUs it backed are re-pointed.
  std::uint64_t standby_failures = 0;
  // Secondary slots refilled from the pool (after a member was consumed
  // by a promotion or died).
  std::uint64_t standbys_reassigned = 0;
  // Failovers executed when a standby arrived for an already-dead,
  // unprotected primary (counted here, not in failovers_initiated, so
  // the notification identity stays an identity).
  std::uint64_t deferred_failovers_executed = 0;

  // The notification identity, asserted by bench/abl_fault_matrix,
  // slingbench and the real-process testbed.
  [[nodiscard]] bool notification_identity_holds() const {
    return failure_notifications ==
           failovers_initiated + duplicate_notifications_ignored +
               stale_notifications_ignored + unprotected_notifications +
               standby_failures;
  }
};

// The failure-episode ledger both run modes report. Times and slots are
// on the core's clock: virtual in the simulator, wall time since the
// pacing epoch in the real-process mode.
enum class EpisodeEventKind : std::uint8_t {
  kDetected = 0,           // active PHY declared dead
  kFailoverInitiated = 1,  // migration toward the standby decided
  kSwapFinalized = 2,      // FAPI routing now targets the new primary
  kStandbyAdopted = 3,     // replacement standby wired in (§6.3)
};

[[nodiscard]] const char* episode_event_name(EpisodeEventKind kind);

struct EpisodeEvent {
  EpisodeEventKind kind = EpisodeEventKind::kDetected;
  RuId ru;
  PhyId phy;              // the PHY the event concerns
  std::int64_t slot = 0;  // slot the event happened in
  std::int64_t wall_ns = 0;
};

class OrionCore : public FapiSink {
 public:
  OrionCore(std::string name, OrionL2Config config);
  // Adapters hand `this` to transport callbacks.
  OrionCore(const OrionCore&) = delete;
  OrionCore& operator=(const OrionCore&) = delete;

  // ---- Wiring ----
  // Configure which PHYs serve an RU (fixed primary/secondary pair).
  void set_ru_phys(RuId ru, PhyId primary, PhyId secondary);

  // ---- Shared standby pool (N primaries backed by K hot standbys) ----
  // The paper's deployment note: secondaries need no dedicated servers —
  // one hot standby can back several primaries. Registering an RU with
  // set_ru_primary (instead of set_ru_phys) draws its secondary from the
  // pool; pool members are shared across RUs until a failover *consumes*
  // one (promotes it to primary), at which point every other RU backed
  // by it is re-pointed at the next available member — or enters an
  // explicit "unprotected" state if the pool is exhausted. Never a
  // stale swap onto an already-consumed standby.
  void add_pool_standby(PhyId phy);
  void set_ru_primary(RuId ru, PhyId primary);
  [[nodiscard]] bool pool_mode() const { return pool_mode_; }
  // Pool members currently available as failover targets.
  [[nodiscard]] std::size_t pool_available() const;

  // ---- Inputs ----
  // FapiSink: a request from the local L2.
  void on_fapi(FapiMessage&& msg) override;
  // An indication from PHY `from`.
  void on_phy_indication(PhyId from, FapiMessage&& msg);
  // A failure notification naming `failed`.
  void on_failure_notification(PhyId failed);

  // ---- Migration control (§6.3) ----
  // Planned migration of `ru` to its standby at slot `boundary`.
  void migrate(RuId ru, std::int64_t boundary_slot);
  // Replay stored init messages to a (new) standby PHY — used to bring
  // up a replacement secondary after a failover consumed the old one.
  void adopt_standby(RuId ru, PhyId phy);
  // Adopt a revived PHY as standby for *every* RU it backed (secondary
  // or failed slot) — a PHY can be the standby of several RUs, and each
  // needs its own init replay. In pool mode this returns the PHY to the
  // pool, which also executes any deferred failovers for unprotected
  // cells whose primary already died.
  void adopt_standby_all(PhyId phy);

  // ---- Pool lifecycle observation ----
  // Fired synchronously inside the Orion event that changed the pool —
  // an external pool manager (the shard coordinator of
  // core/shard_coord.h) mirrors the island's inventory from these
  // without polling. Observers must not mutate the Orion re-entrantly.
  enum class PoolEvent : std::uint8_t {
    kConsumed,    // failover promoted the member to someone's primary
    kExhausted,   // a cell needed a member and none was available
    kMemberDead,  // the standby itself failed
    kRestored,    // a member (re)joined via add_pool_standby
  };
  using PoolObserver = std::function<void(PoolEvent, PhyId)>;
  void set_pool_observer(PoolObserver observer) {
    pool_observer_ = std::move(observer);
  }

  // Attach an observation tap (invariant checking); nullptr detaches.
  void set_tap(OrionL2Tap* tap) { tap_ = tap; }

  [[nodiscard]] PhyId active_phy(RuId ru) const;
  [[nodiscard]] PhyId standby_phy(RuId ru) const;
  [[nodiscard]] const OrionL2Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<MigrationEvent>& migration_log() const {
    return migration_log_;
  }
  [[nodiscard]] const OrionL2Config& config() const { return config_; }

  // ---- Hooks: the core's only ways out ----
  // The core's clock (slot_at(now()) must name the L2's slot numbering).
  [[nodiscard]] virtual Nanos now() const = 0;

 protected:
  // Deliver a request to PHY `phy`.
  virtual void send_to_phy(PhyId phy, const FapiMessage& msg) = 0;
  // Deliver an indication to the L2.
  virtual void send_to_l2(FapiMessage&& msg) = 0;
  // Steer the RU's fronthaul to `dest` from `boundary_slot` on.
  virtual void send_migrate_cmd(RuId ru, PhyId dest,
                                std::int64_t boundary_slot) = 0;
  // Start (watch) or stop watching `phy` with the failure detector.
  virtual void send_watch_cmd(PhyId phy, bool watch) = 0;
  // Watch a freshly assigned standby once its heartbeats can flow.
  virtual void arm_watch_after_grace(PhyId phy) = 0;
  // Observability timeline / stage stamps.
  virtual void trace(obs::ObsEvent /*kind*/, std::uint8_t /*id*/,
                     std::int64_t /*slot*/) {}
  virtual void trace_stage(obs::SlotStage /*stage*/, std::uint8_t /*ru*/,
                           std::int64_t /*slot*/) {}

  std::string name_;
  OrionL2Config config_;
  OrionL2Stats stats_;

 private:
  struct RuState {
    RuId ru;
    PhyId primary;
    PhyId secondary;
    // Pending migration: requests for slots >= boundary go to the
    // secondary, which becomes the primary.
    std::optional<std::int64_t> boundary;
    // Previous primary (accepts drained responses for slots < boundary
    // for a short window after migration). Expires drain_window_slots
    // after the swap.
    PhyId previous;
    std::int64_t previous_until_slot = -1;
    std::int64_t swap_wall_slot = -1;  // wall slot the swap finalized at
    // A failover consumed this PHY; it gets no FAPI (not even nulls)
    // until adopt_standby replaces or re-adopts it (§6.3).
    PhyId failed_phy;
    // Stored initialization messages for standby replay (§6.3).
    std::vector<FapiMessage> init_messages;
  };

  // Shared-pool member lifecycle: available → consumed (promoted to
  // primary by a failover) or dead (the standby itself failed). A
  // revived PHY re-enters as available via add_pool_standby.
  enum class PoolState : std::uint8_t { kAvailable, kConsumed, kDead };
  struct PoolMember {
    PhyId id;
    PoolState state = PoolState::kAvailable;
  };

  [[nodiscard]] std::int64_t current_slot() const {
    return config_.slots.slot_at(now());
  }
  // Resolve who is real/standby for a request targeting `slot`,
  // finalizing the swap once the boundary has passed.
  [[nodiscard]] std::pair<PhyId, PhyId> route_for_slot(RuState& state,
                                                       std::int64_t slot);
  // Pool helpers (no-ops outside pool mode).
  [[nodiscard]] PhyId next_pool_standby() const;
  // Make `phy` the RU's standby and replay its init sequence;
  // `arm_watch` watches it after a grace period (runtime assignments).
  void assign_standby(RuState& state, PhyId phy, bool arm_watch = true);
  // Set the boundary, steer the fronthaul, log and tap the event.
  void begin_migration(RuState& state, MigrationEvent::Kind kind,
                       std::int64_t boundary, Nanos notified_at);
  // Fill the RU's empty standby slot from the pool (counted as a
  // reassignment); false when the pool is exhausted.
  bool refill_standby(RuState& state);
  void consume_pool_member(PhyId phy);
  void initiate_failover(RuState& state, Nanos notified_at, bool deferred);
  void notify_pool(PoolEvent event, PhyId phy) {
    if (pool_observer_) {
      pool_observer_(event, phy);
    }
  }

  std::map<std::uint8_t, RuState> rus_;
  bool pool_mode_ = false;
  std::vector<PoolMember> pool_;
  PoolObserver pool_observer_;
  OrionL2Tap* tap_ = nullptr;
  std::vector<MigrationEvent> migration_log_;
};

// The one OrionL2Tap -> EpisodeEvent recorder. It attaches itself to a
// core for its lifetime; the simulator's run_sim_fault_plan and the real
// relay both report the ledger it builds, so the sim<->real conformance
// check compares two runs of one decision core.
class EpisodeRecorder final : public OrionL2Tap {
 public:
  explicit EpisodeRecorder(OrionCore& core) : core_(core) {
    core_.set_tap(this);
  }
  ~EpisodeRecorder() override { core_.set_tap(nullptr); }
  EpisodeRecorder(const EpisodeRecorder&) = delete;
  EpisodeRecorder& operator=(const EpisodeRecorder&) = delete;

  void on_migration(const MigrationEvent& event) override;
  void on_swap_finalized(RuId ru, std::int64_t slot, PhyId new_primary,
                         std::int64_t boundary_slot) override;
  void on_adopt(RuId ru, PhyId phy) override;

  [[nodiscard]] const std::vector<EpisodeEvent>& ledger() const {
    return ledger_;
  }

 private:
  void record(EpisodeEventKind kind, RuId ru, PhyId phy, Nanos at);

  OrionCore& core_;
  std::vector<EpisodeEvent> ledger_;
};

}  // namespace slingshot
