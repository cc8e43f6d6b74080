#include "core/orion_core.h"

#include <algorithm>
#include <iterator>

#include "common/log.h"

namespace slingshot {

namespace {
// An indication older than this many slots is not proof of life: it may
// be a delayed datagram sent before the PHY actually died.
constexpr std::int64_t kRehabFreshnessSlots = 8;
}  // namespace

OrionCore::OrionCore(std::string name, OrionL2Config config)
    : name_(std::move(name)), config_(config) {}

void OrionCore::set_ru_phys(RuId ru, PhyId primary, PhyId secondary) {
  auto& state = rus_[ru.value()];
  state.ru = ru;
  state.primary = primary;
  state.secondary = secondary;
  state.previous_until_slot = -1;
}

void OrionCore::set_ru_primary(RuId ru, PhyId primary) {
  pool_mode_ = true;
  auto& state = rus_[ru.value()];
  state.ru = ru;
  state.primary = primary;
  state.secondary = PhyId{};
  state.previous_until_slot = -1;
  const PhyId next = next_pool_standby();
  if (next != PhyId{}) {
    assign_standby(state, next);
  }
}

void OrionCore::add_pool_standby(PhyId phy) {
  pool_mode_ = true;
  bool known = false;
  for (auto& m : pool_) {
    if (m.id == phy) {
      m.state = PoolState::kAvailable;  // revived member rejoins the pool
      known = true;
    }
  }
  if (!known) {
    pool_.push_back(PoolMember{phy, PoolState::kAvailable});
  }
  // A returning member ends the episode of every RU that already swapped
  // away from it: the standby slots it fills get their null feed now,
  // not after a spurious rehabilitation.
  for (auto& [ru_value, state] : rus_) {
    if (state.failed_phy == phy && state.primary != phy) {
      state.failed_phy = PhyId{};
    }
  }
  notify_pool(PoolEvent::kRestored, phy);
  // Deferred failovers first: an unprotected cell whose primary already
  // died has been waiting for exactly this — give it a member and
  // migrate now. Counted separately from notification-driven failovers
  // so the notification identity stays an identity.
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary != PhyId{} || state.boundary.has_value()) {
      continue;
    }
    if (state.failed_phy == PhyId{} || state.failed_phy != state.primary) {
      continue;
    }
    const PhyId next = next_pool_standby();
    if (next == PhyId{}) {
      break;
    }
    assign_standby(state, next);
    ++stats_.deferred_failovers_executed;
    initiate_failover(state, now(), /*deferred=*/true);
    consume_pool_member(next);
  }
  // Then refill empty secondary slots of cells whose primary is alive.
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary != PhyId{} || state.boundary.has_value()) {
      continue;
    }
    if (state.failed_phy != PhyId{} && state.failed_phy == state.primary) {
      continue;  // dead primary and pool already exhausted above
    }
    if (!refill_standby(state)) {
      break;
    }
  }
}

std::size_t OrionCore::pool_available() const {
  std::size_t n = 0;
  for (const auto& m : pool_) {
    n += m.state == PoolState::kAvailable ? 1 : 0;
  }
  return n;
}

PhyId OrionCore::next_pool_standby() const {
  for (const auto& m : pool_) {
    if (m.state != PoolState::kAvailable) {
      continue;
    }
    // A member that is (or is becoming) a primary is not a standby,
    // whatever its recorded state.
    bool is_primary = false;
    for (const auto& [ru_value, state] : rus_) {
      if (state.primary == m.id) {
        is_primary = true;
        break;
      }
    }
    if (!is_primary) {
      return m.id;
    }
  }
  return PhyId{};
}

void OrionCore::assign_standby(RuState& state, PhyId phy, bool arm_watch) {
  state.secondary = phy;
  // Replay the stored initialization sequence (§6.3): the new standby
  // may never have seen it, and a shared standby must hold PHY state for
  // every cell it backs.
  for (const auto& msg : state.init_messages) {
    send_to_phy(phy, msg);
  }
  if (arm_watch && now() > 0) {
    // A runtime assignment may hand us a cold member whose first
    // heartbeat is an init replay + one TTI away — longer than the
    // detector timeout.
    arm_watch_after_grace(phy);
  }
  if (tap_ != nullptr) {
    tap_->on_adopt(state.ru, phy);
  }
  trace(obs::ObsEvent::kAdoptStandby, phy.value(), current_slot());
}

bool OrionCore::refill_standby(RuState& state) {
  const PhyId next = next_pool_standby();
  if (next == PhyId{}) {
    return false;
  }
  assign_standby(state, next);
  ++stats_.standbys_reassigned;
  return true;
}

void OrionCore::consume_pool_member(PhyId phy) {
  if (!pool_mode_) {
    return;
  }
  for (auto& m : pool_) {
    if (m.id == phy && m.state == PoolState::kAvailable) {
      m.state = PoolState::kConsumed;
      notify_pool(PoolEvent::kConsumed, phy);
    }
  }
  // Re-point every other RU backed by this member: it is now (becoming)
  // someone's primary and can no longer absorb their failovers. RUs
  // with a pending boundary keep their target — their own swap path
  // resolves the slot.
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary != phy || state.boundary.has_value() ||
        state.primary == phy) {
      continue;
    }
    // The member keeps running (it is being promoted): stop the carriers
    // of the RUs it no longer backs, or their FAPI-starvation watchdogs
    // kill the whole process once the null feeds cease.
    send_to_phy(phy,
                FapiMessage{state.ru, current_slot(), StopRequest{state.ru}});
    state.secondary = PhyId{};
    if (!refill_standby(state)) {
      SLOG_WARN("orion", "%s ru=%u standby pool exhausted: cell unprotected",
                name_.c_str(), state.ru.value());
      notify_pool(PoolEvent::kExhausted, phy);
    }
  }
}

PhyId OrionCore::active_phy(RuId ru) const {
  const auto it = rus_.find(ru.value());
  return it == rus_.end() ? PhyId{} : it->second.primary;
}

PhyId OrionCore::standby_phy(RuId ru) const {
  const auto it = rus_.find(ru.value());
  return it == rus_.end() ? PhyId{} : it->second.secondary;
}

std::pair<PhyId, PhyId> OrionCore::route_for_slot(RuState& state,
                                                  std::int64_t slot) {
  if (state.boundary.has_value() && slot >= *state.boundary) {
    // The migration boundary is reached by the request stream: finalize
    // the swap. The old active keeps draining pipelined responses for
    // pre-boundary slots (Fig 7).
    state.previous = state.primary;
    state.previous_until_slot = *state.boundary;
    state.swap_wall_slot = current_slot();
    std::swap(state.primary, state.secondary);
    const std::int64_t boundary = state.previous_until_slot;
    state.boundary.reset();
    if (pool_mode_ && state.secondary != PhyId{} &&
        state.secondary == state.failed_phy) {
      // Failover swap: the slot vacated by the dead primary is refilled
      // from the shared pool (or left empty until a member returns).
      state.secondary = PhyId{};
      refill_standby(state);
    }
    SLOG_INFO("orion", "%s FAPI switched to phy=%u from slot %lld",
              name_.c_str(), state.primary.value(),
              static_cast<long long>(slot));
    if (tap_ != nullptr) {
      tap_->on_swap_finalized(state.ru, slot, state.primary, boundary);
    }
    trace(obs::ObsEvent::kSwapFinalized, state.primary.value(), boundary);
  }
  return {state.primary, state.secondary};
}

void OrionCore::on_fapi(FapiMessage&& msg) {
  auto it = rus_.find(msg.ru.value());
  if (it == rus_.end()) {
    return;  // RU not managed by this Orion
  }
  auto& state = it->second;

  switch (msg.type()) {
    case FapiMsgType::kConfigRequest:
    case FapiMsgType::kStartRequest:
      // Intercept and store initialization messages (§6.3); send to
      // both the primary and the hot standby.
      state.init_messages.push_back(msg);
      [[fallthrough]];
    case FapiMsgType::kStopRequest:
      send_to_phy(state.primary, msg);
      if (state.secondary != state.failed_phy) {
        send_to_phy(state.secondary, msg);
      }
      return;
    case FapiMsgType::kDlTtiRequest:
    case FapiMsgType::kUlTtiRequest: {
      const bool is_dl = msg.type() == FapiMsgType::kDlTtiRequest;
      const auto [real, standby] = route_for_slot(state, msg.slot);
      ++stats_.real_requests_forwarded;
      if (!is_dl) {
        trace_stage(obs::SlotStage::kOrionForward, msg.ru.value(), msg.slot);
      }
      send_to_phy(real, msg);
      if (standby == state.failed_phy || standby == PhyId{}) {
        // Consumed by a failover (or the pool is exhausted): nothing
        // flows to it until a replacement standby is adopted.
        return;
      }
      if (config_.standby_mode == StandbyMode::kDuplicate) {
        send_to_phy(standby, msg);  // strawman: standby does real work
      } else {
        const auto null_msg = is_dl ? make_null_dl_tti(msg.ru, msg.slot)
                                    : make_null_ul_tti(msg.ru, msg.slot);
        ++stats_.null_requests_sent;
        stats_.fapi_bytes_to_standby += serialized_fapi_size(null_msg);
        send_to_phy(standby, null_msg);
      }
      return;
    }
    case FapiMsgType::kTxDataRequest: {
      const auto [real, standby] = route_for_slot(state, msg.slot);
      ++stats_.real_requests_forwarded;
      send_to_phy(real, msg);
      if (config_.standby_mode == StandbyMode::kDuplicate &&
          standby != state.failed_phy) {
        send_to_phy(standby, msg);
      }
      return;
    }
    default:
      return;
  }
}

void OrionCore::on_phy_indication(PhyId from, FapiMessage&& msg) {
  const auto it = rus_.find(msg.ru.value());
  if (it == rus_.end()) {
    return;
  }
  auto& state = it->second;

  // Close the Fig 7 drain window: the pipeline is only a couple of
  // slots deep, so responses from the old primary arriving long after
  // the swap are stale — expire the route state rather than letting a
  // later migration back to the same PHY wrongly accept them.
  if (state.previous_until_slot >= 0 && state.swap_wall_slot >= 0 &&
      current_slot() >= state.swap_wall_slot + config_.drain_window_slots) {
    ++stats_.drain_windows_expired;
    trace(obs::ObsEvent::kDrainExpired, state.previous.value(),
          state.previous_until_slot);
    state.previous = PhyId{};
    state.previous_until_slot = -1;
    state.swap_wall_slot = -1;
  }

  // False-positive failover recovery: a *fresh* indication from the PHY
  // we failed away from proves the process is alive — the detector
  // tripped on lost heartbeats, not a dead PHY. Refill the standby slot
  // (its keepalive feed resumes) instead of starving a healthy process
  // to death. Staleness-guarded so delayed datagrams from before a real
  // crash cannot resurrect a corpse.
  if (state.failed_phy == from &&
      current_slot() - msg.slot <= kRehabFreshnessSlots) {
    for (auto& [other_ru, other_state] : rus_) {
      if (other_state.failed_phy == from) {
        other_state.failed_phy = PhyId{};
        ++stats_.rehabilitations;
        if (tap_ != nullptr) {
          tap_->on_rehabilitate(RuId{other_ru}, from);
        }
        trace(obs::ObsEvent::kRehabilitated, from.value(), msg.slot);
      }
    }
    SLOG_WARN("orion",
              "%s false-positive failover: phy %u is alive, standby feed "
              "resumes",
              name_.c_str(), from.value());
  }

  bool forward = false;
  bool drained = false;
  if (from == state.primary) {
    forward = true;
  } else if (from == state.previous && state.previous_until_slot >= 0 &&
             msg.slot < state.previous_until_slot) {
    // Pipelined uplink results from the pre-migration primary (Fig 7).
    forward = true;
    drained = true;
  }

  if (tap_ != nullptr) {
    tap_->on_indication(from, msg, forward, drained,
                        state.previous_until_slot);
  }
  if (!forward) {
    ++stats_.standby_responses_dropped;
    return;
  }
  if (drained) {
    ++stats_.drained_responses_accepted;
    trace(obs::ObsEvent::kDrainAccepted, from.value(), msg.slot);
  }
  ++stats_.responses_forwarded;
  send_to_l2(std::move(msg));
}

void OrionCore::migrate(RuId ru, std::int64_t boundary_slot) {
  auto it = rus_.find(ru.value());
  if (it == rus_.end()) {
    return;
  }
  auto& state = it->second;
  begin_migration(state, MigrationEvent::Kind::kPlanned, boundary_slot, 0);
  trace(obs::ObsEvent::kPlannedMigration, state.secondary.value(),
        boundary_slot);
  SLOG_INFO("orion", "%s planned migration ru=%u phy %u -> %u at slot %lld",
            name_.c_str(), ru.value(), state.primary.value(),
            state.secondary.value(), static_cast<long long>(boundary_slot));
}

void OrionCore::begin_migration(RuState& state, MigrationEvent::Kind kind,
                                std::int64_t boundary, Nanos notified_at) {
  state.boundary = boundary;
  send_migrate_cmd(state.ru, state.secondary, boundary);
  const MigrationEvent event{kind,     state.ru, state.primary, state.secondary,
                             boundary, now(),    notified_at};
  migration_log_.push_back(event);
  if (tap_ != nullptr) {
    tap_->on_migration(event);
  }
}

void OrionCore::initiate_failover(RuState& state, Nanos notified_at,
                                  bool deferred) {
  // Pick the earliest boundary that the request stream has not yet
  // passed, and steer both the FAPI and the fronthaul there.
  const std::int64_t boundary = current_slot() + config_.failover_margin_slots;
  begin_migration(state, MigrationEvent::Kind::kFailover, boundary,
                  notified_at);
  trace(obs::ObsEvent::kFailoverInitiated, state.failed_phy.value(), boundary);
  SLOG_WARN("orion",
            "%s %sFAILOVER ru=%u phy %u -> %u at slot %lld (notified %.3f ms)",
            name_.c_str(), deferred ? "DEFERRED " : "",
            state.ru.value(), state.primary.value(),
            state.secondary.value(), static_cast<long long>(boundary),
            to_millis(notified_at));
}

void OrionCore::on_failure_notification(PhyId failed) {
  ++stats_.failure_notifications;
  trace(obs::ObsEvent::kNotifyReceived, failed.value(), current_slot());
  const Nanos notified_at = now();
  bool any_failover = false;
  bool any_duplicate = false;
  bool any_unprotected = false;
  std::vector<PhyId> promoted;
  for (auto& [ru_value, state] : rus_) {
    // A notification for a phy this RU already failed away from is a
    // re-delivery of a finished episode, not a new failure.
    if (state.failed_phy == failed) {
      any_duplicate = true;
    }
    if (state.primary != failed) {
      continue;
    }
    // Idempotence: the switch (or the network) can deliver the same
    // notification more than once. A failover for this RU is already
    // pending — re-running it would move the boundary later and log a
    // duplicate MigrationEvent.
    if (state.boundary.has_value()) {
      any_duplicate = true;
      continue;
    }
    if (state.failed_phy == failed) {
      continue;  // re-delivered unprotected episode, counted above
    }
    if (state.secondary == PhyId{} || state.secondary == state.failed_phy) {
      // No live standby: the pool was exhausted at failure time, or the
      // fixed pair's standby is the PHY an earlier episode failed away
      // from. Enter the explicit unprotected state — never a swap onto
      // a corpse. A pool cell stays down until add_pool_standby supplies
      // a member and executes the deferred failover.
      any_unprotected = true;
      SLOG_WARN("orion",
                "%s ru=%u UNPROTECTED: primary phy %u failed with no live "
                "standby",
                name_.c_str(), state.ru.value(), failed.value());
      if (state.secondary == PhyId{}) {
        state.failed_phy = failed;
        notify_pool(PoolEvent::kExhausted, failed);
      }
      continue;
    }
    any_failover = true;
    state.failed_phy = failed;
    if (std::find(promoted.begin(), promoted.end(), state.secondary) ==
        promoted.end()) {
      promoted.push_back(state.secondary);
    }
    initiate_failover(state, notified_at, /*deferred=*/false);
  }
  // A promotion consumes the pool member: every other RU backed by it
  // is re-pointed (next member or unprotected), never left aimed at a
  // standby that is becoming someone's primary.
  for (const PhyId p : promoted) {
    consume_pool_member(p);
  }
  if (any_failover) {
    ++stats_.failovers_initiated;
    // Stop the detector from watching the consumed PHY: stray heartbeats
    // from a half-dead process must not re-arm its failure detector.
    send_watch_cmd(failed, /*watch=*/false);
    // The detector must keep covering whoever now serves the RU — the
    // promoted standby may have been unwatched by an earlier episode.
    for (const PhyId p : promoted) {
      send_watch_cmd(p, /*watch=*/true);
    }
    return;
  }
  if (any_unprotected) {
    ++stats_.unprotected_notifications;
    return;
  }
  if (any_duplicate) {
    ++stats_.duplicate_notifications_ignored;
    return;
  }
  // Pool mode only: the dead PHY may be a *standby* (primary nowhere).
  // Mark the member dead and re-point every RU it backed — including a
  // mid-consume target (an RU with a pending boundary aimed at it),
  // which is redirected to the next member or falls back unprotected.
  if (pool_mode_) {
    bool standby_hit = false;
    for (auto& m : pool_) {
      if (m.id == failed && m.state != PoolState::kDead) {
        m.state = PoolState::kDead;
        standby_hit = true;
        notify_pool(PoolEvent::kMemberDead, failed);
      }
    }
    for (auto& [rv, state] : rus_) {
      if (state.secondary != failed || state.primary == failed) {
        continue;
      }
      standby_hit = true;
      state.secondary = PhyId{};
      // A failover target that died before the swap redirects the
      // pending migration — never swap onto a corpse.
      const bool redirect = state.boundary.has_value();
      state.boundary.reset();
      if (refill_standby(state)) {
        if (redirect) {
          initiate_failover(state, notified_at, /*deferred=*/false);
          consume_pool_member(state.secondary);
        }
      } else if (redirect) {
        SLOG_WARN("orion",
                  "%s ru=%u UNPROTECTED: failover target phy %u died "
                  "mid-consume with the pool exhausted",
                  name_.c_str(), state.ru.value(), failed.value());
      }
    }
    if (standby_hit) {
      ++stats_.standby_failures;
      return;
    }
  }
  ++stats_.stale_notifications_ignored;
}

void OrionCore::adopt_standby(RuId ru, PhyId phy) {
  auto it = rus_.find(ru.value());
  if (it == rus_.end()) {
    return;
  }
  auto& state = it->second;
  state.failed_phy = PhyId{};  // episode over: the slot is filled again
  assign_standby(state, phy, /*arm_watch=*/false);
  SLOG_INFO("orion", "%s adopted new standby phy=%u for ru=%u", name_.c_str(),
            phy.value(), ru.value());
}

void OrionCore::adopt_standby_all(PhyId phy) {
  if (pool_mode_) {
    add_pool_standby(phy);
    return;
  }
  // A PHY can be the standby of several RUs; each needs its own init
  // replay (the old per-RU adopt silently left the others cold).
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary == phy || state.failed_phy == phy) {
      adopt_standby(RuId{ru_value}, phy);
    }
  }
}

// ---------------------------------------------------------------------
// EpisodeRecorder
// ---------------------------------------------------------------------

const char* episode_event_name(EpisodeEventKind kind) {
  static constexpr const char* kNames[] = {
      "detected", "failover_initiated", "swap_finalized", "standby_adopted"};
  return std::size_t(kind) < std::size(kNames) ? kNames[std::size_t(kind)]
                                               : "?";
}

void EpisodeRecorder::record(EpisodeEventKind kind, RuId ru, PhyId phy,
                             Nanos at) {
  ledger_.push_back(
      EpisodeEvent{kind, ru, phy, core_.config().slots.slot_at(at), at});
}

void EpisodeRecorder::on_migration(const MigrationEvent& event) {
  if (event.kind != MigrationEvent::Kind::kFailover) {
    return;
  }
  record(EpisodeEventKind::kDetected, event.ru, event.from,
         event.notification_at);
  record(EpisodeEventKind::kFailoverInitiated, event.ru, event.from,
         event.initiated_at);
}

void EpisodeRecorder::on_swap_finalized(RuId ru, std::int64_t /*slot*/,
                                        PhyId new_primary,
                                        std::int64_t /*boundary_slot*/) {
  record(EpisodeEventKind::kSwapFinalized, ru, new_primary, core_.now());
}

void EpisodeRecorder::on_adopt(RuId ru, PhyId phy) {
  record(EpisodeEventKind::kStandbyAdopted, ru, phy, core_.now());
}

}  // namespace slingshot
