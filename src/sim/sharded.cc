#include "sim/sharded.h"

#include <algorithm>
#include <stdexcept>

namespace slingshot {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kFnvSeed = 1469598103934665603ULL;
}  // namespace

ShardedSimulator::ShardedSimulator(Config config) : config_(config) {
  if (config_.window <= 0) {
    throw std::invalid_argument{"ShardedSimulator: non-positive window"};
  }
  if (config_.shards < 1) {
    config_.shards = 1;
  }
  if (config_.shards > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.shards);
  }
}

ShardedSimulator::~ShardedSimulator() = default;

int ShardedSimulator::add_island(Simulator* sim) {
  if (windows_ > 0) {
    throw std::logic_error{"ShardedSimulator: add_island after run"};
  }
  islands_.push_back(sim);
  outboxes_.emplace_back();
  return int(islands_.size()) - 1;
}

void ShardedSimulator::set_control_sink(
    std::function<void(const ControlMsg&)> sink) {
  control_sink_ = std::move(sink);
}

void ShardedSimulator::post_event(int src, int dst, Nanos not_before,
                                  InlineCallback fn) {
  Outbox& outbox = outboxes_.at(std::size_t(src));
  outbox.events.push_back(
      EventMsg{outbox.next_seq++, dst, not_before, std::move(fn)});
}

void ShardedSimulator::post_control(ControlMsg msg) {
  Outbox& outbox = outboxes_.at(std::size_t(msg.src_island));
  outbox.ctrl.push_back(SeqControlMsg{outbox.next_seq++, msg});
}

void ShardedSimulator::post_event_from_control(int dst, Nanos not_before,
                                               InlineCallback fn) {
  control_outbox_.events.push_back(EventMsg{control_outbox_.next_seq++, dst,
                                            not_before, std::move(fn)});
}

void ShardedSimulator::run_until(Nanos t_end) {
  while (now_ < t_end) {
    const Nanos w_end = std::min(now_ + config_.window, t_end);
    const std::size_t n = islands_.size();
    if (pool_ != nullptr && n > 1) {
      // Which worker runs which island is scheduling noise: islands
      // share no mutable state, and outbox writes are published to the
      // coordinating thread by the parallel_for join (the barrier).
      auto body = [&](std::size_t i) { islands_[i]->run_until(w_end); };
      pool_->parallel_for(n, body);
    } else {
      for (Simulator* island : islands_) {
        island->run_until(w_end);
      }
    }
    now_ = w_end;
    ++windows_;
    drain_barrier(w_end);
  }
}

void ShardedSimulator::drain_barrier(Nanos w_end) {
  // Phase 1: control messages, ascending (src island, seq). Outboxes
  // are appended in seq order, so per-source vectors are pre-sorted and
  // the global order is just source-major iteration. The sink may post
  // island-bound events; they land in the control outbox and are
  // sequenced after every island's events in phase 2.
  if (control_sink_) {
    for (Outbox& outbox : outboxes_) {
      for (SeqControlMsg& sc : outbox.ctrl) {
        ++ctrl_delivered_;
        control_sink_(sc.msg);
      }
    }
  }
  for (Outbox& outbox : outboxes_) {
    outbox.ctrl.clear();
  }
  // Phase 2: island-bound events, ascending (src island, seq), control
  // source last. Scheduling happens here on the coordinating thread, so
  // each destination's seq numbers — and with them its (time, seq)
  // trace — depend only on the posted messages, never on thread timing.
  for (Outbox& outbox : outboxes_) {
    deliver_events(outbox, w_end);
  }
  deliver_events(control_outbox_, w_end);
}

void ShardedSimulator::deliver_events(Outbox& outbox, Nanos w_end) {
  for (EventMsg& msg : outbox.events) {
    Simulator* dst = islands_.at(std::size_t(msg.dst));
    dst->at(std::max(w_end, msg.not_before), std::move(msg.fn));
    ++delivered_;
  }
  outbox.events.clear();
}

std::uint64_t ShardedSimulator::total_executed() const {
  std::uint64_t total = 0;
  for (const Simulator* island : islands_) {
    total += island->executed_events();
  }
  return total;
}

std::uint64_t ShardedSimulator::fingerprint() const {
  std::uint64_t h = kFnvSeed;
  for (const Simulator* island : islands_) {
    h = (h ^ island->trace_hash()) * kFnvPrime;
    h = (h ^ island->executed_events()) * kFnvPrime;
  }
  return h;
}

}  // namespace slingshot
