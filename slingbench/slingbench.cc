// slingbench — the repository's end-to-end benchmark.
//
// One invocation runs one workload in its own process (so peak RSS
// belongs to that workload) and prints, as its last stdout line, one
// JSON object {correct, attempted, failed, metrics}:
//
//   --trace 0  the end-to-end metrics, from a fixed number of untraced
//              repetitions of the workload sized by --seconds (see
//              repetitions()); host metrics are medians over them.
//              Virtual metrics are deterministic for a seed and come
//              from the first repetition.
//   --trace 1  the per-layer metrics, from one traced pass: run_until
//              stepped one TTI at a time under host timers, the passive
//              obs::Observability tracer attached, FAPI pipe taps
//              recording the PDU geometry, and per-call probes of the
//              kernels on inputs shaped like the workload's.
//
// Everything is driven through public APIs (Testbed, ShardedTestbed,
// UdpFlow, component stats(), Simulator, obs, kernel functions); no
// tracing lives inside src/. See README.md in this directory for the
// workloads, the metric definitions and the layer -> end-to-end map.
//
// An "operation" is one workload run. A run fails when any output check
// fails; the process exits nonzero when any run failed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "channel/channel.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fapi/fapi.h"
#include "fronthaul/bfp.h"
#include "l2/bulk_schedule.h"
#include "obs/obs.h"
#include "phy/ldpc.h"
#include "phy/mcs.h"
#include "phy/simd.h"
#include "phy/tb_codec.h"
#include "sim/simulator.h"
#include "testbed/sharded_testbed.h"
#include "testbed/testbed.h"
#include "transport/apps.h"
#include "ue/ue_batch.h"

#ifndef SLINGBENCH_BUILD_TYPE
#define SLINGBENCH_BUILD_TYPE "unknown"
#endif

namespace slingshot::slingbench {
namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, double>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linearly interpolated q-quantile (common/stats.h); 0 without samples.
double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  PercentileTracker t;
  for (const double x : v) {
    t.add(x);
  }
  return t.quantile(q);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

// ---------------------------------------------------------------------
// Workload definitions.

// A single-testbed workload (fig10_failover, tab02_migration).
struct SingleSpec {
  double snr_db = 20.0;
  int ldpc_iters = 8;
  double dl_bps = 0.0;  // 0: no downlink flow
  double ul_bps = 0.0;
  Nanos warmup_end = 0;
  Nanos horizon = 0;
  Nanos kill_at = -1;         // primary-PHY fail-stop; -1: none
  Nanos migrate_period = 0;   // planned migrations; 0: none
};

struct FleetSpec {
  int cells = 16;
  int bulk_ues = 10'000;
  double snr_db = 20.0;
  double ul_bps = 4e6;
  Nanos warmup_end = 0;
  Nanos horizon = 0;
  Nanos kill_at = 0;  // cell 0's primary
};

SingleSpec fig10_spec(bool tiny) {
  SingleSpec s;
  s.snr_db = 21.0;
  s.dl_bps = 120e6;
  s.ul_bps = 15.8e6;
  s.warmup_end = 100_ms;
  s.horizon = tiny ? 600_ms : 10'000_ms;
  s.kill_at = tiny ? 300_ms : 2'000_ms;
  return s;
}

SingleSpec tab02_spec(bool tiny) {
  SingleSpec s;
  s.snr_db = 13.5;
  s.ldpc_iters = 4;
  s.ul_bps = 8e6;
  s.warmup_end = 500_ms;
  // 6 s of migrations at 20/s, ~0.4 s of host time: many short
  // repetitions per run give sim_speed_x a steady median.
  s.horizon = tiny ? 1'000_ms : 6'500_ms;
  s.migrate_period = 50_ms;
  return s;
}

FleetSpec fleet_spec(bool tiny) {
  FleetSpec s;
  s.warmup_end = 100_ms;
  s.horizon = tiny ? 400_ms : 1'900_ms;
  s.kill_at = tiny ? 250_ms : 1'000_ms;
  return s;
}

// ---------------------------------------------------------------------
// Run records.

// PDU geometry seen on the FAPI pipes into the PHYs (traced pass only):
// one (mcs, tb_bytes) sample per PDU, per direction.
struct Geometry {
  std::map<std::uint8_t, std::vector<double>> tb_bytes_by_mcs;

  void add(const TtiPdu& pdu) {
    tb_bytes_by_mcs[pdu.mcs].push_back(double(pdu.tb_bytes));
  }
  [[nodiscard]] bool empty() const { return tb_bytes_by_mcs.empty(); }
  // Most frequent MCS and the median TB size at that MCS.
  [[nodiscard]] std::pair<std::uint8_t, std::uint32_t> mode() const {
    std::uint8_t best = 0;
    std::size_t best_n = 0;
    for (const auto& [mcs, sizes] : tb_bytes_by_mcs) {
      if (sizes.size() > best_n) {
        best = mcs;
        best_n = sizes.size();
      }
    }
    const auto it = tb_bytes_by_mcs.find(best);
    return {best, it == tb_bytes_by_mcs.end()
                      ? 1U
                      : std::uint32_t(median(it->second))};
  }
};

// What a traced pass records on top of a plain run.
struct Tracing {
  std::vector<char> step_near_fault; // step within a kill/migration window
  std::vector<double> pending;       // sampled Simulator::pending_events()
  Geometry ul;                       // UL PDUs (tracer + bulk)
  Geometry dl;                       // non-bulk DL PDUs
  Counters obs_metrics;              // slot.* / core.* from the tracer
  bool spans_balanced = true;
  std::optional<UeBatchConfig> batch;  // island 0's batch (fleet)
};

struct Run {
  double construct_s = 0;
  double start_s = 0;
  double warmup_s = 0;
  double measure_s = 0;  // host seconds of the measured phase
  std::vector<double> segment_s;  // the same, per advance() segment
  double sim_s = 0;      // virtual seconds of the measured phase
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> island_hashes;
  Counters c;  // measured-phase counter deltas and virtual outcomes
  std::vector<std::string> violations;

  [[nodiscard]] double setup_s() const {
    return construct_s + start_s + warmup_s;
  }
};

// Drive the measured phase in back-to-back run_until segments, timing
// each: 10 ms of virtual time untraced, one TTI traced. Back-to-back
// segments preserve the (time, seq) event order, so the segmentation
// cannot change the trace fingerprint.
template <typename RunUntil, typename Pending>
void advance(Nanos from, Nanos to, Nanos tti, const std::vector<Nanos>& faults,
             Tracing* tr, std::vector<double>& segment_s, RunUntil&& run_until,
             Pending&& pending) {
  const Nanos step = tr != nullptr ? tti : 20 * tti;
  const Nanos fault_window = 20 * tti;
  std::size_t next_fault = 0;
  for (Nanos t = from + step; t - step < to; t += step) {
    const Nanos end = std::min(t, to);
    const auto h0 = Clock::now();
    run_until(end);
    segment_s.push_back(seconds_since(h0));
    if (tr == nullptr) {
      continue;
    }
    while (next_fault < faults.size() &&
           faults[next_fault] + fault_window < end) {
      ++next_fault;
    }
    const bool near = next_fault < faults.size() &&
                      end > faults[next_fault] &&
                      end <= faults[next_fault] + fault_window;
    tr->step_near_fault.push_back(near ? 1 : 0);
    tr->pending.push_back(double(pending()));
  }
}

// Sum a testbed's component counters into `c` (fleet islands accumulate
// into one map). Keys starting with '_' feed derived metrics only. Every
// workload testbed carries exactly one individually modeled UE.
void accumulate(Testbed& tb, Counters& c) {
  for (int p = 0; p < tb.num_phys(); ++p) {
    const PhyStats& s = tb.phy(p).stats();
    c["phy.ldpc_decodes"] += double(s.ul_tbs_decoded);
    c["phy.ldpc_iterations"] += double(s.decode_iterations);
    c["phy.null_slots"] += double(s.null_slots);
    c["phy.work_slots"] += double(s.work_slots);
    c["phy.harq_combines"] += double(s.harq_combines);
    c["_phy.ul_crc_ok"] += double(s.ul_crc_ok);
    c["_phy.dl_tbs_encoded"] += double(s.dl_tbs_encoded);
  }
  const UeStats& ue = tb.ue(0).stats();
  c["ue.dl_tbs"] += double(ue.dl_tbs_ok + ue.dl_tbs_failed);
  c["ue.ul_retransmissions"] += double(ue.ul_retransmissions);
  c["_ue.ul_transmissions"] += double(ue.ul_transmissions);
  c["rlf_events"] += double(ue.rlf_events);
  for (int cell = 0; cell < tb.num_cells(); ++cell) {
    if (UeBatch* b = tb.batch_at(cell); b != nullptr) {
      c["rlf_events"] += double(b->stats().rlf_events);
      c["_ue_batch.advance_calls"] += double(b->stats().advance_calls);
      c["_ue_batch.ul_sections"] += double(b->stats().ul_sections);
      c["l2.bulk_ul_pdus"] +=
          double(tb.l2().bulk_stats(b->config().schedule.cell).ul_pdus);
    }
  }
  const L2Stats& l2 = tb.l2().stats();
  c["l2.dl_tbs_scheduled"] += double(l2.dl_tbs_scheduled);
  c["l2.ul_tbs_granted"] += double(l2.ul_tbs_granted);
  c["l2.dl_retx"] += double(l2.dl_retx);
  c["l2.ul_retx"] += double(l2.ul_retx);
  c["l2.tbs_lost"] += double(l2.dl_tbs_lost + l2.ul_tbs_lost);

  const OrionL2Stats& o = tb.orion().stats();
  c["fapi.msgs"] += double(o.real_requests_forwarded + o.null_requests_sent +
                           o.responses_forwarded);
  c["orion.failovers"] +=
      double(o.failovers_initiated + o.deferred_failovers_executed);
  c["orion.null_requests"] += double(o.null_requests_sent);
  c["orion.standby_responses_dropped"] += double(o.standby_responses_dropped);
  c["orion.drained_accepted"] += double(o.drained_responses_accepted);
  c["orion.rehabilitations"] += double(o.rehabilitations);

  const FhMboxStats& m = tb.mbox().stats();
  c["mbox.ul_forwarded"] += double(m.ul_forwarded);
  c["mbox.dl_forwarded"] += double(m.dl_forwarded);
  c["mbox.dl_blocked"] += double(m.dl_blocked);
  c["mbox.migrations_executed"] += double(m.migrations_executed);
  c["mbox.failures_detected"] += double(m.failures_detected);

  c["switchsim.frames"] += double(tb.fabric().frames_processed());
  c["switchsim.generator_packets"] += double(tb.fabric().generator_packets());
}

Counters minus(Counters end, const Counters& start) {
  for (auto& [k, v] : end) {
    const auto it = start.find(k);
    if (it != start.end()) {
      v -= it->second;
    }
  }
  return end;
}

// Output checks that hold for every testbed, every run.
void check_orion_identity(Testbed& tb, const char* where,
                          std::vector<std::string>& violations) {
  const OrionL2Stats& o = tb.orion().stats();
  const auto accounted = o.failovers_initiated +
                         o.duplicate_notifications_ignored +
                         o.stale_notifications_ignored +
                         o.unprotected_notifications + o.standby_failures;
  if (o.failure_notifications != accounted) {
    violations.push_back(std::string("orion notification identity broken (") +
                         where + ")");
  }
}

void check_outcomes(Run& r) {
  if (r.c["dropped_ttis"] > 4) {
    r.violations.push_back("failed cell dropped " +
                           std::to_string(int(r.c["dropped_ttis"])) +
                           " TTIs (bound 4)");
  }
  if (r.c["collateral_dropped_ttis"] != 0) {
    r.violations.push_back("collateral TTI drops on untouched cells");
  }
}

// Every fault the workloads inject is a real kill, so any rehabilitation
// is a real failure misreported as a false positive.
void set_outcomes(Run& r, double ul_bytes, double dl_bytes) {
  r.c["ul_goodput_mbps"] = ul_bytes * 8.0 / r.sim_s / 1e6;
  r.c["dl_goodput_mbps"] = dl_bytes * 8.0 / r.sim_s / 1e6;
  r.c["false_rehabilitations"] = r.c["orion.rehabilitations"];
}

double flow_bytes(const UdpFlow* f) {
  if (f == nullptr) {
    return 0.0;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < f->goodput().num_bins(); ++i) {
    total += f->goodput().bin(i);
  }
  return total;
}

void tap_geometry(Testbed& tb, Tracing* tr) {
  if (tr == nullptr) {
    return;
  }
  for (int p = 0; p < tb.num_phys(); ++p) {
    if (ShmFapiPipe* pipe = tb.pipe_to_phy(p); pipe != nullptr) {
      pipe->set_tap([tr](const FapiMessage& msg) {
        if (const auto* ul = std::get_if<UlTtiRequest>(&msg.body)) {
          for (const auto& pdu : ul->pdus) {
            tr->ul.add(pdu);
          }
        } else if (const auto* dl = std::get_if<DlTtiRequest>(&msg.body)) {
          for (const auto& pdu : dl->pdus) {
            if (!is_bulk_ue(pdu.ue)) {
              tr->dl.add(pdu);
            }
          }
        }
      });
    }
  }
}

double us(Nanos d) { return double(d) / 1e3; }

// slot.* stage latencies and core.* episode timings from the tracer.
void read_tracer(obs::Observability& o, Tracing& tr) {
  o.finalize();
  obs::SlotTracer& t = o.tracer();
  tr.spans_balanced = t.spans_opened() == t.spans_closed();
  for (std::size_t l = 0;
       l < std::size_t(obs::SlotSpanLatency::kNumLatencies); ++l) {
    const auto lat = obs::SlotSpanLatency(l);
    const std::string name = obs::slot_span_latency_name(lat);
    auto& pct = t.latency_percentiles(lat);
    const double p50 = pct.count() > 0 ? pct.quantile(0.50) : 0.0;
    const double p99 = pct.count() > 0 ? pct.quantile(0.99) : 0.0;
    tr.obs_metrics["slot." + name + "_p50_us"] = p50;
    tr.obs_metrics["slot." + name + "_p99_us"] = p99;
  }
  tr.obs_metrics["slot.deadline_misses"] = double(t.deadline_misses());
  tr.obs_metrics["slot.unserved_slots"] = double(t.unserved_slots());
  double detect = 0;
  double notify = 0;
  double swap = 0;
  const auto episodes = t.failover_episodes();
  if (!episodes.empty()) {
    const auto& ep = episodes.front();
    if (ep.down_t >= 0 && ep.detect_t >= 0) {
      detect = us(ep.detect_t - ep.down_t);
    }
    if (ep.detect_t >= 0 && ep.notify_t >= 0) {
      notify = us(ep.notify_t - ep.detect_t);
    }
    if (ep.notify_t >= 0 && ep.swap_t >= 0) {
      swap = us(ep.swap_t - ep.notify_t);
    }
  }
  tr.obs_metrics["core.detect_us"] = detect;
  tr.obs_metrics["core.notify_us"] = notify;
  tr.obs_metrics["core.swap_us"] = swap;
}

// One run of a single-testbed workload.
Run run_single(const SingleSpec& spec, std::uint64_t seed, Tracing* tr) {
  Run r;
  // Declared before the testbed so it outlives it (Testbed's destructor
  // freezes the gauges it bound into the bundle).
  std::unique_ptr<obs::Observability> o;

  auto h0 = Clock::now();
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {spec.snr_db};
  cfg.phy.ldpc_max_iters = spec.ldpc_iters;
  Testbed tb{cfg};
  std::unique_ptr<UdpFlow> dl;
  std::unique_ptr<UdpFlow> ul;
  if (spec.dl_bps > 0) {
    UdpFlowConfig fc;
    fc.rate_bps = spec.dl_bps;
    dl = std::make_unique<UdpFlow>(tb.sim(), tb.server_pipe(0), tb.ue_pipe(0),
                                   fc);
  }
  if (spec.ul_bps > 0) {
    UdpFlowConfig fc;
    fc.rate_bps = spec.ul_bps;
    ul = std::make_unique<UdpFlow>(tb.sim(), tb.ue_pipe(0), tb.server_pipe(0),
                                   fc);
  }
  if (tr != nullptr) {
    o = std::make_unique<obs::Observability>(tb.obs_config());
    tb.attach_observability(*o);
  }
  tap_geometry(tb, tr);
  r.construct_s = seconds_since(h0);

  h0 = Clock::now();
  tb.start();
  r.start_s = seconds_since(h0);

  h0 = Clock::now();
  tb.run_until(spec.warmup_end);
  r.warmup_s = seconds_since(h0);

  if (dl) {
    dl->start();
  }
  if (ul) {
    ul->start();
  }
  std::vector<Nanos> faults;
  if (spec.kill_at >= 0) {
    tb.sim().at(spec.kill_at, [&tb] { tb.kill_primary_phy(); });
    faults.push_back(spec.kill_at);
  }
  EventHandle migrations;
  if (spec.migrate_period > 0) {
    migrations = tb.sim().every(spec.warmup_end + spec.migrate_period,
                                spec.migrate_period,
                                [&tb] { tb.planned_migration(); });
    for (Nanos t = spec.warmup_end + spec.migrate_period; t <= spec.horizon;
         t += spec.migrate_period) {
      faults.push_back(t);
    }
  }

  Counters before;
  accumulate(tb, before);
  const auto events_before = tb.sim().executed_events();
  h0 = Clock::now();
  advance(spec.warmup_end, spec.horizon, cfg.slots.slot_duration, faults, tr,
          r.segment_s, [&tb](Nanos t) { tb.run_until(t); },
          [&tb] { return tb.sim().pending_events(); });
  r.measure_s = seconds_since(h0);
  migrations.cancel();
  r.sim_s = double(spec.horizon - spec.warmup_end) / 1e9;

  Counters after;
  accumulate(tb, after);
  r.c = minus(after, before);
  r.c["sim.events"] = double(tb.sim().executed_events() - events_before);
  r.c["dropped_ttis"] = double(tb.ru_at(0).stats().dropped_ttis);
  r.c["collateral_dropped_ttis"] = 0.0;  // one cell: nothing untouched
  r.c["ue_batch.bytes_per_ue"] = 0.0;
  set_outcomes(r, flow_bytes(ul.get()), flow_bytes(dl.get()));
  r.fingerprint = tb.sim().trace_hash();
  check_orion_identity(tb, "cell 0", r.violations);
  check_outcomes(r);
  if (o) {
    read_tracer(*o, *tr);
  }
  return r;
}

// One run of the sharded fleet. Cell 0 is the failed cell; islands
// 1..N-1 are untouched and must drop no TTI.
Run run_fleet(const FleetSpec& spec, std::uint64_t seed, int shards,
              Tracing* tr) {
  Run r;
  std::unique_ptr<obs::Observability> o;  // outlives the islands

  auto h0 = Clock::now();
  ShardedTestbedConfig cfg;
  cfg.seed = seed;
  cfg.cells.assign(std::size_t(spec.cells),
                   CellSpec{1, {spec.snr_db}, spec.bulk_ues});
  cfg.shards = shards;
  ShardedTestbed tb{cfg};
  std::vector<std::unique_ptr<UdpFlow>> flows;
  UdpFlowConfig fc;
  fc.rate_bps = spec.ul_bps;
  for (int c = 0; c < spec.cells; ++c) {
    Testbed& island = tb.island(c);
    flows.push_back(std::make_unique<UdpFlow>(
        island.sim(), island.ue_pipe(0), island.server_pipe(0), fc));
  }
  if (tr != nullptr) {
    o = std::make_unique<obs::Observability>(tb.island(0).obs_config());
    tb.island(0).attach_observability(*o);
    tap_geometry(tb.island(0), tr);
    tr->batch = tb.island(0).batch_at(0)->config();
  }
  r.construct_s = seconds_since(h0);

  h0 = Clock::now();
  tb.start();
  r.start_s = seconds_since(h0);

  h0 = Clock::now();
  tb.run_until(spec.warmup_end);
  r.warmup_s = seconds_since(h0);

  for (auto& f : flows) {
    f->start();
  }
  tb.kill_primary_at(0, spec.kill_at);

  auto fleet_counters = [&tb, &spec] {
    Counters c;
    for (int i = 0; i < spec.cells; ++i) {
      accumulate(tb.island(i), c);
    }
    return c;
  };
  auto fleet_pending = [&tb, &spec] {
    std::size_t n = 0;
    for (int i = 0; i < spec.cells; ++i) {
      n += tb.island(i).sim().pending_events();
    }
    return n;
  };
  const Counters before = fleet_counters();
  std::vector<std::uint64_t> executed_before;
  for (int i = 0; i < spec.cells; ++i) {
    executed_before.push_back(tb.island_executed(i));
  }
  const auto windows_before = tb.engine().windows_run();
  const auto mailbox_before = tb.engine().events_delivered();
  h0 = Clock::now();
  advance(spec.warmup_end, spec.horizon, cfg.slots.slot_duration,
          {spec.kill_at}, tr, r.segment_s,
          [&tb](Nanos t) { tb.run_until(t); },
          fleet_pending);
  r.measure_s = seconds_since(h0);
  r.sim_s = double(spec.horizon - spec.warmup_end) / 1e9;

  r.c = minus(fleet_counters(), before);
  double events = 0;
  double max_island = 0;
  for (int i = 0; i < spec.cells; ++i) {
    const double e =
        double(tb.island_executed(i) - executed_before[std::size_t(i)]);
    events += e;
    max_island = std::max(max_island, e);
    r.island_hashes.push_back(tb.island_hash(i));
  }
  r.c["sim.events"] = events;
  r.c["sharded.windows"] = double(tb.engine().windows_run() - windows_before);
  r.c["sharded.mailbox_events"] =
      double(tb.engine().events_delivered() - mailbox_before);
  r.c["sharded.island_event_imbalance"] =
      events > 0 ? max_island / (events / double(spec.cells)) : 0.0;
  r.c["dropped_ttis"] = double(tb.island(0).ru_at(0).stats().dropped_ttis);
  double collateral = 0;
  for (int i = 1; i < spec.cells; ++i) {
    collateral = std::max(
        collateral, double(tb.island(i).ru_at(0).stats().dropped_ttis));
  }
  r.c["collateral_dropped_ttis"] = collateral;
  r.c["ue_batch.bytes_per_ue"] =
      tb.island(0).batch_at(0) != nullptr
          ? tb.island(0).batch_at(0)->bytes_per_ue()
          : 0.0;
  double ul_bytes = 0;
  for (const auto& f : flows) {
    ul_bytes += flow_bytes(f.get());
  }
  set_outcomes(r, ul_bytes, 0.0);
  r.fingerprint = tb.fingerprint();
  for (int i = 0; i < spec.cells; ++i) {
    check_orion_identity(tb.island(i),
                         ("island " + std::to_string(i)).c_str(),
                         r.violations);
  }
  check_outcomes(r);
  if (o) {
    read_tracer(*o, *tr);
  }
  return r;
}

// ---------------------------------------------------------------------
// Kernel probes: host ns per call on inputs shaped like the workload's.

// Median ns per call over repeated timed batches (each ~2 ms).
template <typename Op>
double time_ns_per_call(Op&& op, double budget_s) {
  for (int i = 0; i < 3; ++i) {
    op();
  }
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) {
      op();
    }
    if (seconds_since(t0) >= 2e-3 || batch >= (1U << 20)) {
      break;
    }
    batch *= 2;
  }
  std::vector<double> per_call;
  const auto start = Clock::now();
  while (per_call.size() < 5 || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) {
      op();
    }
    per_call.push_back(seconds_since(t0) * 1e9 / double(batch));
  }
  return median(per_call);
}

// Received blocks for one PDU geometry at the workload's SNR.
struct Blocks {
  Modulation mod = Modulation::kQpsk;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::vector<std::complex<float>>> clean;
  std::vector<std::vector<std::complex<float>>> rx;
};

Blocks make_blocks(const Geometry& g, double snr_db, std::uint64_t seed) {
  constexpr int kBlocks = 16;
  Blocks b;
  const auto [mcs, tb_bytes] = g.mode();
  b.mod = mcs_entry(mcs).modulation;
  RngStream rng{seed};
  FadingConfig fading;
  fading.mean_snr_db = snr_db;
  UeChannel channel{fading, RngStream{seed ^ 0x5EEDULL}};
  for (int i = 0; i < kBlocks; ++i) {
    std::vector<std::uint8_t> payload(tb_bytes);
    for (auto& byte : payload) {
      byte = std::uint8_t(rng.next_u64());
    }
    auto enc = encode_tb(payload, b.mod);
    channel.step_slot();
    b.rx.push_back(channel.apply(enc.iq));
    b.clean.push_back(std::move(enc.iq));
    b.payloads.push_back(std::move(payload));
  }
  return b;
}

struct Probes {
  double queue_ns = 0;
  double ldpc_ns = 0;
  double tb_decode_ul_ns = 0;  // PHY side
  double tb_encode_dl_ns = 0;  // PHY side
  double tb_decode_dl_ns = 0;  // UE side
  double tb_encode_ul_ns = 0;  // UE side
  double channel_ns = 0;
  double bfp_compress_ns = 0;
  double bfp_decompress_ns = 0;
  double batch_ns = 0;
  double fapi_ns = 0;
};

// Event-loop cost at a given queue depth: every no-op event reschedules
// one successor, so the depth stays constant while it runs.
double probe_queue(std::size_t depth, std::uint64_t seed, double budget_s) {
  // Declared before the simulator: its pending events point at them.
  std::vector<Nanos> delays(4096);
  RngStream rng{seed};
  for (auto& d : delays) {
    d = 1 + Nanos(rng.uniform() * 1e6);  // within two TTIs
  }
  std::size_t cursor = 0;
  Simulator sim{seed};
  struct Tick {
    Simulator* sim;
    const std::vector<Nanos>* delays;
    std::size_t* cursor;
    void operator()() const {
      sim->after((*delays)[(*cursor)++ & 4095], Tick{*this});
    }
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    sim.at(delays[i & 4095], Tick{&sim, &delays, &cursor});
  }
  return time_ns_per_call(
      [&] {
        const auto before = sim.executed_events();
        while (sim.executed_events() - before < 1024) {
          sim.run_until(sim.now() + 50'000);
        }
      },
      budget_s) /
      1024.0;
}

Probes run_probes(const Tracing& tr, double snr_db, int phy_iters,
                  int ue_iters, std::uint64_t seed, double budget_s) {
  Probes p;
  p.queue_ns = probe_queue(std::size_t(median(tr.pending)), seed, budget_s);

  std::size_t k = 0;
  TbDecodeWorkspace ws;
  if (!tr.ul.empty()) {
    const Blocks ul = make_blocks(tr.ul, snr_db, seed);
    const std::size_t n = ul.rx.size();
    std::vector<std::vector<float>> llrs;
    for (std::size_t i = 0; i < n; ++i) {
      llrs.push_back(decode_tb(ul.rx[i], ul.mod, ul.payloads[i], phy_iters,
                               nullptr, LdpcCode::standard(), &ws)
                         .combined_llrs);
    }
    p.ldpc_ns = time_ns_per_call(
        [&] {
          (void)LdpcCode::standard().decode_into(llrs[k++ % n], phy_iters,
                                                 ws.ldpc);
        },
        budget_s);
    p.tb_decode_ul_ns = time_ns_per_call(
        [&] {
          const std::size_t i = k++ % n;
          (void)decode_tb(ul.rx[i], ul.mod, ul.payloads[i], phy_iters,
                          nullptr, LdpcCode::standard(), &ws);
        },
        budget_s);
    p.tb_encode_ul_ns = time_ns_per_call(
        [&] { (void)encode_tb(ul.payloads[k++ % n], ul.mod); }, budget_s);
    FadingConfig fading;
    fading.mean_snr_db = snr_db;
    UeChannel channel{fading, RngStream{seed}};
    p.channel_ns = time_ns_per_call(
        [&] { (void)channel.apply(ul.clean[k++ % n]); }, budget_s);
    const int bits = PhyConfig{}.dl_bfp_mantissa_bits;
    std::vector<std::uint8_t> packed;
    std::vector<std::complex<float>> unpacked;
    p.bfp_compress_ns = time_ns_per_call(
        [&] { bfp_compress_into(ul.rx[k++ % n], bits, packed); }, budget_s);
    const auto compressed = bfp_compress(ul.rx[0], bits);
    p.bfp_decompress_ns = time_ns_per_call(
        [&] {
          bfp_decompress_into(compressed, ul.rx[0].size(), bits, unpacked);
        },
        budget_s);

    FapiMessage msg;
    msg.ru = RuId{1};
    msg.slot = 1234;
    UlTtiRequest req;
    const auto [mcs, tb_bytes] = tr.ul.mode();
    req.pdus.push_back(TtiPdu{UeId{1}, mcs, tb_bytes, HarqId{0}, true});
    msg.body = std::move(req);
    std::vector<std::uint8_t> wire;
    FapiMessage parsed;
    p.fapi_ns = time_ns_per_call(
        [&] {
          serialize_fapi_into(msg, wire);
          (void)try_parse_fapi(wire, parsed);
        },
        budget_s);
  }
  if (!tr.dl.empty()) {
    const Blocks dl = make_blocks(tr.dl, snr_db, seed + 1);
    const std::size_t n = dl.rx.size();
    p.tb_decode_dl_ns = time_ns_per_call(
        [&] {
          const std::size_t i = k++ % n;
          (void)decode_tb(dl.rx[i], dl.mod, dl.payloads[i], ue_iters, nullptr,
                          LdpcCode::standard(), &ws);
        },
        budget_s);
    p.tb_encode_dl_ns = time_ns_per_call(
        [&] { (void)encode_tb(dl.payloads[k++ % n], dl.mod); }, budget_s);
  }
  if (tr.batch) {
    UeBatch batch{*tr.batch};
    std::int64_t slot = 0;
    p.batch_ns = time_ns_per_call(
        [&] {
          batch.on_dl_control(slot);
          batch.advance_tti(slot);
          ++slot;
        },
        budget_s);
  }
  return p;
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// The nine end-to-end metrics of a run set; virtual ones (deterministic
// for a seed) come from the first repetition. Host metrics are medians
// over whole repetitions, every one of them counted (the first pays its
// first-touch and heap-growth costs like any user's simulation does).
std::vector<Metric> end_to_end(const std::vector<Run>& reps, double rss_mb) {
  std::vector<double> speed;
  std::vector<double> setup;
  for (const auto& r : reps) {
    speed.push_back(r.sim_s / r.measure_s);
    setup.push_back(r.setup_s());
  }
  Counters c = reps.front().c;
  return {
      {"sim_speed_x", "x", median(speed)},
      {"setup_s", "s", median(setup)},
      {"peak_rss_mb", "MB", rss_mb},
      {"dl_goodput_mbps", "Mbps", c["dl_goodput_mbps"]},
      {"ul_goodput_mbps", "Mbps", c["ul_goodput_mbps"]},
      {"dropped_ttis", "count", c["dropped_ttis"]},
      {"collateral_dropped_ttis", "count", c["collateral_dropped_ttis"]},
      {"rlf_events", "count", c["rlf_events"]},
      {"false_rehabilitations", "count", c["false_rehabilitations"]},
  };
}

// The subset the last-line JSON carries with --trace 0: the metrics
// BENCHMARK.json bounds (never zero on any workload). The rest are
// printed above it and carried again by the traced run.
const char* const kBoundedEndToEnd[] = {"sim_speed_x", "setup_s",
                                        "peak_rss_mb", "ul_goodput_mbps"};

// Prints the last-line result object and returns the exit code. A
// metric that is not finite fails the output checks (the run set counts
// as failed) and prints as null.
int print_result(int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("CHECK FAILED (result): %s is not finite\n", m.name.c_str());
      failed = std::max(failed, 1);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                m.name.c_str());
    if (std::isfinite(m.value)) {
      std::printf("%.17g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
};

int threads_available() {
  return std::max(1, int(std::thread::hardware_concurrency()));
}

void print_stamp(const Args& a, int shards) {
  std::printf("# stamp {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"tiny\": %s, \"simd\": \"%s\", \"nproc\": %d, "
              "\"shards\": %d, \"build_type\": \"%s\", \"commit\": \"%s\"}\n",
              a.workload.c_str(), (unsigned long long)a.seed, a.trace ? 1 : 0,
              a.tiny ? "true" : "false",
              simd::level_name(simd::active_level()), threads_available(),
              shards, SLINGBENCH_BUILD_TYPE, a.commit.c_str());
}

void report_violations(const char* what, const Run& r, int& failed) {
  if (r.violations.empty()) {
    return;
  }
  ++failed;
  for (const auto& v : r.violations) {
    std::printf("CHECK FAILED (%s): %s\n", what, v.c_str());
  }
}

// Repetitions of each workload per 20 s of --seconds: about that much
// host time on a 4-vCPU 2.1 GHz Xeon. The count depends on --seconds
// only, never on how fast the program runs, so two commits compare
// medians over the same number of repetitions.
int repetitions(const Args& a) {
  const double per_20s = a.workload == "tab02_migration" ? 40.0 : 11.0;
  return std::max(3, int(std::lround(per_20s * a.seconds / 20.0)));
}

// --trace 0: a fixed number of untraced repetitions (at least three: a
// median, and repeats of the seed for the determinism check).
int run_untraced(const Args& a, bool fleet, int shards) {
  const SingleSpec single =
      a.workload == "fig10_failover" ? fig10_spec(a.tiny) : tab02_spec(a.tiny);
  const FleetSpec fspec = fleet_spec(a.tiny);
  auto once = [&](int n_shards) {
    return fleet ? run_fleet(fspec, a.seed, n_shards, nullptr)
                 : run_single(single, a.seed, nullptr);
  };

  std::vector<Run> reps;
  int failed = 0;
  for (int i = repetitions(a); i > 0; --i) {
    reps.push_back(once(shards));
    Run& r = reps.back();
    if (r.fingerprint != reps.front().fingerprint) {
      r.violations.push_back("fingerprint " + hex64(r.fingerprint) +
                             " differs from the first repetition's " +
                             hex64(reps.front().fingerprint));
    }
    report_violations("repetition", r, failed);
  }
  const double rss = double(obs::sample_peak_rss_bytes()) / (1 << 20);
  int attempted = int(reps.size());

  if (fleet) {
    Run serial = once(1);
    ++attempted;
    if (serial.island_hashes != reps.front().island_hashes) {
      serial.violations.push_back("island hashes differ between 1 and " +
                                  std::to_string(shards) + " shards");
    }
    report_violations("serial fleet", serial, failed);
  }

  const auto metrics = end_to_end(reps, rss);
  std::printf("%-26s %14s  %s\n", "end-to-end metric", "value", "unit");
  for (const auto& m : metrics) {
    std::printf("%-26s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Diagnostics: the spread of whole repetitions, and a floor that
  // charges each 10 ms segment its fastest repetition (host interference
  // only adds time, so this shows how much of a run it cost).
  std::vector<double> rep_speed;
  std::vector<double> fastest = reps.front().segment_s;
  for (const auto& r : reps) {
    rep_speed.push_back(r.sim_s / r.measure_s);
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], r.segment_s.at(i));
    }
  }
  double fastest_s = 0;
  for (const double s : fastest) {
    fastest_s += s;
  }
  std::printf("# %zu repetitions; sim_speed_x quartiles %.4g .. %.4g; "
              "per-segment fastest %.4g\n",
              reps.size(), quantile(rep_speed, 0.25),
              quantile(rep_speed, 0.75), reps.front().sim_s / fastest_s);
  std::printf("# fingerprint %s\n", hex64(reps.front().fingerprint).c_str());

  std::vector<Metric> bounded;
  for (const char* name : kBoundedEndToEnd) {
    for (const auto& m : metrics) {
      if (m.name == name) {
        bounded.push_back(m);
      }
    }
  }
  return print_result(attempted, failed, bounded);
}

void add_layer_metrics(std::vector<Metric>& out, const Run& traced,
                       const Tracing& tr) {
  // Counter-based metrics, in a fixed order.
  static const std::pair<const char*, const char*> kCounters[] = {
      {"sim.events", "count"},
      {"sharded.windows", "count"},
      {"sharded.mailbox_events", "count"},
      {"sharded.island_event_imbalance", "ratio"},
      {"phy.ldpc_decodes", "count"},
      {"phy.ldpc_iterations", "count"},
      {"phy.null_slots", "count"},
      {"phy.work_slots", "count"},
      {"phy.harq_combines", "count"},
      {"ue.dl_tbs", "count"},
      {"ue.ul_retransmissions", "count"},
      {"ue_batch.bytes_per_ue", "B"},
      {"l2.dl_tbs_scheduled", "count"},
      {"l2.ul_tbs_granted", "count"},
      {"l2.dl_retx", "count"},
      {"l2.ul_retx", "count"},
      {"l2.tbs_lost", "count"},
      {"l2.bulk_ul_pdus", "count"},
      {"fapi.msgs", "count"},
      {"switchsim.frames", "count"},
      {"switchsim.generator_packets", "count"},
      {"mbox.ul_forwarded", "count"},
      {"mbox.dl_forwarded", "count"},
      {"mbox.dl_blocked", "count"},
      {"mbox.migrations_executed", "count"},
      {"mbox.failures_detected", "count"},
      {"orion.failovers", "count"},
      {"orion.null_requests", "count"},
      {"orion.standby_responses_dropped", "count"},
      {"orion.drained_accepted", "count"},
      {"orion.rehabilitations", "count"},
      {"dl_goodput_mbps", "Mbps"},
      {"dropped_ttis", "count"},
      {"collateral_dropped_ttis", "count"},
      {"rlf_events", "count"},
      {"false_rehabilitations", "count"},
  };
  Counters c = traced.c;
  for (const auto& [name, unit] : kCounters) {
    out.push_back({name, unit, c[name]});
  }
  const double decodes = c["phy.ldpc_decodes"];
  out.push_back({"phy.ul_crc_ok_ratio", "ratio",
                 decodes > 0 ? c["_phy.ul_crc_ok"] / decodes : 0.0});
  for (const auto& [name, value] : tr.obs_metrics) {
    out.push_back({name, name.find("_us") != std::string::npos ? "us"
                                                                : "count",
                   value});
  }
}

// Host time per step: all steps, steady ones, and those within 20 TTIs
// after a kill or migration.
void add_step_metrics(std::vector<Metric>& out, const std::string& prefix,
                      const Run& run, const Tracing& tr, bool split) {
  std::vector<double> all;
  std::vector<double> steady;
  std::vector<double> fault;
  for (std::size_t i = 0; i < run.segment_s.size(); ++i) {
    const double step_us = run.segment_s[i] * 1e6;
    all.push_back(step_us);
    (tr.step_near_fault[i] != 0 ? fault : steady).push_back(step_us);
  }
  out.push_back({prefix + "_p50", "us", quantile(all, 0.50)});
  out.push_back({prefix + "_p99", "us", quantile(all, 0.99)});
  if (split) {
    out.push_back({prefix + "_steady_p50", "us", quantile(steady, 0.50)});
    out.push_back({prefix + "_steady_p99", "us", quantile(steady, 0.99)});
    out.push_back({prefix + "_fault_p50", "us", quantile(fault, 0.50)});
    out.push_back({prefix + "_fault_p99", "us", quantile(fault, 0.99)});
  }
}

// --trace 1: one untraced reference pass, one traced pass (plus a
// traced serial pass for the fleet), then the kernel probes.
int run_traced(const Args& a, bool fleet, int shards) {
  int attempted = 0;
  int failed = 0;
  const auto t0 = Clock::now();
  // The probes share what is left of --seconds after the passes (there
  // are at most eleven of them), so a longer run steadies their medians.
  auto probe_budget_s = [&] {
    return a.tiny ? 0.01 : std::max(0.1, (a.seconds - seconds_since(t0)) / 11);
  };
  std::vector<Metric> out;

  Run ref;
  Run traced;  // the pass whose counters and tracer the metrics report
  Tracing tr;
  Tracing tr_sharded;
  double base_host_s = 0;  // host time the layer shares divide
  double overhead = 0;
  Probes probes;
  if (!fleet) {
    const SingleSpec spec = a.workload == "fig10_failover"
                                ? fig10_spec(a.tiny)
                                : tab02_spec(a.tiny);
    ref = run_single(spec, a.seed, nullptr);
    traced = run_single(spec, a.seed, &tr);
    attempted = 2;
    base_host_s = traced.measure_s;
    overhead = traced.measure_s / ref.measure_s - 1.0;
    probes = run_probes(tr, spec.snr_db, spec.ldpc_iters,
                        UeConfig{}.ldpc_max_iters, a.seed, probe_budget_s());
    out.push_back({"sharded.parallel_efficiency", "ratio", 0.0});
    out.push_back({"sharded.host_us_per_window_p50", "us", 0.0});
    out.push_back({"sharded.host_us_per_window_p99", "us", 0.0});
  } else {
    const FleetSpec spec = fleet_spec(a.tiny);
    ref = run_fleet(spec, a.seed, shards, nullptr);
    // The serial traced pass carries the tracer and is the base of the
    // layer shares: on one core, busy time adds up to wall time.
    traced = run_fleet(spec, a.seed, 1, &tr);
    Run sharded = run_fleet(spec, a.seed, shards, &tr_sharded);
    attempted = 3;
    if (traced.island_hashes != ref.island_hashes) {
      traced.violations.push_back("island hashes differ between 1 and " +
                                  std::to_string(shards) + " shards");
    }
    if (sharded.fingerprint != ref.fingerprint) {
      sharded.violations.push_back("traced sharded fingerprint " +
                                   hex64(sharded.fingerprint) +
                                   " != untraced " + hex64(ref.fingerprint));
    }
    report_violations("traced sharded pass", sharded, failed);
    base_host_s = traced.measure_s;
    overhead = sharded.measure_s / ref.measure_s - 1.0;
    probes = run_probes(tr, spec.snr_db, PhyConfig{}.ldpc_max_iters,
                        UeConfig{}.ldpc_max_iters, a.seed, probe_budget_s());
    out.push_back({"sharded.parallel_efficiency", "ratio",
                   traced.measure_s / (double(shards) * sharded.measure_s)});
    add_step_metrics(out, "sharded.host_us_per_window", sharded, tr_sharded,
                     false);
  }
  report_violations("untraced reference", ref, failed);
  if (traced.fingerprint != ref.fingerprint) {
    traced.violations.push_back("traced fingerprint " +
                                hex64(traced.fingerprint) + " != untraced " +
                                hex64(ref.fingerprint));
  }
  if (!tr.spans_balanced) {
    traced.violations.push_back("tracer spans opened != closed");
  }

  Counters c = traced.c;
  add_layer_metrics(out, traced, tr);
  out.push_back({"sim.host_ns_per_event", "ns",
                 c["sim.events"] > 0 ? ref.measure_s * 1e9 / c["sim.events"]
                                     : 0.0});
  out.push_back({"sim.pending_events_p50", "count", median(tr.pending)});
  out.push_back({"sim.queue_ns_per_event", "ns", probes.queue_ns});
  out.push_back({"phy.ldpc_ns_per_decode", "ns", probes.ldpc_ns});
  out.push_back({"phy.tb_decode_ns", "ns", probes.tb_decode_ul_ns});
  out.push_back({"phy.tb_encode_ns", "ns", probes.tb_encode_dl_ns});
  out.push_back({"ue.tb_decode_ns", "ns", probes.tb_decode_dl_ns});
  out.push_back({"ue.tb_encode_ns", "ns", probes.tb_encode_ul_ns});
  out.push_back({"channel.apply_ns_per_tb", "ns", probes.channel_ns});
  out.push_back({"fronthaul.bfp_compress_ns", "ns", probes.bfp_compress_ns});
  out.push_back({"fronthaul.bfp_decompress_ns", "ns",
                 probes.bfp_decompress_ns});
  out.push_back({"ue_batch.advance_ns_per_tti", "ns", probes.batch_ns});
  out.push_back({"fapi.roundtrip_ns", "ns", probes.fapi_ns});
  out.push_back({"setup.construct_s", "s", ref.construct_s});
  out.push_back({"setup.start_s", "s", ref.start_s});
  out.push_back({"setup.warmup_s", "s", ref.warmup_s});
  add_step_metrics(out, "slot.host_us", traced, tr, true);
  out.push_back({"trace.overhead_share", "ratio", overhead});

  // Busy share of each layer: its count x its probe cost / host time of
  // the traced serial pass. Sections are BFP-compressed once by their
  // sender and decompressed once by their receiver; every UE channel
  // application is one UL transmission or one DL TB.
  const double ul_sections =
      c["_ue.ul_transmissions"] + c["_ue_batch.ul_sections"];
  const double dl_sections = c["_phy.dl_tbs_encoded"];
  const double base_ns = base_host_s * 1e9;
  const std::vector<std::pair<const char*, double>> busy_ns = {
      {"share.sim", c["sim.events"] * probes.queue_ns},
      {"share.phy", c["phy.ldpc_decodes"] * probes.tb_decode_ul_ns +
                        dl_sections * probes.tb_encode_dl_ns},
      {"share.ue", c["ue.dl_tbs"] * probes.tb_decode_dl_ns +
                       ul_sections * probes.tb_encode_ul_ns},
      {"share.channel",
       (c["_ue.ul_transmissions"] + c["ue.dl_tbs"]) * probes.channel_ns},
      {"share.fronthaul", (ul_sections + dl_sections) *
                              (probes.bfp_compress_ns +
                               probes.bfp_decompress_ns)},
      {"share.ue_batch", c["_ue_batch.advance_calls"] * probes.batch_ns},
      {"share.fapi", c["fapi.msgs"] * probes.fapi_ns},
  };
  double attributed = 0;
  for (const auto& [name, ns] : busy_ns) {
    const double share = base_ns > 0 ? ns / base_ns : 0.0;
    attributed += share;
    out.push_back({name, "ratio", share});
  }
  const double unattributed = 1.0 - attributed;
  out.push_back({"unattributed_share", "ratio", unattributed});
  // Probes run on warm caches and can overstate a layer, and the probes
  // and the pass each see the shared host's speed vary by up to a fifth.
  // Past this tolerance the split no longer adds up to the wall time.
  constexpr double kOverAttribution = 0.10;
  if (unattributed < -kOverAttribution) {
    traced.violations.push_back(
        "layer shares over-attribute the wall time: unattributed_share " +
        std::to_string(unattributed));
  }
  report_violations("traced pass", traced, failed);

  std::sort(out.begin(), out.end(),
            [](const Metric& x, const Metric& y) { return x.name < y.name; });
  std::printf("%-34s %16s  %s\n", "per-layer metric", "value", "unit");
  for (const auto& m : out) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# fingerprint %s\n", hex64(ref.fingerprint).c_str());
  return print_result(attempted, failed, out);
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      a.trace = std::atoi(argv[++i]) != 0;
    } else if (flag == "--commit" && has_value) {
      a.commit = argv[++i];
    } else {
      std::fprintf(stderr, "slingbench: bad argument %s\n", flag.c_str());
      return false;
    }
  }
  return a.workload == "fig10_failover" || a.workload == "tab02_migration" ||
         a.workload == "fleet_massive_ue";
}

}  // namespace
}  // namespace slingshot::slingbench

int main(int argc, char** argv) {
  using namespace slingshot::slingbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: slingbench --workload fig10_failover|tab02_migration|"
                 "fleet_massive_ue --seed N --seconds S --trace 0|1 "
                 "[--tiny] [--commit ID]\n");
    return 2;
  }
  slingshot::Logger::instance().set_level(slingshot::LogLevel::kError);
  const bool fleet = a.workload == "fleet_massive_ue";
  // The fleet runs on one worker per core, at most four.
  const int shards = fleet ? std::min(4, threads_available()) : 1;
  print_stamp(a, shards);
  return a.trace ? run_traced(a, fleet, shards)
                 : run_untraced(a, fleet, shards);
}
