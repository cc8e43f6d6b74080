// Ablation: failure-detector timeout (T) and tick-count (n) sweep.
//
// The detector must sit above the PHY's worst-case inter-packet gap
// (measured 393 µs in the paper, ~305 µs here) or it false-positives;
// raising it just delays failover. n trades detection precision (T/n)
// against switch packet-generator load. The paper picks T = 450 µs,
// n = 50 (9 µs precision, 50k generator packets/s).
#include <cstdio>

#include "bench_util.h"
#include "testbed/testbed.h"

namespace slingshot {
namespace {

struct SweepResult {
  std::uint64_t false_positives = 0;
  Nanos detection_latency = -1;
};

SweepResult run_timeout(Nanos timeout, int ticks) {
  TestbedConfig cfg;
  cfg.seed = 41;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {20.0};
  cfg.mbox.detector_timeout = timeout;
  cfg.mbox.detector_ticks = ticks;
  Testbed tb{cfg};
  tb.start();
  // 5 s of healthy operation: any detection is a false positive.
  tb.run_until(5'000_ms);
  SweepResult result;
  result.false_positives = tb.mbox().stats().failures_detected;
  // Then a real failure of whichever PHY serves the RU now (healthy-
  // phase false positives may have swapped it): detection latency is
  // the first failover away from that PHY notified at or after the
  // kill, not whatever the detector flapped on last.
  const PhyId victim = tb.orion().active_phy(Testbed::kRu);
  const Nanos kill_at = tb.sim().now();
  tb.kill_phy(victim);
  tb.run_until(kill_at + 50_ms);
  for (const auto& event : tb.orion().migration_log()) {
    if (event.kind == MigrationEvent::Kind::kFailover &&
        event.from == victim && event.notification_at >= kill_at) {
      result.detection_latency = event.notification_at - kill_at;
      break;
    }
  }
  return result;
}

}  // namespace
}  // namespace slingshot

int main() {
  using namespace slingshot;
  using namespace slingshot::bench;
  print_banner("Ablation", "failure-detector timeout/precision sweep");
  print_note("healthy run of 5 s (false positives) followed by a kill of "
             "the RU's active PHY (detection latency: first failover away "
             "from it); measured max heartbeat gap is ~305 us");

  print_row({"T (us)", "n", "tick (us)", "false pos", "detect (us)"}, 13);
  struct Case {
    Nanos timeout;
    int ticks;
  };
  const Case cases[] = {{250_us, 50}, {300_us, 50}, {350_us, 50},
                        {450_us, 5},  {450_us, 50}, {450_us, 200},
                        {600_us, 50}, {1'000_us, 50}};
  for (const auto& c : cases) {
    const auto r = run_timeout(c.timeout, c.ticks);
    print_row({fmt(to_micros(c.timeout), 0), std::to_string(c.ticks),
               fmt(to_micros(c.timeout) / c.ticks, 1),
               std::to_string(r.false_positives),
               r.detection_latency >= 0 ? fmt(to_micros(r.detection_latency), 0)
                                        : "none"},
              13);
  }
  std::printf(
      "\nBelow the max heartbeat gap the detector cries wolf; above it,\n"
      "detection latency ~= T + tick. The paper's T=450 us, n=50 sits\n"
      "just past the measured gap with 9 us precision and negligible\n"
      "switch load (50k generator pkts/s).\n");
  return 0;
}
