// §8.5: overhead of maintaining a hot standby secondary PHY with null
// FAPI. Paper: no significant increase in PHY compute (FlexRAN reports
// no CPU/FEC-accelerator increase), no L2 overhead, and the null FAPI
// stream uses under 1 MB/s of network.
#include <cstdio>

#include "bench_util.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

int main() {
  using namespace slingshot;
  using namespace slingshot::bench;
  print_banner("Section 8.5", "overhead of the null-FAPI hot standby");

  TestbedConfig cfg;
  cfg.seed = 17;
  cfg.num_ues = 2;
  cfg.ue_mean_snr_db = {20.0, 18.0};
  Testbed tb{cfg};

  UdpFlowConfig ul_cfg;
  ul_cfg.rate_bps = 10e6;
  UdpFlow ul{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), ul_cfg};
  UdpFlowConfig dl_cfg;
  dl_cfg.rate_bps = 60e6;
  UdpFlow dl{tb.sim(), tb.server_pipe(1), tb.ue_pipe(1), dl_cfg};

  tb.start();
  tb.run_until(100_ms);
  ul.start();
  dl.start();
  const Nanos measure_start = tb.sim().now();
  tb.run_until(5'100_ms);
  const double seconds = to_seconds(tb.sim().now() - measure_start);

  const auto& primary = tb.phy(0).stats();
  const auto& standby = tb.phy(1).stats();

  std::printf("\nmeasured over %.1f s with live UL+DL traffic:\n\n", seconds);
  print_row({"", "primary PHY", "standby PHY"}, 22);
  print_row({"slots processed", fmt(double(primary.slots_processed), 0),
             fmt(double(standby.slots_processed), 0)}, 22);
  print_row({"slots with work", fmt(double(primary.work_slots), 0),
             fmt(double(standby.work_slots), 0)}, 22);
  print_row({"null slots", fmt(double(primary.null_slots), 0),
             fmt(double(standby.null_slots), 0)}, 22);
  print_row({"UL TBs decoded", fmt(double(primary.ul_tbs_decoded), 0),
             fmt(double(standby.ul_tbs_decoded), 0)}, 22);
  print_row({"DL TBs encoded", fmt(double(primary.dl_tbs_encoded), 0),
             fmt(double(standby.dl_tbs_encoded), 0)}, 22);
  print_row({"compute work units", fmt(primary.work_units, 0),
             fmt(standby.work_units, 0)}, 22);

  const double ratio =
      primary.work_units > 0 ? standby.work_units / primary.work_units : 0;
  std::printf("\nstandby compute relative to primary: %.4f%%\n", ratio * 100);

  const double null_mbps =
      double(tb.orion().stats().fapi_bytes_to_standby) / seconds / 1e6;
  std::printf("null-FAPI network traffic to standby: %.3f MB/s "
              "(paper: < 1 MB/s)\n", null_mbps);
  std::printf(
      "L2 overhead: none — the L2 never sees the standby (responses "
      "filtered: %llu)\n",
      static_cast<unsigned long long>(
          tb.orion().stats().standby_responses_dropped));
  return 0;
}
