// Ablation: how should the standby PHY be kept alive?
//
//  * null FAPI (Slingshot, §6.2) — standby does no signal processing;
//  * duplicate work (strawman)   — standby receives the same real FAPI
//    as the primary, doubling the PHY compute bill;
//  * cold standby                — no live process; failover would pay
//    a full PHY boot (process launch, DPDK/accelerator init, CONFIG) of
//    seconds, plus the UE re-attach if the RLF timer expires meanwhile.
#include <cstdio>

#include "bench_util.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

int main() {
  using namespace slingshot;
  using namespace slingshot::bench;
  print_banner("Ablation", "standby strategies: null FAPI vs duplicate vs cold");

  // Null-FAPI and duplicate modes, measured on the live testbed.
  for (const auto mode : {StandbyMode::kNullFapi, StandbyMode::kDuplicate}) {
    TestbedConfig cfg;
    cfg.seed = 33;
    cfg.num_ues = 1;
    cfg.ue_mean_snr_db = {20.0};
    cfg.standby_mode = mode;
    Testbed tb{cfg};
    UdpFlowConfig ul_cfg;
    ul_cfg.rate_bps = 10e6;
    UdpFlow ul{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), ul_cfg};
    UdpFlowConfig dl_cfg;
    dl_cfg.rate_bps = 60e6;
    UdpFlow dl{tb.sim(), tb.server_pipe(0), tb.ue_pipe(0), dl_cfg};
    tb.start();
    tb.run_until(100_ms);
    ul.start();
    dl.start();
    tb.run_until(3'100_ms);

    const double primary = tb.phy(0).stats().work_units;
    const double standby = tb.phy(1).stats().work_units;
    std::printf(
        "\n%-12s standby compute: %8.0f work units (%.1f%% of primary); "
        "standby responses filtered: %llu\n",
        mode == StandbyMode::kNullFapi ? "null FAPI" : "duplicate",
        standby, primary > 0 ? standby / primary * 100 : 0,
        static_cast<unsigned long long>(
            tb.orion().stats().standby_responses_dropped));
  }

  std::printf(
      "\nnote: the duplicate standby only re-does downlink encoding here —\n"
      "the switch still steers uplink IQ to the primary alone. Mirroring\n"
      "the fronthaul too (full duplication) doubles the entire PHY bill,\n"
      "the 100%% overhead the paper rejects (C-1, §3.1).\n");
  std::printf(
      "\ncold standby  (no live process): failover pays a PHY boot —\n"
      "process launch + DPDK/accelerator init + CONFIG/START, several\n"
      "seconds on production PHYs — during which the RLF timer (50 ms)\n"
      "expires and every UE re-attaches (~6.2 s, §8.1). Slingshot's\n"
      "null-FAPI standby gets hot-standby failover at cold-standby cost.\n");
  return 0;
}
