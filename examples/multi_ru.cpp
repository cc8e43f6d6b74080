// Multi-RU deployment: primaries and hot standbys co-located within the
// PHY processes, as the paper's deployment note describes — "our design
// does not require dedicated servers to run just secondary PHYs".
//
// RU 1 is primary on PHY-A and standby on PHY-B; RU 2 the other way
// around. Killing PHY-A therefore fails over RU 1 onto PHY-B (which
// was already doing RU 2's real work) while RU 2 never notices.
#include <cstdio>

#include "testbed/testbed.h"
#include "transport/apps.h"

using namespace slingshot;

int main() {
  TestbedConfig config;
  config.seed = 6;
  config.num_ues = 1;      // UE 1   on RU 1 (primary PHY-A)
  config.num_ues_ru2 = 1;  // UE 101 on RU 2 (primary PHY-B)
  config.ue_mean_snr_db = {20.0, 20.0};
  Testbed testbed{config};

  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 8e6;
  UdpFlow flow_ru1{testbed.sim(), testbed.ue_pipe(0), testbed.server_pipe(0),
                   flow_cfg};
  UdpFlowConfig flow_cfg2 = flow_cfg;
  UdpFlow flow_ru2{testbed.sim(), testbed.ue_pipe(1), testbed.server_pipe(1),
                   flow_cfg2};

  testbed.start();
  testbed.run_until(100_ms);
  flow_ru1.start();
  flow_ru2.start();

  auto report = [&](const char* when) {
    std::printf("%s\n", when);
    std::printf("  RU1 active PHY: phy-%u    RU2 active PHY: phy-%u\n",
                testbed.mbox().active_phy(Testbed::kRu).value(),
                testbed.mbox().active_phy(Testbed::kRu2).value());
    std::printf("  RU1 UE: %s (%llu pkts)   RU2 UE: %s (%llu pkts)\n",
                testbed.ue(0).connected() ? "connected" : "DETACHED",
                static_cast<unsigned long long>(flow_ru1.packets_received()),
                testbed.ue(1).connected() ? "connected" : "DETACHED",
                static_cast<unsigned long long>(flow_ru2.packets_received()));
  };

  testbed.run_until(2'000_ms);
  report("steady state (cross-assigned primaries):");

  std::printf("\nkilling PHY-A (primary for RU1, standby for RU2) ...\n\n");
  testbed.kill_primary_phy();
  testbed.run_until(4'000_ms);
  report("after failover:");
  std::printf("  RU1 dropped TTIs: %lld   RU2 dropped TTIs: %lld\n",
              static_cast<long long>(testbed.ru().stats().dropped_ttis),
              static_cast<long long>(testbed.ru_at(1).stats().dropped_ttis));
  std::printf(
      "\nPHY-B now serves both RUs; RU2 experienced zero disruption.\n"
      "An operator would now restart PHY-A and re-adopt it as the\n"
      "standby for both RUs (see examples in the test suite).\n");

  // Smoke-test verdict: the failover must have landed both RUs on PHY-B
  // with both UEs still attached and RU2 completely untouched.
  const bool ok =
      testbed.mbox().active_phy(Testbed::kRu) == Testbed::kPhyB &&
      testbed.mbox().active_phy(Testbed::kRu2) == Testbed::kPhyB &&
      testbed.ue(0).connected() && testbed.ue(1).connected() &&
      testbed.ru_at(1).stats().dropped_ttis == 0;
  if (!ok) {
    std::printf("\nUNEXPECTED END STATE — see report above\n");
  }
  return ok ? 0 : 1;
}
