// §8.6: switch microbenchmarks.
//  (1) ASIC resource usage of Slingshot's dataplane for a large edge
//      datacenter (256 RUs / 256 PHYs) — only SRAM scales with size.
//  (2) The maximum inter-packet gap between a healthy PHY's downlink
//      fronthaul packets, measured at the switch across idle and busy
//      periods — the basis for the 450 µs failure-detector timeout.
#include <cstdio>

#include "bench_util.h"
#include "core/fh_mbox.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

namespace slingshot {
namespace {

Nanos measure_max_gap(bool busy) {
  TestbedConfig cfg;
  cfg.seed = busy ? 23 : 24;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {20.0};
  Testbed tb{cfg};

  GapTracker gaps;
  const MacAddr phy_a_mac = tb.phy(0).mac();
  tb.fabric().set_ingress_tap(
      [&gaps, phy_a_mac](const Packet& p, int, Nanos now) {
        if (p.eth.ethertype == EtherType::kEcpri && p.eth.src == phy_a_mac) {
          gaps.observe(now);
        }
      });

  std::unique_ptr<UdpFlow> dl;
  std::unique_ptr<UdpFlow> ul;
  tb.start();
  if (busy) {
    UdpFlowConfig dl_cfg;
    dl_cfg.rate_bps = 100e6;
    dl = std::make_unique<UdpFlow>(tb.sim(), tb.server_pipe(0),
                                   tb.ue_pipe(0), dl_cfg);
    UdpFlowConfig ul_cfg;
    ul_cfg.rate_bps = 12e6;
    ul = std::make_unique<UdpFlow>(tb.sim(), tb.ue_pipe(0),
                                   tb.server_pipe(0), ul_cfg);
    tb.sim().at(100_ms, [&] {
      dl->start();
      ul->start();
    });
  }
  tb.run_until(10'000_ms);
  return gaps.max_gap();
}

}  // namespace
}  // namespace slingshot

int main() {
  using namespace slingshot;
  using namespace slingshot::bench;
  print_banner("Section 8.6", "switch resource usage and inter-packet gap");

  std::printf("\n(1) ASIC resource usage of the Slingshot dataplane:\n\n");
  print_row({"deployment", "crossbar", "ALU", "gateway", "SRAM", "hash bits"});
  for (const int size : {64, 128, 256}) {
    const auto est = estimate_switch_resources(size, size);
    print_row({std::to_string(size) + " RU/PHY", fmt(est.crossbar_pct, 1) + "%",
               fmt(est.alu_pct, 1) + "%", fmt(est.gateway_pct, 1) + "%",
               fmt(est.sram_pct, 1) + "%", fmt(est.hash_bits_pct, 1) + "%"});
  }
  std::printf("paper (256/256): crossbar 5.2%%, ALU 10.4%%, gateway 14.1%%, "
              "SRAM 5.3%%, hash 9.5%%;\nonly SRAM grows with more RUs/PHYs.\n");

  std::printf("\n(2) max inter-packet gap of the healthy PHY's DL fronthaul "
              "stream\n    (10 s each, switch ingress timestamps):\n\n");
  const auto idle_gap = measure_max_gap(false);
  const auto busy_gap = measure_max_gap(true);
  print_row({"scenario", "max gap (us)"});
  print_row({"idle cell", fmt(to_micros(idle_gap), 1)});
  print_row({"busy cell", fmt(to_micros(busy_gap), 1)});
  const auto overall = std::max(idle_gap, busy_gap);
  std::printf(
      "\nmax across all cases: %.1f us -> a conservative detector timeout "
      "of 450 us\n(paper measures 393 us and picks T=450 us, n=50 ticks "
      "=> 9 us precision).\nheadroom to timeout: %.1f us\n",
      to_micros(overall), 450.0 - to_micros(overall));
  return 0;
}
