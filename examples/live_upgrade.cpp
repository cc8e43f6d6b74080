// Live PHY upgrade: roll out a PHY build with stronger forward error
// correction, with zero downtime (§8.3).
//
// The standby PHY runs the "new" build (12 LDPC iterations instead of
// 2). A UE whose SNR sits near the old build's decoding threshold
// suffers frequent CRC failures and HARQ retransmissions; after a
// planned migration to the upgraded standby, first-shot decoding works
// and its throughput rises — without a maintenance window.
#include <cstdio>

#include "testbed/testbed.h"
#include "transport/apps.h"

using namespace slingshot;

int main() {
  TestbedConfig config;
  config.seed = 5;
  config.num_ues = 1;
  config.ue_mean_snr_db = {11.2};     // near the 16QAM threshold
  config.phy.ldpc_max_iters = 2;      // old build on the primary
  config.secondary_ldpc_iters = 12;   // upgraded build on the standby
  Testbed testbed{config};

  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 10e6;
  UdpFlow uplink{testbed.sim(), testbed.ue_pipe(0), testbed.server_pipe(0),
                 flow_cfg};

  testbed.start();
  testbed.run_until(100_ms);
  uplink.start();

  std::printf("old PHY build: %d FEC iterations; upgrading at t=4.0 s to "
              "%d iterations\n\n",
              testbed.phy(0).ldpc_max_iters(),
              testbed.phy(1).ldpc_max_iters());
  testbed.sim().at(4'000_ms, [&testbed] { testbed.planned_migration(); });

  std::printf("%8s %18s\n", "t (s)", "UL goodput (Mbps)");
  double window_start_bytes = 0;
  for (Nanos t = 1'000_ms; t <= 8'000_ms; t += 500_ms) {
    testbed.run_until(t);
    double total = 0;
    for (std::size_t b = 0; b < std::size_t(t / 10_ms); ++b) {
      total += uplink.goodput().bin(b);
    }
    std::printf("%8.1f %18.1f%s\n", to_seconds(t),
                (total - window_start_bytes) * 8.0 / 0.5 / 1e6,
                t == 4'000_ms ? "   <- upgrade" : "");
    window_start_bytes = total;
  }

  const auto& old_phy = testbed.phy(0).stats();
  const auto& new_phy = testbed.phy(1).stats();
  auto rate = [](const PhyStats& s) {
    return s.ul_tbs_decoded > 0
               ? double(s.ul_crc_ok) / double(s.ul_tbs_decoded)
               : 0.0;
  };
  std::printf("\nfirst-shot+HARQ decode success: old build %.0f%%, "
              "upgraded build %.0f%%\n",
              rate(old_phy) * 100, rate(new_phy) * 100);
  std::printf("dropped TTIs during upgrade: %lld — no maintenance window\n",
              static_cast<long long>(testbed.ru().stats().dropped_ttis));
  return 0;
}
