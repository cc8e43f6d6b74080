// Real-process deployment mode end to end: Orion relay + 2 PHYs + L2
// exchanging real FAPI datagrams under wall-clock pacing, a scripted
// kill of the active PHY, and the conformance contract that the real
// run's episode ledger matches the simulator's for the same fault plan.
//
// These tests run real time (tens of milliseconds of wall clock each)
// and carry the `realtime` ctest label. The inproc variants are the CI
// smoke; the fork variant exercises genuine process isolation and
// SIGKILL.
#include <gtest/gtest.h>

#include "testbed/real_testbed.h"

namespace slingshot {
namespace {

RealTestbedConfig smoke_config(bool inproc) {
  RealTestbedConfig cfg;
  cfg.inproc = inproc;
  cfg.tti_ns = 500'000;
  cfg.run_slots = 160;
  cfg.detect_timeout_ns = 2'000'000;
  return cfg;
}

void expect_failover_ledger(const RealRunResult& result) {
  // kDetected -> kFailoverInitiated on the dead primary (PhyId 1),
  // then kSwapFinalized on the promoted standby (PhyId 2).
  ASSERT_EQ(result.ledger.size(), 3U);
  EXPECT_EQ(result.ledger[0].kind, EpisodeEventKind::kDetected);
  EXPECT_EQ(result.ledger[0].phy, PhyId{1});
  EXPECT_EQ(result.ledger[1].kind, EpisodeEventKind::kFailoverInitiated);
  EXPECT_EQ(result.ledger[1].phy, PhyId{1});
  EXPECT_EQ(result.ledger[2].kind, EpisodeEventKind::kSwapFinalized);
  EXPECT_EQ(result.ledger[2].phy, PhyId{2});
  for (const auto& e : result.ledger) {
    EXPECT_EQ(e.ru, RuId{1});
  }
  // The relay's silence detector raised exactly one notification and
  // the core executed it as one failover.
  EXPECT_EQ(result.orion.failovers_initiated, 1U);
  EXPECT_TRUE(result.orion.notification_identity_holds());
}

TEST(RealTestbed, InprocNoFaultRunsClean) {
  auto cfg = smoke_config(/*inproc=*/true);
  RealRunResult result = RealTestbed{cfg}.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.ledger.empty());  // no fault, no episodes
  EXPECT_TRUE(result.restored);
  // The overwhelming majority of slots must complete the
  // UL_TTI -> CRC round trip (allow slack for scheduler jitter).
  EXPECT_GE(result.l2_crcs, std::uint64_t(cfg.run_slots) * 8 / 10);
  EXPECT_GT(result.l2_rx_records, 0U);  // RX_DATA flowed over SHM
  EXPECT_EQ(result.orion.parse_errors, 0U);
  // Hot standby: every real request has a null twin for the standby.
  EXPECT_GT(result.orion.real_requests_forwarded, 0U);
  EXPECT_GT(result.orion.null_requests_sent, 0U);
  EXPECT_TRUE(result.orion.notification_identity_holds());
  EXPECT_EQ(result.detection_ns, -1);
  EXPECT_EQ(result.outage_ns, -1);
}

TEST(RealTestbed, InprocFailoverDetectsSwapsAndRestores) {
  auto cfg = smoke_config(/*inproc=*/true);
  cfg.kill_slot = 60;
  RealRunResult result = RealTestbed{cfg}.run();
  ASSERT_TRUE(result.ok) << result.error;
  expect_failover_ledger(result);
  // Detection: the silence countdown starts at the last message heard
  // from the dead PHY, which precedes the kill by up to a slot or so,
  // hence the slack below the timeout. It must also not take an
  // unreasonable multiple of the timeout.
  EXPECT_GE(result.detection_ns, cfg.detect_timeout_ns - 4 * cfg.tti_ns);
  EXPECT_LT(result.detection_ns, 25 * cfg.detect_timeout_ns);
  // Service resumed on the standby and ran to the end of the window.
  EXPECT_TRUE(result.restored);
  EXPECT_GT(result.outage_ns, 0);
  EXPECT_LT(result.outage_ns, 60'000'000);  // well under the paper's 6.2 s
}

TEST(RealTestbed, InprocLedgerConformsToSimulator) {
  auto cfg = smoke_config(/*inproc=*/true);
  cfg.kill_slot = 60;
  RealRunResult real = RealTestbed{cfg}.run();
  ASSERT_TRUE(real.ok) << real.error;

  const auto sim_ledger = run_sim_fault_plan(cfg.kill_slot);
  EXPECT_TRUE(ledgers_conform(real.ledger, sim_ledger))
      << "real ledger (" << real.ledger.size() << " events) diverged from "
      << "sim ledger (" << sim_ledger.size() << " events)";

  // And the no-fault plans agree too (both empty).
  EXPECT_TRUE(ledgers_conform({}, run_sim_fault_plan(-1)));
}

TEST(RealTestbed, ForkModeFailoverWithRealSigkill) {
  auto cfg = smoke_config(/*inproc=*/false);
  cfg.kill_slot = 60;
  RealRunResult result = RealTestbed{cfg}.run();
  ASSERT_TRUE(result.ok) << result.error;
  expect_failover_ledger(result);
  EXPECT_TRUE(result.restored);
  EXPECT_GE(result.detection_ns, cfg.detect_timeout_ns - 4 * cfg.tti_ns);
  EXPECT_GT(result.outage_ns, 0);
  EXPECT_TRUE(
      ledgers_conform(result.ledger, run_sim_fault_plan(cfg.kill_slot)));
}

}  // namespace
}  // namespace slingshot
