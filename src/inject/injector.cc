#include "inject/injector.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace slingshot {

FaultInjector::FaultInjector(Testbed& testbed) : tb_(testbed) {
  // PHY uplinks: hang windows silence all tx; fronthaul budgets eat
  // eCPRI frames.
  for (int i = 0; i < 2; ++i) {
    const Nanos& hang_until = i == 0 ? hang_a_until_ : hang_b_until_;
    int& drops = i == 0 ? drop_fronthaul_phy_a_ : drop_fronthaul_phy_b_;
    tb_.phy_nic(i).set_tx_interceptor([this, &hang_until, &drops](Packet& p) {
      if (tb_.sim().now() < hang_until) {
        return false;
      }
      if (drops > 0 && p.eth.ethertype == EtherType::kEcpri) {
        --drops;
        ++fronthaul_dropped_;
        return false;
      }
      return true;
    });
  }
  tb_.ru_nic().set_tx_interceptor([this](Packet& p) {
    if (drop_fronthaul_ru_ > 0 && p.eth.ethertype == EtherType::kEcpri) {
      --drop_fronthaul_ru_;
      ++fronthaul_dropped_;
      return false;
    }
    return true;
  });

  // PHY-side Orions: FAPI datagram loss and corruption on ingress.
  auto fapi_rx = [this](Packet& p, int& drops, int& corrupts) {
    if (p.eth.ethertype != EtherType::kFapiTransport) {
      return true;
    }
    if (drops > 0) {
      --drops;
      ++fapi_dropped_;
      return false;
    }
    if (corrupts > 0) {
      --corrupts;
      ++fapi_corrupted_;
      // Truncate and flip bits so deserialization fails loudly rather
      // than producing a plausible message.
      if (p.payload.size() > 3) {
        p.payload.resize(3);
      }
      for (auto& b : p.payload) {
        b ^= 0xFF;
      }
    }
    return true;
  };
  for (int i = 0; i < 2; ++i) {
    int& drops = i == 0 ? drop_fapi_a_ : drop_fapi_b_;
    int& corrupts = i == 0 ? corrupt_fapi_a_ : corrupt_fapi_b_;
    tb_.orion_phy_nic(i).set_rx_interceptor(
        [fapi_rx, &drops, &corrupts](Packet& p) {
          return fapi_rx(p, drops, corrupts);
        });
  }

  // L2 Orion egress: lose migrate_on_slot commands.
  tb_.orion_l2_nic().set_tx_interceptor([this](Packet& p) {
    if (drop_cmd_ > 0 && p.eth.ethertype == EtherType::kSlingshotCmd) {
      --drop_cmd_;
      ++commands_dropped_;
      SLOG_WARN("inject", "dropping migrate command from l2 orion");
      return false;
    }
    return true;
  });

  // L2 Orion ingress: duplicate/delay failure notifications, delay FAPI
  // indications from a chosen PHY-side Orion.
  tb_.orion_l2_nic().set_rx_interceptor([this](Packet& p) {
    if (p.eth.ethertype == EtherType::kFailureNotify) {
      if (delay_notify_ > 0) {
        --delay_notify_;
        ++notifications_delayed_;
        Packet copy = p;
        scheduled_.push_back(
            tb_.sim().at(tb_.sim().now() + delay_notify_by_,
                         [this, copy]() mutable {
                           tb_.orion_l2_nic().inject_rx(std::move(copy));
                         }));
        return false;  // original swallowed; only the late copy arrives
      }
      if (dup_notify_ > 0) {
        --dup_notify_;
        ++notifications_duplicated_;
        Packet copy = p;
        scheduled_.push_back(
            tb_.sim().at(tb_.sim().now() + dup_notify_delay_,
                         [this, copy]() mutable {
                           tb_.orion_l2_nic().inject_rx(std::move(copy));
                         }));
        return true;  // original delivered now, duplicate later
      }
    }
    if (p.eth.ethertype == EtherType::kFapiTransport && delay_ind_ > 0 &&
        p.eth.src == delay_ind_src_) {
      --delay_ind_;
      ++indications_delayed_;
      Packet copy = p;
      scheduled_.push_back(tb_.sim().at(tb_.sim().now() + delay_ind_by_,
                                        [this, copy]() mutable {
                                          tb_.orion_l2_nic().inject_rx(
                                              std::move(copy));
                                        }));
      return false;
    }
    return true;
  });
}

FaultInjector::~FaultInjector() {
  for (auto& h : scheduled_) {
    h.cancel();
  }
  for (int i = 0; i < 2; ++i) {
    tb_.phy_nic(i).set_tx_interceptor({});
    tb_.orion_phy_nic(i).set_rx_interceptor({});
  }
  tb_.ru_nic().set_tx_interceptor({});
  tb_.orion_l2_nic().set_tx_interceptor({});
  tb_.orion_l2_nic().set_rx_interceptor({});
}

Nic* FaultInjector::site_nic(FaultSite site) {
  switch (site) {
    case FaultSite::kPhyA:
      return &tb_.phy_nic(0);
    case FaultSite::kPhyB:
      return &tb_.phy_nic(1);
    case FaultSite::kOrionA:
      return &tb_.orion_phy_nic(0);
    case FaultSite::kOrionB:
      return &tb_.orion_phy_nic(1);
    case FaultSite::kOrionL2:
      return &tb_.orion_l2_nic();
    case FaultSite::kRu:
      return &tb_.ru_nic();
    case FaultSite::kNone:
      break;
  }
  return nullptr;
}

Link* FaultInjector::site_link(FaultSite site) {
  switch (site) {
    case FaultSite::kPhyA:
      return &tb_.phy_link(0);
    case FaultSite::kPhyB:
      return &tb_.phy_link(1);
    case FaultSite::kRu:
      return &tb_.ru_link(0);
    default:
      return nullptr;
  }
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const auto& event : plan.events) {
    scheduled_.push_back(tb_.sim().at(event.at, [this, event] {
      SLOG_INFO("inject", "firing %s", describe(event).c_str());
      apply(event);
    }));
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kKillPhy:
      if (event.phy != PhyId{}) {
        tb_.kill_phy(event.phy);
      } else if (event.site == FaultSite::kPhyA) {
        tb_.phy(0).kill();
      } else if (event.site == FaultSite::kPhyB) {
        tb_.phy(1).kill();
      }
      break;
    case FaultKind::kHangPhy: {
      const Nanos until = tb_.sim().now() + event.duration;
      if (event.site == FaultSite::kPhyA) {
        hang_a_until_ = std::max(hang_a_until_, until);
      } else if (event.site == FaultSite::kPhyB) {
        hang_b_until_ = std::max(hang_b_until_, until);
      }
      break;
    }
    case FaultKind::kReviveStandby:
      if (event.phy != PhyId{}) {
        tb_.revive_phy_as_standby(event.phy);
      } else {
        tb_.revive_dead_phy_as_standby();
      }
      break;
    case FaultKind::kPlannedMigration:
      tb_.planned_migration(event.count);
      break;
    case FaultKind::kDropFronthaul:
      if (event.site == FaultSite::kRu) {
        drop_fronthaul_ru_ += event.count;
      } else if (event.site == FaultSite::kPhyA) {
        drop_fronthaul_phy_a_ += event.count;
      } else if (event.site == FaultSite::kPhyB) {
        drop_fronthaul_phy_b_ += event.count;
      }
      break;
    case FaultKind::kDropFapi:
      if (event.site == FaultSite::kOrionA) {
        drop_fapi_a_ += event.count;
      } else {
        drop_fapi_b_ += event.count;
      }
      break;
    case FaultKind::kCorruptFapi:
      if (event.site == FaultSite::kOrionA) {
        corrupt_fapi_a_ += event.count;
      } else {
        corrupt_fapi_b_ += event.count;
      }
      break;
    case FaultKind::kDropMigrateCmd:
      drop_cmd_ += event.count;
      break;
    case FaultKind::kDupFailureNotify:
      dup_notify_ += event.count;
      dup_notify_delay_ = event.duration;
      break;
    case FaultKind::kDelayFailureNotify:
      delay_notify_ += event.count;
      delay_notify_by_ = event.duration;
      break;
    case FaultKind::kDelayFapiInd: {
      delay_ind_ += event.count;
      delay_ind_by_ = event.duration;
      Nic* nic = site_nic(event.site);
      delay_ind_src_ = nic != nullptr ? nic->mac()
                                      : tb_.orion_phy_nic(0).mac();
      break;
    }
    case FaultKind::kDownLink: {
      Link* link = site_link(event.site);
      if (link == nullptr) {
        break;
      }
      link->set_down(true);
      if (event.duration > 0) {
        scheduled_.push_back(
            tb_.sim().at(tb_.sim().now() + event.duration,
                         [link] { link->set_down(false); }));
      }
      break;
    }
  }
}

}  // namespace slingshot
