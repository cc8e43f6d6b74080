// Orion, simulator transport (§6.1). OrionPhySide pairs with a PHY over
// SHM and relays FAPI to and from the network on a lean, stateless
// datagram transport. OrionL2Side is OrionCore's simulator adapter
// (core/orion_core.h): Nic frames, the OrionCostModel jitter on every
// relayed message, and switch commands as kSlingshotCmd frames.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/types.h"
#include "core/fh_mbox.h"
#include "core/orion_core.h"
#include "fapi/channel.h"
#include "fapi/fapi.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace slingshot {

// ---------------------------------------------------------------------
// PHY-side Orion: SHM <-> network relay. Its transport is stateless and
// unacknowledged, so when a rare datacenter loss swallows a slot's TTI
// request it injects a null one (§6.1 loss compensation): the PHY's
// every-slot FAPI contract holds and it does not crash.
// ---------------------------------------------------------------------
class OrionPhySide final : public FapiSink {
 public:
  OrionPhySide(Simulator& sim, std::string name, Nic& nic,
               OrionCostModel costs = {});

  // SHM pipe toward the local PHY (requests travel through it).
  void connect_phy(ShmFapiPipe* to_phy) { to_phy_ = to_phy; }
  // Where PHY indications are sent on the network (the L2-side Orion).
  void set_l2_orion_mac(MacAddr mac) { l2_orion_mac_ = mac; }

  // Slot timing used by the loss-compensation watchdog; must match the
  // deployment's numerology.
  void set_slot_config(SlotConfig slots) { slots_ = slots; }

  // FapiSink: indications arriving from the local PHY over SHM.
  void on_fapi(FapiMessage&& msg) override;

  [[nodiscard]] MacAddr mac() const { return nic_.mac(); }
  [[nodiscard]] std::uint64_t relayed_to_phy() const { return to_phy_count_; }
  [[nodiscard]] std::uint64_t relayed_to_l2() const { return to_l2_count_; }
  // §6.1 loss-compensation nulls, split per request stream (a hole can
  // exist in the DL stream while the UL stream is intact, and vice
  // versa). nulls_injected() stays the aggregate of both.
  [[nodiscard]] std::uint64_t nulls_injected_dl() const {
    return nulls_injected_dl_;
  }
  [[nodiscard]] std::uint64_t nulls_injected_ul() const {
    return nulls_injected_ul_;
  }
  [[nodiscard]] std::uint64_t nulls_injected() const {
    return nulls_injected_dl_ + nulls_injected_ul_;
  }
  // Datagrams that failed try_parse_fapi (each also raised an
  // ERROR.indication toward the L2 and bumped the process-wide
  // fapi.parse_errors counter).
  [[nodiscard]] std::uint64_t parse_errors() const { return parse_errors_; }

 private:
  void handle_frame(Packet&& frame);
  void deliver_to_phy(FapiMessage&& msg);
  void on_slot_watchdog();

  Simulator& sim_;
  std::string name_;
  Nic& nic_;
  OrionCostModel costs_;
  RngStream jitter_rng_;
  ShmFapiPipe* to_phy_ = nullptr;
  MacAddr l2_orion_mac_;
  std::uint64_t to_phy_count_ = 0;
  std::uint64_t to_l2_count_ = 0;

  // Loss compensation (§6.1). DL and UL request streams are tracked
  // separately: a lost datagram carries exactly one message, so a hole
  // can exist in one stream while the other is intact.
  struct RuLossTrack {
    std::int64_t last_dl = -1;    // highest DL_TTI slot seen
    std::int64_t last_ul = -1;    // highest UL_TTI slot seen
    std::int64_t last_real = -1;  // wall slot a real request last arrived
  };
  SlotConfig slots_{};
  EventHandle watchdog_;
  std::map<std::uint8_t, RuLossTrack> loss_tracks_;
  std::uint64_t nulls_injected_dl_ = 0;
  std::uint64_t nulls_injected_ul_ = 0;
  std::uint64_t parse_errors_ = 0;
};

// ---------------------------------------------------------------------
// L2-side Orion: OrionCore's simulator adapter.
// ---------------------------------------------------------------------
class OrionL2Side final : public OrionCore {
 public:
  OrionL2Side(Simulator& sim, std::string name, Nic& nic,
              OrionL2Config config);

  // SHM pipe toward the local L2 (indications travel through it).
  void connect_l2(ShmFapiPipe* to_l2) { to_l2_ = to_l2; }
  // Register a PHY-side Orion peer.
  void add_phy_peer(PhyId phy, MacAddr orion_mac);

  [[nodiscard]] MacAddr mac() const { return nic_.mac(); }
  [[nodiscard]] Nanos now() const override { return sim_.now(); }

 private:
  void handle_frame(Packet&& frame);
  void send_to_phy(PhyId phy, const FapiMessage& msg) override;
  void send_to_l2(FapiMessage&& msg) override { to_l2_->send(std::move(msg)); }
  void send_migrate_cmd(RuId ru, PhyId dest,
                        std::int64_t boundary_slot) override;
  void send_watch_cmd(PhyId phy, bool watch) override;
  void arm_watch_after_grace(PhyId phy) override;
  void trace(obs::ObsEvent kind, std::uint8_t id,
             std::int64_t slot) override;
  void trace_stage(obs::SlotStage stage, std::uint8_t ru,
                   std::int64_t slot) override;

  Simulator& sim_;
  Nic& nic_;
  RngStream jitter_rng_;
  ShmFapiPipe* to_l2_ = nullptr;
  std::map<std::uint8_t, MacAddr> phy_peers_;
};

}  // namespace slingshot
