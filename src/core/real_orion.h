// Real-deployment Orion relay (§6.1): OrionCore's second adapter, on
// real sockets and shared memory instead of the simulator's fabric. The
// core makes every decision; the relay keeps only transport:
//   - one FAPI datagram per message on its UDP endpoint, in the
//     simulator's wire format (fapi/wire.h);
//   - opaque SHM ring records: TX_DATA to the active PHY, RX_DATA from
//     the active PHY back to the L2;
//   - a wall-clock silence detector standing in for the in-switch one:
//     a watched PHY that has spoken and then stays silent (socket and
//     ring) for `detect_timeout_ns` raises a failure notification. The
//     core's watch/unwatch commands choose which PHYs it covers.
// The core then swaps at its TTI boundary (`failover_margin_slots`
// after detection), and the shared EpisodeRecorder keeps the ledger
// that tests/testbed/test_real_testbed.cc compares with the simulator's.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/orion_core.h"
#include "fapi/fapi.h"
#include "transport/shm_ring.h"
#include "transport/udp_endpoint.h"
#include "transport/wallclock_pacer.h"

namespace slingshot {

struct RealOrionConfig {
  RuId ru;
  std::uint16_t l2_port = 0;
  // phy_ports[i] pairs with PhyId{i + 1}. The RU's primary is PhyId{1}
  // and its standby PhyId{2}, matching the simulator testbed's
  // kPhyA/kPhyB numbering so ledgers align across modes.
  std::vector<std::uint16_t> phy_ports;
  std::int64_t detect_timeout_ns = 2'000'000;
  // Wall instant past which the detector disarms. A finite run ends
  // with *everyone* going quiet; without this the trailing silence
  // would read as a PHY death. The launcher sets it a few slots before
  // the L2 stops pacing.
  std::int64_t detect_deadline_ns =
      std::numeric_limits<std::int64_t>::max();
  WallclockPacer::Config pacer;  // the core's slot clock
};

class RealOrionRelay final : public OrionCore {
 public:
  // `endpoint` is the relay's pre-opened socket (owned by the caller,
  // must outlive the relay). Ring handles are plain values into
  // launcher-created shared mappings.
  RealOrionRelay(RealOrionConfig config, UdpEndpoint* endpoint,
                 ShmRing l2_to_orion, ShmRing orion_to_l2,
                 std::vector<ShmRing> orion_to_phy,
                 std::vector<ShmRing> phy_to_orion);

  // One scheduling quantum: receive at most one datagram (waiting up to
  // timeout_ms), drain every ring, then run the silence detector. The
  // role loop calls this until the run ends.
  void poll_once(int timeout_ms);

  // Wall time since the pacing epoch, so slot_at(now()) is the L2's
  // slot numbering.
  [[nodiscard]] Nanos now() const override {
    return WallclockPacer::now_ns() - real_.pacer.epoch_ns;
  }
  [[nodiscard]] const std::vector<EpisodeEvent>& ledger() const {
    return recorder_.ledger();
  }

 private:
  // Silence-detector state for one PHY: armed while watched and heard
  // since the last notification; silence is measured from the last time
  // it spoke.
  struct Watch {
    bool watched = false;
    bool heard = false;
    std::int64_t last_heard_ns = 0;
  };

  void send_to_phy(PhyId phy, const FapiMessage& msg) override;
  void send_to_l2(FapiMessage&& msg) override;
  // The ring relay follows the core's routing; there is no fronthaul
  // switch to steer in this mode.
  void send_migrate_cmd(RuId /*ru*/, PhyId /*dest*/,
                        std::int64_t /*boundary_slot*/) override {}
  void send_watch_cmd(PhyId phy, bool watch) override;
  void arm_watch_after_grace(PhyId phy) override {
    send_watch_cmd(phy, /*watch=*/true);  // arms on the PHY's first word
  }

  void handle_datagram(std::uint16_t from_port,
                       std::span<const std::uint8_t> bytes);
  void heard(std::size_t phy_index);
  void drain_rings();
  void check_detector();
  void send_fapi(std::uint16_t port, const FapiMessage& msg);
  [[nodiscard]] std::size_t index_of(PhyId phy) const {
    return std::size_t(phy.value()) - 1;
  }

  RealOrionConfig real_;
  UdpEndpoint* endpoint_;
  ShmRing l2_to_orion_;
  ShmRing orion_to_l2_;
  std::vector<ShmRing> orion_to_phy_;
  std::vector<ShmRing> phy_to_orion_;
  std::vector<Watch> watches_;
  EpisodeRecorder recorder_{*this};
  std::vector<std::uint8_t> rx_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
};

}  // namespace slingshot
