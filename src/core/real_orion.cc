#include "core/real_orion.h"

#include "common/log.h"

namespace slingshot {
namespace {

OrionL2Config core_config(const WallclockPacer::Config& pacer) {
  OrionL2Config config;
  if (pacer.tti_ns > 0) {
    config.slots.slot_duration = pacer.tti_ns;
  }
  return config;
}

}  // namespace

RealOrionRelay::RealOrionRelay(RealOrionConfig config, UdpEndpoint* endpoint,
                               ShmRing l2_to_orion, ShmRing orion_to_l2,
                               std::vector<ShmRing> orion_to_phy,
                               std::vector<ShmRing> phy_to_orion)
    : OrionCore("real-orion", core_config(config.pacer)),
      real_(std::move(config)),
      endpoint_(endpoint),
      l2_to_orion_(l2_to_orion),
      orion_to_l2_(orion_to_l2),
      orion_to_phy_(std::move(orion_to_phy)),
      phy_to_orion_(std::move(phy_to_orion)),
      watches_(real_.phy_ports.size()) {
  set_ru_phys(real_.ru, PhyId{1}, PhyId{2});
  // Like the switch detector at boot, cover the PHY that serves the RU.
  send_watch_cmd(PhyId{1}, /*watch=*/true);
}

void RealOrionRelay::send_fapi(std::uint16_t port, const FapiMessage& msg) {
  serialize_fapi_into(msg, wire_scratch_);
  endpoint_->send_to(port, wire_scratch_);
}

void RealOrionRelay::send_to_phy(PhyId phy, const FapiMessage& msg) {
  const std::size_t i = index_of(phy);
  if (i < real_.phy_ports.size()) {
    send_fapi(real_.phy_ports[i], msg);
  }
}

void RealOrionRelay::send_to_l2(FapiMessage&& msg) {
  send_fapi(real_.l2_port, msg);
}

void RealOrionRelay::send_watch_cmd(PhyId phy, bool watch) {
  const std::size_t i = index_of(phy);
  if (i < watches_.size()) {
    watches_[i] = Watch{watch, false, 0};
  }
}

void RealOrionRelay::heard(std::size_t phy_index) {
  watches_[phy_index].heard = true;
  watches_[phy_index].last_heard_ns = WallclockPacer::now_ns();
}

void RealOrionRelay::poll_once(int timeout_ms) {
  std::uint16_t from_port = 0;
  const int n = endpoint_->recv(rx_scratch_, timeout_ms, &from_port);
  if (n > 0) {
    handle_datagram(from_port, rx_scratch_);
  }
  drain_rings();
  check_detector();
}

void RealOrionRelay::handle_datagram(std::uint16_t from_port,
                                     std::span<const std::uint8_t> bytes) {
  FapiMessage msg;
  const char* err = nullptr;
  if (!try_parse_fapi(bytes, msg, &err)) {
    ++stats_.parse_errors;
    SLOG_WARN("real-orion", "dropping corrupt datagram from port %u (%s)",
              unsigned(from_port), err == nullptr ? "?" : err);
    // Same contract as the simulated Orion: the L2 hears about
    // unparseable bytes instead of observing a silent gap.
    send_to_l2(FapiMessage{real_.ru, 0,
                           ErrorIndication{kFapiMsgCorrupt,
                                           FapiMsgType::kErrorIndication}});
    return;
  }
  if (from_port == real_.l2_port) {
    on_fapi(std::move(msg));
    return;
  }
  for (std::size_t i = 0; i < real_.phy_ports.size(); ++i) {
    if (real_.phy_ports[i] == from_port) {
      heard(i);
      on_phy_indication(PhyId{std::uint8_t(i + 1)}, std::move(msg));
      return;
    }
  }
  // Unknown senders are dropped: the transport is closed-world.
}

void RealOrionRelay::drain_rings() {
  // L2 -> active PHY: TX_DATA payload records move ring-to-ring without
  // a parse — Orion treats SHM payloads as opaque, as the paper's
  // middlebox never touches IQ bytes.
  const std::size_t active = index_of(active_phy(real_.ru));
  std::vector<std::uint8_t> record;
  while (l2_to_orion_.pop(record)) {
    orion_to_phy_[active].push(record);
  }
  for (std::size_t i = 0; i < phy_to_orion_.size(); ++i) {
    while (phy_to_orion_[i].pop(record)) {
      heard(i);
      // Only the active PHY's records reach the L2 — it must see
      // exactly one PHY (§6.2).
      if (i == active) {
        orion_to_l2_.push(record);
      }
    }
  }
}

void RealOrionRelay::check_detector() {
  const std::int64_t now_ns = WallclockPacer::now_ns();
  if (now_ns > real_.detect_deadline_ns) {
    return;
  }
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    Watch& w = watches_[i];
    // Lifecycle chatter during the pre-epoch launch lead must not arm
    // the countdown: everyone is deliberately idle until slot 0, and
    // that idle stretch dwarfs any sane detect timeout. A PHY counts
    // only once it has spoken inside the paced window.
    if (!w.watched || !w.heard || w.last_heard_ns < real_.pacer.epoch_ns) {
      continue;
    }
    const std::int64_t silent_ns = now_ns - w.last_heard_ns;
    if (silent_ns < real_.detect_timeout_ns) {
      continue;
    }
    // Real socket silence exceeded the budget: the wall-clock analogue
    // of the paper's in-switch detection (§5). Like the switch, one
    // notification per silence: the PHY re-arms on its next word unless
    // the core unwatches it.
    w.heard = false;
    SLOG_WARN("real-orion",
              "ru=%u phy=%u declared dead after %ld ns of silence",
              unsigned(real_.ru.value()), unsigned(i + 1), long(silent_ns));
    on_failure_notification(PhyId{std::uint8_t(i + 1)});
  }
}

}  // namespace slingshot
