#include "core/shard_coord.h"

#include "common/log.h"

namespace slingshot {

void ShardCoordinator::on_control(const ControlMsg& msg) {
  switch (ShardCtrlKind(msg.kind)) {
    case ShardCtrlKind::kFailureEpisode:
      ++stats_.episodes;
      break;
    case ShardCtrlKind::kPoolConsumed: {
      ++stats_.consumed;
      // Replenish: spend a global spare so the island can bring a
      // replacement member up. The grant lands one boot delay after the
      // island's own report time — never before the current barrier
      // (post_event_from_control clamps to the window end).
      if (spares_ > 0 && grant_) {
        --spares_;
        ++stats_.grants_issued;
        SLOG_INFO("shard_coord",
                  "island %d consumed phy %llu: granting spare (%d left)",
                  msg.src_island, (unsigned long long)msg.a, spares_);
        grant_(msg.src_island, msg.time + config_.boot_delay);
      } else {
        ++stats_.grants_declined;
        SLOG_WARN("shard_coord",
                  "island %d consumed phy %llu: no spare to grant",
                  msg.src_island, (unsigned long long)msg.a);
      }
      break;
    }
    case ShardCtrlKind::kPoolExhausted:
      ++stats_.exhausted;
      break;
    case ShardCtrlKind::kMemberDead:
      ++stats_.member_deaths;
      break;
    case ShardCtrlKind::kMemberRestored:
      ++stats_.restored;
      break;
  }
}

}  // namespace slingshot
