// Receive side of one path's packet number space (RFC 9000 §13.2); ACK_MP
// acknowledges each path's space apart, so each PathState owns one. The
// received packet numbers are kept as descending ranges, at most kMaxRanges:
// dropping the lowest range raises a replay floor, and every packet below
// it counts as received (RFC 9000 §13.2.3). An ack falls due after
// kElicitingThreshold ack-eliciting packets, or max_ack_delay after the
// first one; the Connection picks its carrier and adds the QoE signal.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "quic/frame.h"
#include "sim/time.h"

namespace xlink::quic {

class AckTracker {
 public:
  static constexpr std::size_t kMaxRanges = 32;
  static constexpr int kElicitingThreshold = 2;

  explicit AckTracker(sim::Duration max_ack_delay = sim::millis(25))
      : max_ack_delay_(max_ack_delay) {}

  /// True if `pn` arrived before or lies below the replay floor.
  bool received(PacketNumber pn) const {
    return pn < floor_ ||
           std::ranges::any_of(ranges_, [pn](const AckRange& r) {
             return pn >= r.first && pn <= r.last;
           });
  }

  /// Records `pn` arriving at `now`. A duplicate still counts toward the
  /// ack; an ack-eliciting packet makes one pending.
  void record(PacketNumber pn, bool ack_eliciting, sim::Time now) {
    if (pn >= floor_) merge(pn);
    if (pn == ranges_.front().last) largest_recv_time_ = now;
    if (!ack_eliciting) return;
    if (!pending_) deadline_ = now + max_ack_delay_;  // else the earlier stands
    pending_ = true;
    ++eliciting_unacked_;
  }

  bool pending() const { return pending_; }
  bool due(sim::Time now) const {
    return pending_ && (eliciting_unacked_ >= kElicitingThreshold ||
                        deadline_ <= now);
  }
  /// When the pending ack is due at the latest; nullopt without one.
  std::optional<sim::Time> deadline() const {
    return pending_ ? std::optional(deadline_) : std::nullopt;
  }

  /// Every range, and the delay since the largest packet number arrived;
  /// clears the pending ack.
  AckInfo take(sim::Time now) {
    pending_ = false;
    eliciting_unacked_ = 0;
    return {.ack_delay_us = now - largest_recv_time_, .ranges = ranges_};
  }
  /// Re-arms a taken ack whose packet was suppressed: its deadline stands,
  /// its eliciting count stays cleared.
  void put_back() { pending_ = true; }
  /// Drops the pending ack unsent (its path was abandoned).
  void discard() { pending_ = false; }

  const std::vector<AckRange>& ranges() const { return ranges_; }
  PacketNumber floor() const { return floor_; }
  sim::Time largest_recv_time() const { return largest_recv_time_; }

 private:
  /// Extends, bridges or opens a range for `pn` (not below the floor),
  /// then drops the lowest range past the cap.
  void merge(PacketNumber pn);

  sim::Duration max_ack_delay_;
  std::vector<AckRange> ranges_;  // descending by `last`
  PacketNumber floor_ = 0;  // one past the highest discarded packet number
  sim::Time largest_recv_time_ = 0;
  sim::Time deadline_ = 0;
  int eliciting_unacked_ = 0;
  bool pending_ = false;
};

}  // namespace xlink::quic
