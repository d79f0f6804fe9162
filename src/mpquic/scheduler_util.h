// Shared helpers for multipath packet schedulers.
#pragma once

#include <limits>
#include <optional>

#include "quic/connection.h"

namespace xlink::mpquic {

/// Minimum cwnd headroom for a path to be worth scheduling onto.
constexpr std::size_t kMinRoom = 256;

/// Effective delay metric of a path: its smoothed RTT, inflated by ack
/// silence when in-flight data has gone unacknowledged longer than the
/// estimator claims a round trip takes. On a fading link the estimator is
/// stale; the silence is the honest signal.
inline sim::Duration effective_rtt(const quic::Connection& conn,
                                   const quic::PathState& p) {
  sim::Duration rtt = p.rtt.smoothed();
  if (p.loss.bytes_in_flight() > 0 && p.last_ack_received > 0) {
    const sim::Duration silence = conn.loop().now() - p.last_ack_received;
    rtt = std::max(rtt, silence);
  }
  return rtt;
}

/// Min-RTT path among schedulable paths (active and not failed-over) with
/// congestion window room, excluding
/// `exclude` (used to send re-injections on a different path than the
/// original). Paths without an RTT sample rank by the RFC initial guess.
///
/// With `staleness_aware`, a path whose in-flight data has gone unacked
/// for longer than its smoothed RTT is ranked by that silence instead: the
/// estimator is stale on a fading link, and trusting it keeps feeding the
/// fade (the paper's Fig. 1a pathology). XLINK's scheduler uses this;
/// vanilla-MP deliberately does not.
inline std::optional<quic::PathId> pick_min_rtt(
    quic::Connection& conn, std::optional<quic::PathId> exclude = {},
    bool staleness_aware = false) {
  std::optional<quic::PathId> best;
  sim::Duration best_rtt = std::numeric_limits<sim::Duration>::max();
  for (quic::PathId id : conn.schedulable_path_ids()) {
    if (exclude && id == *exclude) continue;
    const auto& p = conn.path_state(id);
    if (p.cwnd_available() < kMinRoom) continue;
    const sim::Duration rtt =
        staleness_aware ? effective_rtt(conn, p) : p.rtt.smoothed();
    if (!best || rtt < best_rtt) {
      best = id;
      best_rtt = rtt;
    }
  }
  return best;
}

/// Path choice respecting the head item of the send queue: re-injections
/// prefer a path other than their origin. Returns nullopt when nothing is
/// sendable for the head item.
inline std::optional<quic::PathId> pick_for_queue_head(
    quic::Connection& conn, bool staleness_aware = false) {
  const auto& q = conn.send_queue();
  if (!q.empty() && q.front().is_reinjection && q.front().origin_path) {
    if (auto other =
            pick_min_rtt(conn, q.front().origin_path, staleness_aware))
      return other;
    // No alternative path: returning the origin lets the send loop drop the
    // now-pointless duplicate instead of stalling the queue.
  }
  return pick_min_rtt(conn, {}, staleness_aware);
}

}  // namespace xlink::mpquic
