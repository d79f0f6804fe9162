// ECF-style scheduler (Lim et al., CoNEXT 2017), simplified.
//
// Earliest Completion First: when the fast path's window is exhausted and
// only a slower path has room, estimate whether routing the queued bytes
// through the slow path actually finishes sooner than WAITING for the
// fast path's window to reopen. If waiting wins, send nothing this round.
// This is the prediction-based school of scheduling the paper contrasts
// XLINK with: effective when estimates hold, brittle when wireless links
// swing. Rates come from the path's delivery-rate sampler (windowed-max
// btlbw) once it has samples, falling back to the crude cwnd/srtt
// inference before then.
#include "mpquic/scheduler_util.h"
#include "mpquic/schedulers.h"

namespace xlink::mpquic {
namespace {

class EcfScheduler final : public quic::Scheduler {
 public:
  std::optional<quic::PathId> select_path(quic::Connection& conn) override {
    // Fastest path with room wins outright.
    const auto ids = conn.schedulable_path_ids();
    if (ids.empty()) return std::nullopt;
    std::optional<quic::PathId> fastest;
    std::optional<quic::PathId> fastest_with_room;
    sim::Duration best = 0;
    for (quic::PathId id : ids) {
      const auto& p = conn.path_state(id);
      const sim::Duration rtt = p.rtt.smoothed();
      if (!fastest || rtt < best) {
        fastest = id;
        best = rtt;
      }
      if (p.cwnd_available() >= kMinRoom) {
        if (!fastest_with_room ||
            rtt < conn.path_state(*fastest_with_room).rtt.smoothed())
          fastest_with_room = id;
      }
    }
    if (!fastest_with_room) return std::nullopt;
    if (*fastest_with_room == *fastest) return fastest_with_room;

    // Only a slower path has room. Engaging it adds PARALLEL capacity;
    // what it costs is its extra delay. ECF's criterion: use the slow
    // path only when draining the backlog over the fast path alone takes
    // longer than the slow path's delay handicap -- otherwise the slow
    // path's bytes would arrive after the fast path could have delivered
    // them anyway (and risk HoL-blocking the stream).
    const auto& fast = conn.path_state(*fastest);
    const auto& slow = conn.path_state(*fastest_with_room);
    const std::uint64_t queued = conn.send_queue().bytes();
    const double rate_f = fast.bandwidth_estimate_bytes_per_sec();
    if (rate_f <= 0) return fastest_with_room;
    const double t_drain_fast = static_cast<double>(queued) / rate_f;
    const double handicap =
        sim::to_seconds(slow.rtt.smoothed()) -
        sim::to_seconds(fast.rtt.smoothed());
    if (t_drain_fast >= handicap * (1.0 + kDelta))
      return fastest_with_room;
    return std::nullopt;  // wait for the fast path
  }

  std::string name() const override { return "ecf"; }

 private:
  static constexpr double kDelta = 0.25;  // hysteresis against flapping
};

}  // namespace

std::shared_ptr<quic::Scheduler> make_ecf_scheduler() {
  return std::make_shared<EcfScheduler>();
}

}  // namespace xlink::mpquic
