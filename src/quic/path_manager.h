// Path table and path lifecycle of one multipath QUIC connection: the
// per-packet path queries, the paper's §4 path management (validate,
// standby/available, abandon, NAT rebind, migration) and the health machine
// of DESIGN §7 (degrade, failover, dead-path probe backoff, resurrection).
//
// PathManager never sends anything: a transition the peer must hear about
// returns the frame to queue and the in-flight records to requeue, which
// the Connection carries out. Tests drive it on a bare sim::EventLoop.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "quic/ack_tracker.h"
#include "quic/cc.h"
#include "quic/cc_coupled.h"
#include "quic/delivery_rate.h"
#include "quic/frame.h"
#include "quic/loss_detection.h"
#include "quic/pacer.h"
#include "quic/rtt.h"
#include "quic/scheduler.h"
#include "quic/types.h"
#include "sim/event_loop.h"
#include "telemetry/trace_sink.h"

namespace xlink::quic {

/// Per-path transport state (public so schedulers can inspect and, for
/// baselines like MPTCP-style penalization, adjust).
struct PathState {
  enum class State { kValidating, kActive, kStandby, kAbandoned };

  /// Local liveness verdict, orthogonal to the peer-visible State:
  ///   kGood     - acks arriving, schedule freely;
  ///   kDegraded - consecutive PTOs accumulating, still schedulable;
  ///   kProbing  - declared dead after the consecutive-PTO budget; data is
  ///               steered off, only capped exponential-backoff probes go
  ///               out until one is acked (resurrection) or the path is
  ///               abandoned.
  enum class Health : std::uint8_t { kGood = 0, kDegraded, kProbing };

  PathId id = 0;
  State state = State::kValidating;
  Health health = Health::kGood;
  RttEstimator rtt;
  std::unique_ptr<CongestionController> cc;
  /// Shared per-path delivery-rate estimation: stamps outgoing packets,
  /// extracts rate samples on ack. BBR consumes the samples; ECF/BLEST
  /// read the windowed-max bandwidth; loss-based CC uses the app-limited
  /// marker (RFC 9002 §7.8).
  DeliveryRateSampler sampler;
  /// Token-bucket pacer (inactive unless Config::pacing.enabled).
  Pacer pacer;
  /// The path's one ledger of in-flight packets (its unacked_q).
  LossDetection loss;
  PacketNumber next_pn = 0;
  sim::Time last_ack_eliciting_sent = 0;
  sim::Time last_ack_received = 0;  // last time this path's data was acked
  std::uint32_t pto_count = 0;

  // Dead-path probing state (health == kProbing).
  sim::Time next_probe_at = 0;
  sim::Duration probe_interval = 0;
  std::uint32_t probes_sent = 0;

  /// Receive side of this path's packet number space.
  AckTracker acks;

  // PATH_STATUS bookkeeping.
  std::uint64_t status_seq_out = 0;
  std::uint64_t status_seq_in = 0;

  std::array<std::uint8_t, 8> challenge_data{};

  // Stats.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  bool usable() const {
    return state == State::kActive || state == State::kValidating;
  }
  /// Eligible for scheduler-driven data: active AND not declared dead.
  bool schedulable() const {
    return state == State::kActive && health != Health::kProbing;
  }
  std::size_t cwnd_available() const {
    if (pacer_deferred) return 0;  // no budget until the next token release
    const std::size_t cwnd = cc->cwnd_bytes();
    const std::size_t inflight = loss.bytes_in_flight();
    return inflight >= cwnd ? 0 : cwnd - inflight;
  }
  /// Transient, pump-scoped: the pacer refused this path mid-pump, so it
  /// reports no cwnd headroom and the scheduler falls through to the other
  /// paths instead of the whole pump stalling behind one token bucket.
  /// Cleared before arm_timers so the pacer wake still gets scheduled.
  bool pacer_deferred = false;
  /// Bytes/sec estimate for schedulers. Both the sampler's windowed-max
  /// btlbw and cwnd/srtt are lower bounds on path capacity -- btlbw lags
  /// when recent flights were app-limited (e.g. right after the
  /// handshake), cwnd/srtt lags when the window has not opened yet -- so
  /// take whichever currently bounds tighter.
  double bandwidth_estimate_bytes_per_sec() const {
    const double btlbw = sampler.btlbw_bytes_per_sec();
    const double srtt = sim::to_seconds(rtt.smoothed());
    const double from_cwnd =
        srtt > 0.0 ? static_cast<double>(cc->cwnd_bytes()) / srtt : 0.0;
    return btlbw > from_cwnd ? btlbw : from_cwnd;
  }
};

/// What a transition asks of the path's owner, in this order: queue
/// `frame` on `carrier` (if set), then requeue every `rescued` record.
struct PathTransition {
  std::optional<Frame> frame;
  PathId carrier = 0;
  std::vector<SentRecord> rescued;
};

class PathManager {
 public:
  struct Config {
    CcAlgorithm cc = CcAlgorithm::kCubic;
    /// Negotiated max_ack_delay: clamps RTT samples and pads the PTO.
    sim::Duration max_ack_delay = sim::millis(25);
    PacerConfig pacing;
    AckPathPolicy ack_policy = AckPathPolicy::kFastestPath;
    bool health = true;  // Connection::Config::PathHealth::enabled
    telemetry::TraceSink* trace = nullptr;
    telemetry::Origin origin = telemetry::Origin::kClient;
  };

  using Table = std::map<PathId, std::unique_ptr<PathState>>;

  PathManager(sim::EventLoop& loop, Config config)
      : loop_(loop), config_(std::move(config)) {}

  // ---- table --------------------------------------------------------
  /// Creates path `id` in `state` (fresh CC, RTT clamp, pacer, challenge
  /// bytes) and traces it; returns the existing path if there is one.
  PathState& create(PathId id, PathState::State state);
  /// Lookups and iteration are shallow-const, like the table of owning
  /// pointers itself.
  PathState* find(PathId id) const {
    const auto it = paths_.find(id);
    return it == paths_.end() ? nullptr : it->second.get();
  }
  PathState& at(PathId id) const { return *paths_.at(id); }
  bool empty() const { return paths_.empty(); }
  Table::const_iterator begin() const { return paths_.begin(); }
  Table::const_iterator end() const { return paths_.end(); }

  // ---- queries ------------------------------------------------------
  std::vector<PathId> path_ids() const;
  std::vector<PathId> active_path_ids() const;
  /// Active paths not declared dead: what schedulers may put data on.
  std::vector<PathId> schedulable_path_ids() const;
  /// Lowest-srtt active path, preferring ones that are not kProbing; then
  /// any non-abandoned path; 0 when none is left.
  PathId fastest_active_path() const;
  /// Return path for ACK_MP of `acked_path` under the ack policy (§5.3);
  /// nullopt when no path can carry it.
  std::optional<PathId> ack_carrier_path(PathId acked_path) const;
  bool has_other_schedulable(PathId id) const;
  sim::Duration pto_interval(const PathState& p) const {
    return backed_off_pto(p.rtt.pto(config_.max_ack_delay), p.pto_count);
  }
  /// When `p`'s PTO fires; nullopt without ack-eliciting data in flight.
  std::optional<sim::Time> pto_deadline(const PathState& p) const {
    if (p.loss.bytes_in_flight() == 0) return std::nullopt;
    return p.last_ack_eliciting_sent + pto_interval(p);
  }

  // ---- peer-visible state changes ------------------------------------
  PathId next_id() const {
    return paths_.empty() ? 1 : paths_.rbegin()->first + 1;
  }
  /// New path that must validate: kValidating plus a PATH_CHALLENGE.
  PathTransition open(PathId id);
  /// Local PATH_STATUS; abandon also hands back every unacked record.
  std::optional<PathTransition> set_status(PathId id, std::uint64_t status);
  /// Peer's PATH_STATUS; stale sequence numbers are ignored.
  PathTransition on_peer_status(const PathStatusFrame& f);
  /// Our challenge echoed back: kValidating -> kActive. True on success.
  bool validate(PathId id, const std::array<std::uint8_t, 8>& data);
  /// New 4-tuple (NAT rebind): back to kValidating plus a PATH_CHALLENGE.
  std::optional<PathTransition> rebind(PathId id);
  /// Connection migration onto `id`: active with congestion and bandwidth
  /// state reset (RFC 9000 §9.5), plus a PATH_CHALLENGE.
  PathTransition migrate(PathId id);

  // ---- health -------------------------------------------------------
  /// A PTO was just counted in p.pto_count: degrades the path or, at the
  /// budget and while another path is schedulable, fails it over
  /// (PATH_STATUS(standby), in-flight state detached, first probe armed).
  std::optional<PathTransition> on_pto(PathState& p);
  /// Fresh ack on `p`: resets the PTO count and resurrects a degraded or
  /// probing path; a probing one returns PATH_STATUS(available).
  std::optional<PathTransition> on_ack(PathState& p) {
    p.pto_count = 0;
    p.last_ack_received = loop_.now();
    if (!config_.health || p.health == PathState::Health::kGood)
      return std::nullopt;
    return resurrect(p);
  }
  /// True when the dead-path probe of `p` is due; arms the next one with
  /// doubled (capped) interval. The caller sends the probe.
  bool take_probe(PathState& p);

 private:
  /// The one state-change routine; every change is traced.
  void set_state(PathState& p, PathState::State state);
  void set_health(PathState& p, PathState::Health health);
  /// PATH_STATUS for `p` with the next sequence number, on the fastest
  /// active path.
  PathTransition tell_peer(PathState& p, std::uint64_t status);
  std::optional<PathTransition> resurrect(PathState& p);

  sim::EventLoop& loop_;
  Config config_;
  Table paths_;
  std::shared_ptr<LiaGroup> lia_group_;  // only for kCoupledLia
};

}  // namespace xlink::quic
