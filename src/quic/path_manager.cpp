#include "quic/path_manager.h"

#include <algorithm>
#include <utility>

namespace xlink::quic {
namespace {

// Path health (DESIGN §7).
/// Consecutive PTOs before a path is marked kDegraded.
constexpr std::uint32_t kDegradedAfterPtos = 1;
/// Consecutive-PTO budget: at this count the path fails over to kProbing
/// -- if (and only if) another schedulable path survives.
constexpr std::uint32_t kFailoverPtoBudget = 3;
/// Dead-path probe backoff bounds (doubles per probe, capped).
constexpr sim::Duration kProbeIntervalMin = sim::millis(200);
constexpr sim::Duration kProbeIntervalMax = sim::seconds(3);

std::array<std::uint8_t, 8> derive_challenge(PathId id) {
  std::array<std::uint8_t, 8> d{};
  std::uint64_t x = 0xabcd0000ULL + id;
  x *= 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 8; ++i) d[i] = static_cast<std::uint8_t>(x >> (8 * i));
  return d;
}

PathTransition challenge(const PathState& p) {
  return {Frame{PathChallengeFrame{p.challenge_data}}, p.id, {}};
}

}  // namespace

PathState& PathManager::create(PathId id, PathState::State state) {
  auto it = paths_.find(id);
  if (it != paths_.end()) return *it->second;
  auto p = std::make_unique<PathState>();
  p->id = id;
  // RFC 9002 §5.3: RTT samples may subtract at most the negotiated
  // max_ack_delay; the estimator owns the clamp. This endpoint's own acks
  // fall due within the same bound.
  p->rtt.set_max_ack_delay(config_.max_ack_delay);
  p->acks = AckTracker(config_.max_ack_delay);
  if (config_.cc == CcAlgorithm::kCoupledLia) {
    if (!lia_group_) lia_group_ = std::make_shared<LiaGroup>();
    p->cc = make_lia_controller(lia_group_);
  } else {
    p->cc = make_congestion_controller(config_.cc);
  }
  p->pacer.configure(config_.pacing);
  p->challenge_data = derive_challenge(id);
  PathState& ps = *paths_.emplace(id, std::move(p)).first->second;
  set_state(ps, state);
  return ps;
}

// ----------------------------------------------------------------- queries

std::vector<PathId> PathManager::path_ids() const {
  std::vector<PathId> out;
  out.reserve(paths_.size());
  for (const auto& [id, _] : paths_) out.push_back(id);
  return out;
}

std::vector<PathId> PathManager::active_path_ids() const {
  std::vector<PathId> out;
  for (const auto& [id, p] : paths_)
    if (p->state == PathState::State::kActive) out.push_back(id);
  return out;
}

std::vector<PathId> PathManager::schedulable_path_ids() const {
  std::vector<PathId> out;
  for (const auto& [id, p] : paths_)
    if (p->schedulable()) out.push_back(id);
  return out;
}

PathId PathManager::fastest_active_path() const {
  // Prefer healthy active paths; a kProbing path only carries traffic when
  // nothing better exists (and then it is also the honest last resort).
  // Ties keep the lower path id.
  auto rank = [](const PathState& p) {
    return std::pair(p.health == PathState::Health::kProbing,
                     p.rtt.smoothed());
  };
  const PathState* best = nullptr;
  for (const auto& [id, p] : paths_) {
    if (p->state != PathState::State::kActive) continue;
    if (!best || rank(*p) < rank(*best)) best = p.get();
  }
  if (best) return best->id;
  // Fall back to any non-abandoned path (e.g. still validating).
  for (const auto& [id, p] : paths_)
    if (p->state != PathState::State::kAbandoned) return id;
  return 0;
}

std::optional<PathId> PathManager::ack_carrier_path(PathId acked_path) const {
  const PathState* acked = find(acked_path);
  const bool original_usable =
      acked && acked->state != PathState::State::kAbandoned;
  if (config_.ack_policy == AckPathPolicy::kOriginalPath && original_usable)
    return acked_path;
  // Fastest active path; fall back to the original.
  for (const auto& [id, p] : paths_)
    if (p->state == PathState::State::kActive) return fastest_active_path();
  return original_usable ? std::optional<PathId>(acked_path) : std::nullopt;
}

bool PathManager::has_other_schedulable(PathId id) const {
  for (const auto& [pid, p] : paths_)
    if (pid != id && p->schedulable()) return true;
  return false;
}

// ------------------------------------------------- peer-visible transitions

PathTransition PathManager::open(PathId id) {
  return challenge(create(id, PathState::State::kValidating));
}

std::optional<PathTransition> PathManager::set_status(PathId id,
                                                      std::uint64_t status) {
  PathState* p = find(id);
  if (!p) return std::nullopt;
  if (status == PathStatusKind::kAbandon) {
    if (p->state == PathState::State::kAbandoned) return std::nullopt;
    set_state(*p, PathState::State::kAbandoned);
    // Tell the peer on a surviving path, and rescue everything in flight.
    PathTransition t = tell_peer(*p, status);
    t.rescued = p->loss.detach();
    return t;
  }
  set_state(*p, status == PathStatusKind::kStandby ? PathState::State::kStandby
                                                   : PathState::State::kActive);
  return tell_peer(*p, status);
}

PathTransition PathManager::on_peer_status(const PathStatusFrame& f) {
  PathTransition t;
  PathState* p = find(f.path_id);
  if (!p || f.status_seq <= p->status_seq_in) return t;
  p->status_seq_in = f.status_seq;
  if (f.status == PathStatusKind::kAbandon) {
    // Peer abandoned: stop using it, rescue in-flight data.
    if (p->state != PathState::State::kAbandoned) {
      set_state(*p, PathState::State::kAbandoned);
      t.rescued = p->loss.detach();
    }
  } else if (f.status == PathStatusKind::kStandby) {
    set_state(*p, PathState::State::kStandby);
  } else if (p->state == PathState::State::kStandby) {
    set_state(*p, PathState::State::kActive);
  }
  return t;
}

bool PathManager::validate(PathId id,
                           const std::array<std::uint8_t, 8>& data) {
  PathState& p = at(id);
  if (p.state != PathState::State::kValidating || data != p.challenge_data)
    return false;
  set_state(p, PathState::State::kActive);
  return true;
}

std::optional<PathTransition> PathManager::rebind(PathId id) {
  PathState* p = find(id);
  if (!p || p->state == PathState::State::kAbandoned) return std::nullopt;
  // The path's 4-tuple changed (NAT rebind): it must prove liveness again
  // before being treated as established, per RFC 9000 §9.3.
  set_state(*p, PathState::State::kValidating);
  return challenge(*p);
}

PathTransition PathManager::migrate(PathId id) {
  // Connection migration restarts congestion control on the new path
  // (RFC 9000 §9.5); modeled by the fresh controller in create.
  PathState& p = create(id, PathState::State::kActive);
  p.cc->reset();
  // The bandwidth model belongs to the old network path; a migrated
  // connection must rebuild it from scratch (the Fig. 13 restart cost).
  p.sampler.reset();
  p.pacer.reset();
  return challenge(p);
}

// ------------------------------------------------------------------ health

std::optional<PathTransition> PathManager::on_pto(PathState& p) {
  // Repeated consecutive PTOs mean the path is not just slow but (probably)
  // dead. Degrade early so telemetry shows the slide, fail over once the
  // budget is spent -- but only if another schedulable path can absorb the
  // traffic; the last path keeps limping (kDegraded) with its capped PTO
  // probing, which is the graceful single-path mode.
  if (!config_.health) return std::nullopt;
  if (p.pto_count >= kFailoverPtoBudget && has_other_schedulable(p.id)) {
    set_health(p, PathState::Health::kProbing);
    // Standby (reversible, unlike abandon) tells the peer to stop
    // scheduling onto the path too; it flips back to available on
    // resurrection.
    PathTransition t = tell_peer(p, PathStatusKind::kStandby);
    // Orphan rescue: everything still in flight on the dead path is
    // requeued so surviving paths carry it; the path stops charging
    // bytes_in_flight and stops arming loss/PTO deadlines for packets that
    // will never be acked.
    t.rescued = p.loss.detach();
    // Dead-path probing starts at the current backed-off PTO and doubles
    // per silent probe, capped -- the resurrection latency bound.
    p.probe_interval =
        std::clamp(pto_interval(p), kProbeIntervalMin, kProbeIntervalMax);
    p.next_probe_at = loop_.now() + p.probe_interval;
    p.probes_sent = 0;
    return t;
  }
  if (p.health == PathState::Health::kGood &&
      p.pto_count >= kDegradedAfterPtos)
    set_health(p, PathState::Health::kDegraded);
  return std::nullopt;
}

std::optional<PathTransition> PathManager::resurrect(PathState& p) {
  // Any fresh ack proves the path round-trips again.
  const bool was_probing = p.health == PathState::Health::kProbing;
  set_health(p, PathState::Health::kGood);
  p.next_probe_at = 0;
  p.probe_interval = 0;
  p.probes_sent = 0;
  if (!was_probing) return std::nullopt;
  return tell_peer(p, PathStatusKind::kAvailable);
}

bool PathManager::take_probe(PathState& p) {
  if (!p.next_probe_at || p.next_probe_at > loop_.now()) return false;
  ++p.probes_sent;
  p.probe_interval = std::min(p.probe_interval * 2, kProbeIntervalMax);
  p.next_probe_at = loop_.now() + p.probe_interval;
  return true;
}

void PathManager::set_state(PathState& p, PathState::State state) {
  p.state = state;
  XLINK_TRACE(config_.trace,
              telemetry::Event::path_status(
                  loop_.now(), config_.origin, static_cast<std::uint8_t>(p.id),
                  static_cast<std::uint64_t>(state)));
}

void PathManager::set_health(PathState& p, PathState::Health health) {
  if (p.health == health) return;
  p.health = health;
  XLINK_TRACE(config_.trace,
              telemetry::Event::path_health(
                  loop_.now(), config_.origin, static_cast<std::uint8_t>(p.id),
                  static_cast<std::uint64_t>(health), p.pto_count));
}

PathTransition PathManager::tell_peer(PathState& p, std::uint64_t status) {
  const PathStatusFrame f{p.id, ++p.status_seq_out, status};
  return {Frame{f}, fastest_active_path(), {}};
}

}  // namespace xlink::quic
