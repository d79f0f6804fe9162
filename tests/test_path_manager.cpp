// PathManager unit tests: the path lifecycle and health machine driven by
// scripted PTO and ack calls on a bare event loop -- no Connection, no peer.
#include <gtest/gtest.h>

#include "quic/path_manager.h"
#include "test_support.h"

namespace xlink::quic {
namespace {

using State = PathState::State;
using Health = PathState::Health;

struct Rig {
  explicit Rig(PathManager::Config config = {}) : paths(loop, config) {}
  /// Counts one more consecutive PTO on `p` (the connection's job) and
  /// hands it to the health machine.
  std::optional<PathTransition> pto(PathState& p) {
    ++p.pto_count;
    return paths.on_pto(p);
  }
  void advance_to(sim::Time t) { loop.run_until(t); }

  sim::EventLoop loop;
  PathManager paths;
};

/// Two active paths; path 0's smoothed RTT is `rtt0`.
PathState& two_paths(Rig& rig, sim::Duration rtt0 = sim::millis(20)) {
  PathState& p0 = rig.paths.create(0, State::kActive);
  rig.paths.create(1, State::kActive).rtt.on_sample(sim::millis(60), 0);
  p0.rtt.on_sample(rtt0, 0);
  return p0;
}

const PathStatusFrame& status_of(const PathTransition& t) {
  return std::get<PathStatusFrame>(*t.frame);
}

TEST(PathManager, DegradedAfterOnePto) {
  Rig rig;
  PathState& p0 = two_paths(rig);
  EXPECT_FALSE(rig.pto(p0).has_value());
  EXPECT_EQ(p0.health, Health::kDegraded);
  EXPECT_TRUE(p0.schedulable());
}

TEST(PathManager, HealthOffNeverDegradesOrFailsOver) {
  PathManager::Config cfg;
  cfg.health = false;
  Rig rig(cfg);
  PathState& p0 = two_paths(rig);
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(rig.pto(p0).has_value());
  EXPECT_EQ(p0.health, Health::kGood);
}

TEST(PathManager, FailsOverAtThreePtosWhileAnotherPathIsSchedulable) {
  Rig rig;
  PathState& p0 = two_paths(rig);
  p0.loss.on_packet_sent(test::sent_record(7, 1200));
  EXPECT_FALSE(rig.pto(p0).has_value());
  EXPECT_FALSE(rig.pto(p0).has_value());
  const auto t = rig.pto(p0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(p0.health, Health::kProbing);
  EXPECT_FALSE(p0.schedulable());
  // PATH_STATUS(standby) for path 0, carried by the surviving path.
  EXPECT_EQ(status_of(*t).path_id, 0u);
  EXPECT_EQ(status_of(*t).status, PathStatusKind::kStandby);
  EXPECT_EQ(status_of(*t).status_seq, 1u);
  EXPECT_EQ(t->carrier, 1u);
  // In-flight data comes back for the survivors.
  ASSERT_EQ(t->rescued.size(), 1u);
  EXPECT_EQ(t->rescued[0].pn, 7u);
  EXPECT_EQ(p0.loss.tracked_packets(), 0u);
  EXPECT_EQ(p0.loss.bytes_in_flight(), 0u);
}

TEST(PathManager, LastSchedulablePathIsNeverFailedOver) {
  Rig rig;
  PathState& p0 = rig.paths.create(0, State::kActive);
  rig.paths.create(1, State::kStandby);  // present but not schedulable
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(rig.pto(p0).has_value());
  EXPECT_EQ(p0.health, Health::kDegraded);
  EXPECT_TRUE(p0.schedulable());
}

TEST(PathManager, FirstProbeAtClampedBackedOffPtoThenDoublingToCap) {
  Rig rig;
  // srtt 20 ms, rttvar 10 ms: PTO = 20 + 4*10 + 25 (max_ack_delay) = 85 ms,
  // backed off 2^3 at the third PTO = 680 ms.
  PathState& p0 = two_paths(rig, sim::millis(20));
  rig.advance_to(sim::seconds(1));
  rig.pto(p0);
  rig.pto(p0);
  ASSERT_TRUE(rig.pto(p0).has_value());
  EXPECT_EQ(rig.paths.pto_interval(p0), sim::millis(680));
  EXPECT_EQ(p0.probe_interval, sim::millis(680));
  EXPECT_EQ(p0.next_probe_at, sim::seconds(1) + sim::millis(680));

  rig.advance_to(p0.next_probe_at - 1);
  EXPECT_FALSE(rig.paths.take_probe(p0)) << "not due yet";
  sim::Time at = p0.next_probe_at;
  for (sim::Duration expect : {sim::millis(1360), sim::millis(2720),
                               sim::seconds(3), sim::seconds(3)}) {
    rig.advance_to(at);
    ASSERT_TRUE(rig.paths.take_probe(p0));
    EXPECT_EQ(p0.probe_interval, expect);
    EXPECT_EQ(p0.next_probe_at, at + expect);
    EXPECT_FALSE(rig.paths.take_probe(p0)) << "one probe per due time";
    at = p0.next_probe_at;
  }
  EXPECT_EQ(p0.probes_sent, 4u);
}

TEST(PathManager, FirstProbeIntervalIsClampedToItsBounds) {
  // Tiny RTT and no ack delay: 8 x 3 ms = 24 ms, raised to 200 ms.
  PathManager::Config fast;
  fast.max_ack_delay = 0;
  Rig low(fast);
  PathState& a = two_paths(low, sim::millis(1));
  for (int i = 0; i < 3; ++i) low.pto(a);
  EXPECT_EQ(a.probe_interval, sim::millis(200));

  // Half-second RTT: the backed-off PTO saturates at 4 s, capped to 3 s.
  Rig high;
  PathState& b = two_paths(high, sim::millis(500));
  for (int i = 0; i < 3; ++i) high.pto(b);
  EXPECT_EQ(b.probe_interval, sim::seconds(3));
}

TEST(PathManager, FirstAckResurrectsWithAvailableStatus) {
  Rig rig;
  PathState& p0 = two_paths(rig);
  for (int i = 0; i < 3; ++i) rig.pto(p0);
  ASSERT_EQ(p0.health, Health::kProbing);
  rig.advance_to(p0.next_probe_at);
  ASSERT_TRUE(rig.paths.take_probe(p0));

  const auto t = rig.paths.on_ack(p0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(status_of(*t).status, PathStatusKind::kAvailable);
  EXPECT_EQ(status_of(*t).status_seq, 2u) << "standby was 1";
  EXPECT_EQ(t->carrier, 0u) << "back to the fastest path";
  EXPECT_EQ(p0.health, Health::kGood);
  EXPECT_EQ(p0.pto_count, 0u);
  EXPECT_EQ(p0.next_probe_at, 0u);
  EXPECT_EQ(p0.probes_sent, 0u);
  EXPECT_EQ(p0.last_ack_received, rig.loop.now());
  // A degraded (never failed-over) path heals silently.
  rig.pto(p0);
  ASSERT_EQ(p0.health, Health::kDegraded);
  EXPECT_FALSE(rig.paths.on_ack(p0).has_value());
  EXPECT_EQ(p0.health, Health::kGood);
}

TEST(PathManager, AbandonDetachesEveryUnackedRecord) {
  Rig rig;
  PathState& p0 = two_paths(rig);
  for (PacketNumber pn : {3, 4, 9})
    p0.loss.on_packet_sent(test::sent_record(pn, 1200));
  const auto t = rig.paths.set_status(0, PathStatusKind::kAbandon);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(p0.state, State::kAbandoned);
  EXPECT_EQ(p0.loss.tracked_packets(), 0u);
  EXPECT_EQ(p0.loss.bytes_in_flight(), 0u);
  ASSERT_EQ(t->rescued.size(), 3u);
  EXPECT_EQ(t->rescued[0].pn, 3u);
  EXPECT_EQ(t->rescued[1].pn, 4u);
  EXPECT_EQ(t->rescued[2].pn, 9u);
  EXPECT_EQ(status_of(*t).status, PathStatusKind::kAbandon);
  EXPECT_EQ(t->carrier, 1u);
  EXPECT_FALSE(rig.paths.set_status(0, PathStatusKind::kAbandon).has_value())
      << "abandon is final";

  // The peer's PATH_STATUS(abandon) detaches too, but tells nobody.
  PathState& p1 = rig.paths.at(1);
  p1.loss.on_packet_sent(test::sent_record(5, 1200));
  const PathTransition peer =
      rig.paths.on_peer_status({1, 1, PathStatusKind::kAbandon});
  EXPECT_FALSE(peer.frame.has_value());
  ASSERT_EQ(peer.rescued.size(), 1u);
  EXPECT_EQ(p1.state, State::kAbandoned);
  EXPECT_EQ(p1.status_seq_in, 1u);
  EXPECT_EQ(p1.loss.bytes_in_flight(), 0u);
}

TEST(PathManager, PeerStatusIgnoresStaleSequenceNumbers) {
  Rig rig;
  two_paths(rig);
  rig.paths.on_peer_status({1, 2, PathStatusKind::kStandby});
  EXPECT_EQ(rig.paths.at(1).state, State::kStandby);
  rig.paths.on_peer_status({1, 2, PathStatusKind::kAvailable});  // replay
  EXPECT_EQ(rig.paths.at(1).state, State::kStandby);
  rig.paths.on_peer_status({1, 3, PathStatusKind::kAvailable});
  EXPECT_EQ(rig.paths.at(1).state, State::kActive);
}

TEST(PathManager, FastestActivePathPrefersHealthyThenActiveThenAlive) {
  Rig rig;
  PathState& slow = rig.paths.create(0, State::kActive);
  slow.rtt.on_sample(sim::millis(50), 0);
  PathState& fast = rig.paths.create(1, State::kActive);
  fast.rtt.on_sample(sim::millis(20), 0);
  rig.paths.create(2, State::kValidating);
  EXPECT_EQ(rig.paths.fastest_active_path(), 1u);

  for (int i = 0; i < 3; ++i) rig.pto(fast);
  ASSERT_EQ(fast.health, Health::kProbing);
  EXPECT_EQ(rig.paths.fastest_active_path(), 0u) << "healthy beats faster";

  rig.paths.set_status(0, PathStatusKind::kAbandon);
  EXPECT_EQ(rig.paths.fastest_active_path(), 1u) << "probing beats none";

  rig.paths.set_status(1, PathStatusKind::kAbandon);
  EXPECT_EQ(rig.paths.fastest_active_path(), 2u) << "any live path";
  rig.paths.set_status(2, PathStatusKind::kAbandon);
  EXPECT_EQ(rig.paths.fastest_active_path(), 0u);
}

TEST(PathManager, RebindRevalidatesAndChallengeValidates) {
  Rig rig;
  PathState& p0 = two_paths(rig);
  const auto t = rig.paths.rebind(0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(p0.state, State::kValidating);
  ASSERT_TRUE(std::holds_alternative<PathChallengeFrame>(*t->frame));
  EXPECT_EQ(t->carrier, 0u) << "the challenge goes on the path itself";
  const auto data = std::get<PathChallengeFrame>(*t->frame).data;
  EXPECT_FALSE(rig.paths.validate(0, {}));
  EXPECT_TRUE(rig.paths.validate(0, data));
  EXPECT_EQ(p0.state, State::kActive);
  EXPECT_FALSE(rig.paths.validate(0, data)) << "already validated";
}

TEST(PathManager, EveryStateAndHealthChangeIsTraced) {
  telemetry::TraceSink sink;
  sink.set_enabled(true);
  PathManager::Config cfg;
  cfg.trace = &sink;
  Rig rig(cfg);
  PathState& p0 = two_paths(rig);  // 2 x path_status
  for (int i = 0; i < 3; ++i) rig.pto(p0);  // degraded, probing
  rig.paths.on_ack(p0);                     // good
  rig.paths.set_status(1, PathStatusKind::kStandby);
  std::vector<telemetry::EventType> types;
  for (const auto& e : sink.snapshot()) types.push_back(e.type);
  using T = telemetry::EventType;
  EXPECT_EQ(types, (std::vector<T>{T::kPathStatus, T::kPathStatus,
                                   T::kPathHealth, T::kPathHealth,
                                   T::kPathHealth, T::kPathStatus}));
}

}  // namespace
}  // namespace xlink::quic
