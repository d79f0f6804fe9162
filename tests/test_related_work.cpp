// Tests: related work -- coupled congestion control (paper §9) and the
// ECF/BLEST prediction-based multipath schedulers (§8).
#include <gtest/gtest.h>

#include "mpquic/schedulers.h"
#include "quic/cc_coupled.h"
#include "test_support.h"

namespace xlink {
namespace {

// ------------------------------------------------------------- coupled CC

TEST(CoupledLia, AlphaMatchesRfc6356ForEqualPaths) {
  // Two equal paths: alpha = total * (c/r^2) / (2c/r)^2 = 1/2.
  auto group = std::make_shared<quic::LiaGroup>();
  auto a = quic::make_lia_controller(group);
  auto b = quic::make_lia_controller(group);
  a->on_ack(1400, sim::millis(10), sim::millis(60), sim::millis(50));
  b->on_ack(1400, sim::millis(10), sim::millis(60), sim::millis(50));
  // Leave slow start so cwnds are equal and alpha is meaningful.
  EXPECT_NEAR(group->alpha(), 0.5, 0.05);
}

TEST(CoupledLia, CongestionAvoidanceGrowsSlowerThanUncoupled) {
  auto grow_bytes = [](bool coupled) {
    auto group = std::make_shared<quic::LiaGroup>();
    auto make = [&]() -> std::unique_ptr<quic::CongestionController> {
      if (coupled) return quic::make_lia_controller(group);
      return quic::make_congestion_controller(quic::CcAlgorithm::kNewReno);
    };
    auto a = make();
    auto b = make();
    // Push both out of slow start.
    a->on_loss_event(sim::millis(5), sim::millis(10));
    b->on_loss_event(sim::millis(5), sim::millis(10));
    const std::size_t start = a->cwnd_bytes() + b->cwnd_bytes();
    for (int i = 0; i < 200; ++i) {
      a->on_ack(1400, sim::millis(20 + i), sim::millis(70 + i),
                sim::millis(50));
      b->on_ack(1400, sim::millis(20 + i), sim::millis(70 + i),
                sim::millis(50));
    }
    return a->cwnd_bytes() + b->cwnd_bytes() - start;
  };
  const auto coupled = grow_bytes(true);
  const auto uncoupled = grow_bytes(false);
  EXPECT_LT(coupled, uncoupled);
  EXPECT_GT(coupled, 0u);
  // RFC 6356 goal: the pair grows like ~one flow, i.e. about half the
  // aggressiveness of two independent flows.
  EXPECT_NEAR(static_cast<double>(coupled) / uncoupled, 0.5, 0.25);
}

TEST(CoupledLia, LossHalvesOnlyTheLossyPath) {
  auto group = std::make_shared<quic::LiaGroup>();
  auto a = quic::make_lia_controller(group);
  auto b = quic::make_lia_controller(group);
  for (int i = 0; i < 20; ++i)
    a->on_ack(1400, sim::millis(10), sim::millis(60), sim::millis(50));
  const std::size_t b_before = b->cwnd_bytes();
  a->on_loss_event(sim::millis(100), sim::millis(200));
  EXPECT_EQ(b->cwnd_bytes(), b_before);
  EXPECT_LT(a->cwnd_bytes(), 21 * 1400 + 1);
}

TEST(CoupledLia, EndToEndSessionCompletes) {
  test::WirePair::Options o;
  o.client_config = test::multipath_config();
  o.server_config = test::multipath_config();
  o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.server_config.cc = quic::CcAlgorithm::kCoupledLia;
  test::WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(100));
  const quic::StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(50));
  pair.server->stream_send(id, test::pattern_bytes(200 * 1024, 4), true);
  for (int i = 0; i < 100; ++i) {
    pair.run_for(sim::millis(50));
    pair.client->consume_stream(id, 1 << 20);
    auto* s = pair.client->recv_stream(id);
    if (s && s->fully_received()) break;
  }
  auto* s = pair.client->recv_stream(id);
  ASSERT_TRUE(s && s->fully_received());
  EXPECT_EQ(pair.server->path_state(0).cc->name(), "lia");
}

// --------------------------------------------------- related-work pickers

TEST(RelatedSchedulers, NamesAndBasicPicks) {
  EXPECT_EQ(mpquic::make_ecf_scheduler()->name(), "ecf");
  EXPECT_EQ(mpquic::make_blest_scheduler()->name(), "blest");
}

struct SchedFixture {
  explicit SchedFixture(std::shared_ptr<quic::Scheduler> sched) {
    test::WirePair::Options o;
    o.client_config = test::multipath_config();
    o.server_config = test::multipath_config();
    o.server_config.scheduler = sched;
    o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
    pair = std::make_unique<test::WirePair>(std::move(o));
    EXPECT_TRUE(pair->establish());
    pair->run_for(sim::millis(100));
    EXPECT_TRUE(pair->client->open_path().has_value());
    pair->run_for(sim::millis(200));
  }
  std::unique_ptr<test::WirePair> pair;
};

TEST(RelatedSchedulers, EcfPrefersFastPathAndCanWait) {
  auto sched = mpquic::make_ecf_scheduler();
  SchedFixture fx(sched);
  auto& server = *fx.pair->server;
  for (int i = 0; i < 20; ++i) {
    server.path_state(0).rtt.on_sample(sim::millis(20), 0);
    server.path_state(1).rtt.on_sample(sim::millis(800), 0);
  }
  // Fast path open: picked.
  quic::SendItem item;
  item.length = 1000;
  server.enqueue_item(item, quic::InsertMode::kAppend);
  EXPECT_EQ(sched->select_path(server), std::optional<quic::PathId>(0));
  // Fast path full, tiny queue: waiting beats the 800ms path.
  auto& p0 = server.path_state(0);
  p0.loss.on_packet_sent(test::sent_record(500, p0.cc->cwnd_bytes()));
  EXPECT_EQ(sched->select_path(server), std::nullopt);
}

TEST(RelatedSchedulers, EcfUsesSlowPathForLargeBacklog) {
  auto sched = mpquic::make_ecf_scheduler();
  SchedFixture fx(sched);
  auto& server = *fx.pair->server;
  for (int i = 0; i < 20; ++i) {
    server.path_state(0).rtt.on_sample(sim::millis(50), 0);
    server.path_state(1).rtt.on_sample(sim::millis(120), 0);
  }
  auto& p0 = server.path_state(0);
  p0.loss.on_packet_sent(test::sent_record(500, p0.cc->cwnd_bytes()));
  // Large backlog: the slow path's bandwidth is worth it.
  quic::SendItem item;
  item.length = 4 * 1024 * 1024;
  server.enqueue_item(item, quic::InsertMode::kAppend);
  EXPECT_EQ(sched->select_path(server), std::optional<quic::PathId>(1));
}

TEST(RelatedSchedulers, BlestPicksFastPathWhenOpen) {
  auto sched = mpquic::make_blest_scheduler();
  SchedFixture fx(sched);
  auto& server = *fx.pair->server;
  for (int i = 0; i < 20; ++i) {
    server.path_state(0).rtt.on_sample(sim::millis(20), 0);
    server.path_state(1).rtt.on_sample(sim::millis(100), 0);
  }
  quic::SendItem item;
  item.length = 1000;
  server.enqueue_item(item, quic::InsertMode::kAppend);
  EXPECT_EQ(sched->select_path(server), std::optional<quic::PathId>(0));
}

TEST(RelatedSchedulers, BlestSitsOutWhenBlockingPredicted) {
  auto sched = mpquic::make_blest_scheduler();
  SchedFixture fx(sched);
  auto& server = *fx.pair->server;
  for (int i = 0; i < 20; ++i) {
    server.path_state(0).rtt.on_sample(sim::millis(20), 0);
    server.path_state(1).rtt.on_sample(sim::millis(2000), 0);  // 100x
  }
  auto& p0 = server.path_state(0);
  p0.loss.on_packet_sent(test::sent_record(500, p0.cc->cwnd_bytes()));
  quic::SendItem item;
  item.length = 1000;
  server.enqueue_item(item, quic::InsertMode::kAppend);
  // rtt ratio 100 -> fast path ships 100 windows meanwhile: blocked.
  EXPECT_EQ(sched->select_path(server), std::nullopt);
}

}  // namespace
}  // namespace xlink
