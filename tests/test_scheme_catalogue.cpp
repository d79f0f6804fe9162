// Tests: the transport scheme catalogue and behaviours that distinguish
// schemes on the wire (ack return path, frame-priority item splitting).
#include <gtest/gtest.h>

#include "core/session.h"
#include "mpquic/schedulers.h"
#include "test_support.h"

namespace xlink::core {
namespace {

TEST(SchemeCatalogue, Names) {
  EXPECT_EQ(to_string(Scheme::kSinglePath), "SP");
  EXPECT_EQ(to_string(Scheme::kVanillaMp), "Vanilla-MP");
  EXPECT_EQ(to_string(Scheme::kXlink), "XLINK");
  EXPECT_EQ(to_string(Scheme::kConnMigration), "CM");
  EXPECT_EQ(to_string(Scheme::kMptcpLike), "MPTCP");
}

TEST(SchemeCatalogue, MultipathFlag) {
  EXPECT_FALSE(is_multipath(Scheme::kSinglePath));
  EXPECT_FALSE(is_multipath(Scheme::kConnMigration));
  EXPECT_TRUE(is_multipath(Scheme::kVanillaMp));
  EXPECT_TRUE(is_multipath(Scheme::kXlink));
  EXPECT_TRUE(is_multipath(Scheme::kRedundant));
}

TEST(SchemeCatalogue, WiringMatchesScheme) {
  const auto sp = make_scheme_config(Scheme::kSinglePath, quic::Role::kClient);
  EXPECT_EQ(sp.scheduler, nullptr);
  EXPECT_FALSE(sp.params.enable_multipath);

  const auto mp = make_scheme_config(Scheme::kVanillaMp, quic::Role::kServer);
  ASSERT_NE(mp.scheduler, nullptr);
  EXPECT_EQ(mp.scheduler->name(), "min-rtt");
  EXPECT_TRUE(mp.params.enable_multipath);
  EXPECT_FALSE(mp.tcp_style_rto);

  const auto mptcp =
      make_scheme_config(Scheme::kMptcpLike, quic::Role::kServer);
  EXPECT_TRUE(mptcp.tcp_style_rto);
  EXPECT_EQ(mptcp.ack_policy, quic::AckPathPolicy::kOriginalPath);

  const auto xl = make_scheme_config(Scheme::kXlink, quic::Role::kServer);
  ASSERT_NE(xl.scheduler, nullptr);
  EXPECT_EQ(xl.scheduler->name(), "xlink");
  EXPECT_EQ(xl.ack_policy, quic::AckPathPolicy::kFastestPath);

  const auto strawman =
      make_scheme_config(Scheme::kReinjectNoQoe, quic::Role::kServer);
  EXPECT_EQ(strawman.scheduler->name(), "xlink");
}

TEST(SchemeCatalogue, OptionsOverrideXlinkKnobs) {
  SchemeOptions opts;
  opts.xlink_ack_policy = quic::AckPathPolicy::kOriginalPath;
  opts.cc = quic::CcAlgorithm::kNewReno;
  const auto cfg = make_scheme_config(Scheme::kXlink, quic::Role::kServer,
                                      opts);
  EXPECT_EQ(cfg.ack_policy, quic::AckPathPolicy::kOriginalPath);
  EXPECT_EQ(cfg.cc, quic::CcAlgorithm::kNewReno);
}

// ---- ack return path on the wire ------------------------------------

struct AckPathFixture {
  explicit AckPathFixture(quic::AckPathPolicy policy) {
    test::WirePair::Options o;
    o.client_config = test::multipath_config();
    o.server_config = test::multipath_config();
    o.client_config.ack_policy = policy;
    o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
    o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
    pair = std::make_unique<test::WirePair>(std::move(o));
    EXPECT_TRUE(pair->establish());
    pair->run_for(sim::millis(100));
    EXPECT_TRUE(pair->client->open_path().has_value());
    pair->run_for(sim::millis(200));
    // Bias the client's view: path 1 is much slower.
    for (int i = 0; i < 20; ++i) {
      pair->client->path_state(0).rtt.on_sample(sim::millis(20), 0);
      pair->client->path_state(1).rtt.on_sample(sim::millis(400), 0);
    }
  }

  /// Counts client->server datagrams per path while the server pushes
  /// data over path 1 only.
  std::pair<std::uint64_t, std::uint64_t> count_ack_paths() {
    std::uint64_t on_path0 = 0, on_path1 = 0;
    pair->drop_client_to_server = [&](quic::PathId path,
                                      const net::Datagram&) {
      (path == 0 ? on_path0 : on_path1)++;
      return false;
    };
    // Force the server to send on path 1 by exhausting path 0.
    auto& sp0 = pair->server->path_state(0);
    for (int i = 0; i < 20; ++i) {
      pair->server->path_state(1).rtt.on_sample(sim::millis(10), 0);
      sp0.rtt.on_sample(sim::millis(500), 0);
    }
    const quic::StreamId id = pair->client->open_stream();
    pair->client->stream_send(id, test::bytes_of("r"), true);
    pair->run_for(sim::millis(100));
    on_path0 = on_path1 = 0;  // ignore the request itself
    pair->server->stream_send(id, test::pattern_bytes(100 * 1024), true);
    pair->run_for(sim::seconds(1));
    return {on_path0, on_path1};
  }

  std::unique_ptr<test::WirePair> pair;
};

TEST(AckPathPolicy, FastestPathCarriesAcksForSlowPathData) {
  AckPathFixture fx(quic::AckPathPolicy::kFastestPath);
  const auto [p0, p1] = fx.count_ack_paths();
  // Data rides path 1; acks should come back mostly on path 0 (fast).
  EXPECT_GT(p0, p1);
}

TEST(AckPathPolicy, OriginalPathKeepsAcksOnTheirPath) {
  AckPathFixture fx(quic::AckPathPolicy::kOriginalPath);
  const auto [p0, p1] = fx.count_ack_paths();
  EXPECT_GT(p1, p0);
}

// ---- frame-priority item splitting -----------------------------------

TEST(FramePrioritySend, SplitsItemsAtPriorityBoundary) {
  test::WirePair::Options o;
  o.client_config = test::multipath_config();
  o.server_config = test::multipath_config();
  o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
  test::WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());

  auto& server = *pair.server;
  const quic::StreamId id = 4;
  // 10 KB body whose first 3 KB are the "first video frame".
  server.stream_send_prioritized(id, test::pattern_bytes(10 * 1024), true,
                                 /*frame_priority=*/1, /*position=*/0,
                                 /*size=*/3 * 1024);
  test::expect_sent_frame_priority(pair, id, 0, 3 * 1024, 1,
                                   sim::millis(100));
  pair.run_for(sim::seconds(1));
  auto* recv = pair.client->recv_stream(id);
  ASSERT_NE(recv, nullptr);
  EXPECT_TRUE(recv->fully_received());
}

// `position` counts from the start of this write, not of the stream: on a
// stream's second write the priority lands on the second write's bytes.
TEST(FramePrioritySend, PositionIsRelativeToTheWrite) {
  test::WirePair::Options o;
  o.client_config = test::multipath_config();
  o.server_config = test::multipath_config();
  o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
  test::WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());

  auto& server = *pair.server;
  const quic::StreamId id = 4;
  server.stream_send(id, test::pattern_bytes(1000), false);
  server.stream_send_prioritized(id, test::pattern_bytes(2000), true,
                                 /*frame_priority=*/2, /*position=*/0,
                                 /*size=*/500);
  test::expect_sent_frame_priority(pair, id, 1000, 1500, 2,
                                   sim::millis(100));
}

}  // namespace
}  // namespace xlink::core
