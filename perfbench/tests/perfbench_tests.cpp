// Unit tests of the benchmark's own machinery: span arithmetic, the tail
// percentile chooser, and the claim that the tracing seams only forward.
#include <gtest/gtest.h>

#include <memory>

#include "digest.h"
#include "harness/scenario.h"
#include "ledger.h"
#include "seams.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Ledger, SelfTimeOnSyntheticNestedCallTree) {
  // rx_server [0, 100)
  //   http.server [10, 30)
  //     net.tx [12, 20)
  //   net.tx [40, 45)
  // sched [200, 210)            (a second top-level span)
  Ledger l;
  l.open(Layer::kRxServer, 0);
  l.open(Layer::kHttpServer, 10);
  l.open(Layer::kNetTx, 12);
  l.close(20);
  l.close(30);
  l.open(Layer::kNetTx, 40);
  l.close(45);
  l.close(100);
  l.open(Layer::kSched, 200);
  l.close(210);

  EXPECT_EQ(l.depth(), 0u);
  EXPECT_EQ(l.overflows(), 0u);
  EXPECT_EQ(l.layer(Layer::kRxServer).total_ns, 100);
  EXPECT_EQ(l.layer(Layer::kRxServer).self_ns(), 100 - 20 - 5);
  EXPECT_EQ(l.layer(Layer::kHttpServer).self_ns(), 20 - 8);
  EXPECT_EQ(l.layer(Layer::kNetTx).total_ns, 13);
  EXPECT_EQ(l.layer(Layer::kNetTx).self_ns(), 13);
  EXPECT_EQ(l.layer(Layer::kNetTx).calls, 2u);
  EXPECT_EQ(l.layer(Layer::kSched).self_ns(), 10);
  EXPECT_EQ(l.top_level_ns(), 110);

  // Self times partition the covered time exactly.
  std::int64_t self_sum = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i)
    self_sum += l.layer(static_cast<Layer>(i)).self_ns();
  EXPECT_EQ(self_sum, l.top_level_ns());

  Ledger twice = l;
  twice.merge(l);
  EXPECT_EQ(twice.layer(Layer::kRxServer).self_ns(), 2 * 75);
  EXPECT_EQ(twice.top_level_ns(), 220);
}

TEST(Ledger, UnbalancedAndTooDeepSpansAreCounted) {
  Ledger l;
  l.close(5);
  EXPECT_EQ(l.overflows(), 1u);
  for (std::size_t i = 0; i < Ledger::kMaxDepth + 2; ++i)
    l.open(Layer::kSched, static_cast<std::int64_t>(i));
  EXPECT_EQ(l.overflows(), 3u);
  for (std::size_t i = 0; i < Ledger::kMaxDepth + 2; ++i) l.close(100);
  EXPECT_EQ(l.depth(), 0u);
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(28), 64);  // 28 * 0.36 = 10.08 >= 10
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail_percentile(5), 50);
  EXPECT_EQ(tail_percentile(0), 50);
  for (std::size_t n = 20; n <= 5000; ++n) {
    const int p = tail_percentile(n);
    EXPECT_GE(static_cast<double>(n) * (100 - p) / 100.0, 10.0 - 1e-9) << n;
    if (p < 99) {
      EXPECT_LT(static_cast<double>(n) * (100 - (p + 1)) / 100.0, 10.0) << n;
    }
  }
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

std::uint64_t run_digest(harness::SessionConfig cfg, SessionProbe* probe) {
  if (probe) wrap_server_scheduler(cfg, *probe);
  harness::Session session(std::move(cfg));
  if (probe) install_seams(session, *probe);
  return digest(session.run());
}

TEST(Seams, ForwardingDecoratorAndRewiredSeamsKeepTheDigest) {
  const harness::SessionConfig cfg = warmup_config(11);
  const std::uint64_t plain = run_digest(cfg, nullptr);
  SessionProbe probe;
  EXPECT_EQ(run_digest(cfg, &probe), plain);

  // Every seam saw traffic, and every span closed.
  EXPECT_EQ(probe.ledger.depth(), 0u);
  EXPECT_EQ(probe.ledger.overflows(), 0u);
  for (Layer l : {Layer::kHttpServer, Layer::kHttpClient, Layer::kRxServer,
                  Layer::kRxClient, Layer::kNetTx, Layer::kSched})
    EXPECT_GT(probe.ledger.layer(l).calls, 0u) << layer_name(l);
  EXPECT_GT(probe.sched.select_calls, 0u);
  EXPECT_EQ(probe.ledger.layer(Layer::kSched).calls, probe.sched.calls());
}

TEST(Seams, DecoratorAloneKeepsTheDigestOnALossyBlackoutSession) {
  const Plan plan = make_plan(Workload::kShortFeedLossy, 5, 1);
  ASSERT_TRUE(plan.has_blackout(3));
  const harness::SessionConfig cfg = plan.config(3);
  const std::uint64_t plain = run_digest(cfg, nullptr);
  harness::SessionConfig wrapped = cfg;
  SessionProbe probe;
  wrap_server_scheduler(wrapped, probe);
  harness::Session session(std::move(wrapped));
  EXPECT_EQ(digest(session.run()), plain);
  EXPECT_GT(probe.sched.reinject_calls, 0u);
}

}  // namespace
}  // namespace perfbench
