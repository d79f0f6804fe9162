// AckTracker unit tests: the received-range merge, the range cap and its
// replay floor, and when an ack falls due -- on a bare tracker, no
// Connection, no peer.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "quic/ack_tracker.h"

namespace xlink::quic {
namespace {

constexpr sim::Duration kDelay = sim::millis(25);

/// Records each packet number as non-eliciting at time 0.
AckTracker tracker_with(std::initializer_list<PacketNumber> pns) {
  AckTracker t(kDelay);
  for (const PacketNumber pn : pns) t.record(pn, false, 0);
  return t;
}

using Ranges = std::vector<AckRange>;

TEST(AckTracker, ExtendsTheTopRangeUp) {
  const AckTracker t = tracker_with({0, 1, 2});
  EXPECT_EQ(t.ranges(), (Ranges{{0, 2}}));
}

TEST(AckTracker, ExtendsARangeDown) {
  const AckTracker t = tracker_with({5, 4});
  EXPECT_EQ(t.ranges(), (Ranges{{4, 5}}));
}

TEST(AckTracker, ExtendsALowerRangeAtEitherEnd) {
  AckTracker t = tracker_with({10, 4});
  t.record(5, false, 0);
  EXPECT_EQ(t.ranges(), (Ranges{{10, 10}, {4, 5}}));
  t.record(3, false, 0);
  EXPECT_EQ(t.ranges(), (Ranges{{10, 10}, {3, 5}}));
}

TEST(AckTracker, BridgesTwoRanges) {
  AckTracker t = tracker_with({1, 3});
  ASSERT_EQ(t.ranges(), (Ranges{{3, 3}, {1, 1}}));
  t.record(2, false, 0);
  EXPECT_EQ(t.ranges(), (Ranges{{1, 3}}));
}

TEST(AckTracker, InsertsBetweenRangesInDescendingOrder) {
  const AckTracker t = tracker_with({10, 0, 5});
  EXPECT_EQ(t.ranges(), (Ranges{{10, 10}, {5, 5}, {0, 0}}));
}

TEST(AckTracker, DuplicateChangesNoRange) {
  AckTracker t = tracker_with({0, 1, 2, 7});
  EXPECT_TRUE(t.received(1));
  EXPECT_FALSE(t.received(3));
  t.record(1, false, 0);
  EXPECT_EQ(t.ranges(), (Ranges{{7, 7}, {0, 2}}));
}

TEST(AckTracker, CapDropsTheLowestRangeAndRaisesTheFloor) {
  AckTracker t(kDelay);
  // Even numbers only: every packet opens a range of its own.
  for (PacketNumber pn = 0; pn <= 2 * AckTracker::kMaxRanges; pn += 2)
    t.record(pn, false, 0);
  ASSERT_EQ(t.ranges().size(), AckTracker::kMaxRanges);
  EXPECT_EQ(t.ranges().back(), (AckRange{2, 2}));
  EXPECT_EQ(t.floor(), 1u);
  // Below the floor counts as received, gap or not, and records nothing.
  EXPECT_TRUE(t.received(0));
  EXPECT_FALSE(t.received(1));
  t.record(0, true, 0);
  EXPECT_EQ(t.ranges().size(), AckTracker::kMaxRanges);
  EXPECT_EQ(t.ranges().back(), (AckRange{2, 2}));

  // The next drop lifts the floor past the dropped range.
  t.record(2 * AckTracker::kMaxRanges + 2, false, 0);
  EXPECT_EQ(t.floor(), 3u);
  EXPECT_TRUE(t.received(1));
  EXPECT_TRUE(t.received(2));
  EXPECT_FALSE(t.received(3));
}

TEST(AckTracker, LargestReceiveTimeMovesOnlyForTheLargest) {
  AckTracker t(kDelay);
  t.record(5, false, sim::millis(1));
  EXPECT_EQ(t.largest_recv_time(), sim::millis(1));
  t.record(3, false, sim::millis(2));  // reordered, below the largest
  EXPECT_EQ(t.largest_recv_time(), sim::millis(1));
  t.record(6, false, sim::millis(3));
  EXPECT_EQ(t.largest_recv_time(), sim::millis(3));
  // The ack's delay runs from the largest packet's arrival.
  EXPECT_EQ(t.take(sim::millis(10)).ack_delay_us, sim::millis(7));
}

TEST(AckTracker, NonElicitingPacketsLeaveNoAckPending) {
  const AckTracker t = tracker_with({0, 1, 2});
  EXPECT_FALSE(t.pending());
  EXPECT_FALSE(t.due(sim::seconds(10)));
  EXPECT_FALSE(t.deadline().has_value());
}

TEST(AckTracker, EarliestDeadlineWins) {
  AckTracker t(kDelay);
  t.record(0, true, sim::millis(10));
  EXPECT_EQ(t.deadline(), sim::millis(10) + kDelay);
  t.record(1, true, sim::millis(20));  // a later deadline does not win
  EXPECT_EQ(t.deadline(), sim::millis(10) + kDelay);
  // Once the ack is taken, the next eliciting packet starts afresh.
  t.take(sim::millis(30));
  t.record(2, true, sim::millis(40));
  EXPECT_EQ(t.deadline(), sim::millis(40) + kDelay);
}

TEST(AckTracker, DueAfterTwoElicitingPacketsOrAtTheDeadline) {
  AckTracker t(kDelay);
  t.record(0, true, 0);
  EXPECT_TRUE(t.pending());
  EXPECT_FALSE(t.due(kDelay - 1));
  EXPECT_TRUE(t.due(kDelay));
  t.record(1, true, sim::millis(1));
  EXPECT_TRUE(t.due(sim::millis(1)));  // threshold of 2 reached
}

TEST(AckTracker, TakeClearsThePendingAckAndPutBackRestoresIt) {
  AckTracker t(kDelay);
  t.record(0, true, 0);
  t.record(2, true, sim::millis(1));
  const AckInfo ack = t.take(sim::millis(3));
  EXPECT_EQ(ack.ranges, (Ranges{{2, 2}, {0, 0}}));
  EXPECT_EQ(ack.ack_delay_us, sim::millis(2));
  EXPECT_FALSE(t.pending());
  EXPECT_FALSE(t.deadline().has_value());
  EXPECT_EQ(t.ranges().size(), 2u);  // the ranges stay for the next ack

  // A suppressed send puts the ack back: pending again with its old
  // deadline, but the eliciting count stays cleared.
  t.put_back();
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.deadline(), kDelay);
  EXPECT_FALSE(t.due(kDelay - 1));
  EXPECT_TRUE(t.due(kDelay));

  t.discard();
  EXPECT_FALSE(t.pending());
  EXPECT_FALSE(t.due(sim::seconds(1)));
}

}  // namespace
}  // namespace xlink::quic
