// Unit tests: per-path loss detection (RFC 9002 style).
#include <gtest/gtest.h>

#include "quic/loss_detection.h"
#include "test_support.h"

namespace xlink::quic {
namespace {

using test::sent_record;

AckInfo ack_of(std::vector<AckRange> ranges, std::uint64_t delay_us = 0) {
  AckInfo info;
  info.ranges = std::move(ranges);
  info.ack_delay_us = delay_us;
  return info;
}

RttEstimator rtt_100ms() {
  RttEstimator rtt;
  rtt.on_sample(sim::millis(100), 0);
  return rtt;
}

std::vector<PacketNumber> pns(const std::vector<SentRecord>& records) {
  std::vector<PacketNumber> out;
  out.reserve(records.size());
  for (const SentRecord& r : records) out.push_back(r.pn);
  return out;
}

TEST(LossDetection, TracksBytesInFlight) {
  LossDetection ld;
  EXPECT_EQ(ld.bytes_in_flight(), 0u);
  ld.on_packet_sent(sent_record(0, 500, 0));
  EXPECT_EQ(ld.bytes_in_flight(), 500u);
  ld.on_packet_sent(sent_record(1, 1000, sim::millis(1)));
  EXPECT_EQ(ld.bytes_in_flight(), 1500u);
  EXPECT_EQ(ld.tracked_packets(), 2u);
}

TEST(LossDetection, AckRemovesAndReports) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(sent_record(0, 1000, sim::millis(0)));
  ld.on_packet_sent(sent_record(1, 1000, sim::millis(1)));
  const auto out = ld.on_ack_received(ack_of({{0, 1}}), sim::millis(120), rtt);
  EXPECT_EQ(pns(out.acked), (std::vector<PacketNumber>{0, 1}));
  EXPECT_EQ(out.acked[1].sent_time, sim::millis(1));
  EXPECT_EQ(out.acked_bytes, 2000u);
  EXPECT_EQ(ld.bytes_in_flight(), 0u);
  EXPECT_EQ(ld.tracked_packets(), 0u);
  ASSERT_TRUE(out.rtt_sample.has_value());
  EXPECT_EQ(*out.rtt_sample, sim::millis(119));  // 120 - sent@1
}

TEST(LossDetection, DuplicateAckIsHarmless) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(sent_record(0, 1000, 0));
  ld.on_ack_received(ack_of({{0, 0}}), sim::millis(100), rtt);
  const auto again = ld.on_ack_received(ack_of({{0, 0}}), sim::millis(200), rtt);
  EXPECT_TRUE(again.acked.empty());
  EXPECT_EQ(again.acked_bytes, 0u);
  EXPECT_EQ(ld.bytes_in_flight(), 0u);
}

TEST(LossDetection, PacketThresholdLoss) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  for (PacketNumber pn = 0; pn <= 4; ++pn)
    ld.on_packet_sent(sent_record(pn, 1000, sim::millis(pn)));
  // Ack only pn 4, early enough that the time threshold (112.5ms) has not
  // fired: pn 0 and 1 are >= 3 behind -> lost; 2,3 not yet.
  const auto out = ld.on_ack_received(ack_of({{4, 4}}), sim::millis(20), rtt);
  EXPECT_EQ(pns(out.lost), (std::vector<PacketNumber>{0, 1}));
  for (const SentRecord& r : out.lost)
    EXPECT_EQ(ld.loss_reason(r.pn), LossReason::kPacketThreshold);
  EXPECT_EQ(ld.bytes_in_flight(), 2000u);  // pns 2,3 remain
}

TEST(LossDetection, TimeThresholdLoss) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(sent_record(0, 1000, sim::millis(0)));
  ld.on_packet_sent(sent_record(1, 1000, sim::millis(1)));
  // Ack pn 1 shortly after; pn 0 is only 1 behind (below packet threshold).
  auto out = ld.on_ack_received(ack_of({{1, 1}}), sim::millis(50), rtt);
  EXPECT_TRUE(out.lost.empty());
  // Later, past 9/8 * 100ms since send, the time threshold fires.
  const auto lost = ld.detect_losses(sim::millis(113), rtt);
  EXPECT_EQ(pns(lost), (std::vector<PacketNumber>{0}));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(ld.loss_reason(lost[0].pn), LossReason::kTimeThreshold);
}

TEST(LossDetection, LossTimeReportsEarliestDeadline) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(sent_record(0, 1000, sim::millis(0)));
  ld.on_packet_sent(sent_record(1, 1000, sim::millis(10)));
  ld.on_packet_sent(sent_record(2, 1000, sim::millis(20)));
  EXPECT_FALSE(ld.loss_time(rtt).has_value());  // nothing acked yet
  ld.on_ack_received(ack_of({{2, 2}}), sim::millis(60), rtt);
  const auto t = ld.loss_time(rtt);
  ASSERT_TRUE(t.has_value());
  // Earliest unacked below largest (pn 0, sent at 0) + 112.5ms.
  EXPECT_EQ(*t, sim::millis(0) + sim::millis(100) * 9 / 8);
}

TEST(LossDetection, NoLossJudgmentAbovLargestAcked) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(sent_record(0, 1000, 0));
  ld.on_packet_sent(sent_record(1, 1000, 0));
  ld.on_ack_received(ack_of({{0, 0}}), sim::millis(10), rtt);
  // pn 1 is newer than largest acked: never declared lost by time.
  EXPECT_TRUE(ld.detect_losses(sim::millis(100000), rtt).empty());
}

TEST(LossDetection, DetachReturnsEveryRecordInPnOrder) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  for (PacketNumber pn = 0; pn < 6; ++pn)
    ld.on_packet_sent(sent_record(pn, 100, sim::millis(pn)));
  ld.on_ack_received(ack_of({{1, 1}}), sim::millis(20), rtt);
  ASSERT_EQ(ld.bytes_in_flight(), 500u);  // 0, 2, 3, 4, 5
  const std::vector<SentRecord> out = ld.detach();
  EXPECT_EQ(pns(out), (std::vector<PacketNumber>{0, 2, 3, 4, 5}));
  EXPECT_EQ(ld.bytes_in_flight(), 0u);
  EXPECT_EQ(ld.tracked_packets(), 0u);
  EXPECT_FALSE(ld.loss_time(rtt).has_value());
  EXPECT_TRUE(ld.detach().empty());
}

TEST(LossDetection, MultiRangeAck) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  for (PacketNumber pn = 0; pn < 10; ++pn)
    ld.on_packet_sent(sent_record(pn, 100, sim::millis(pn)));
  const auto out =
      ld.on_ack_received(ack_of({{8, 9}, {4, 5}, {0, 1}}), sim::millis(50),
                         rtt);
  // Acked records come back in ack-range order: the order CC sees them.
  EXPECT_EQ(pns(out.acked), (std::vector<PacketNumber>{8, 9, 4, 5, 0, 1}));
  // 2,3,6 are 3+ behind largest=9 -> lost; 7 is within packet threshold.
  EXPECT_EQ(pns(out.lost), (std::vector<PacketNumber>{2, 3, 6}));
  EXPECT_EQ(ld.tracked_packets(), 1u);
}

TEST(LossDetection, RttSampleOnlyWhenLargestNewlyAcked) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(sent_record(0, 100, 0));
  ld.on_packet_sent(sent_record(1, 100, 0));
  ld.on_ack_received(ack_of({{1, 1}}), sim::millis(100), rtt);
  // Second ack covers pn 0 but largest (1) is no longer newly acked.
  const auto out = ld.on_ack_received(ack_of({{0, 1}}), sim::millis(150), rtt);
  EXPECT_FALSE(out.rtt_sample.has_value());
}

}  // namespace
}  // namespace xlink::quic
