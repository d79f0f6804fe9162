// SendQueue unit tests: insertion orders, the priority runs of one write,
// unacked-subrange requeue, the first-transmission frontier and head
// requeue -- on a bare queue and stream, no Connection, no peer.
#include <gtest/gtest.h>

#include <vector>

#include "quic/send_queue.h"

namespace xlink::quic {
namespace {

SendItem item(int stream_prio, int frame_prio, std::uint64_t length = 1) {
  SendItem it;
  it.stream_priority = stream_prio;
  it.frame_priority = frame_prio;
  it.length = length;
  return it;
}

/// Pops the whole queue, head first.
std::vector<SendItem> drain(SendQueue& q) {
  std::vector<SendItem> out;
  while (!q.empty()) {
    out.push_back(q.front());
    q.pop_front();
  }
  return out;
}

/// (offset, length, frame priority, fin) of each item.
struct Piece {
  std::uint64_t offset;
  std::uint64_t length;
  int prio;
  bool fin;
  bool operator==(const Piece&) const = default;
};
std::vector<Piece> pieces(SendQueue& q) {
  std::vector<Piece> out;
  for (const SendItem& it : drain(q))
    out.push_back({it.offset, it.length, it.frame_priority, it.fin});
  return out;
}

SendItem write_proto(std::uint64_t offset, bool fin) {
  SendItem proto;
  proto.stream_id = 4;
  proto.offset = offset;
  proto.fin = fin;
  proto.stream_priority = -1;
  return proto;
}

TEST(EnqueueItem, PriorityOrdering) {
  SendQueue q;
  q.insert(item(0, 0), InsertMode::kAppend);
  q.insert(item(-1, 0), InsertMode::kAppend);
  // Priority insert lands between class 0 and class -1.
  q.insert(item(0, 0, 2), InsertMode::kPriority);
  // Frame priority dominates stream priority.
  q.insert(item(-5, 1), InsertMode::kPriority);
  // Front-of-class insert lands before equal-class items.
  q.insert(item(0, 0, 3), InsertMode::kFrontOfClass);
  // Append ignores class.
  q.insert(item(9, 9, 4), InsertMode::kAppend);
  const auto got = drain(q);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0].frame_priority, 1);
  EXPECT_EQ(got[1].length, 3u);
  EXPECT_EQ(got[2].length, 1u);
  EXPECT_EQ(got[3].length, 2u);
  EXPECT_EQ(got[4].stream_priority, -1);
  EXPECT_EQ(got[5].length, 4u);
}

TEST(SendQueue, WriteWithoutPriorityIsOneRun) {
  SendQueue q;
  q.enqueue_write(write_proto(100, true), 500, 0, 0, 0);
  EXPECT_EQ(pieces(q), (std::vector<Piece>{{100, 500, 0, true}}));
  // A priority of 0 or below leaves the whole write at the default.
  q.enqueue_write(write_proto(100, true), 500, -2, 0, 200);
  EXPECT_EQ(pieces(q), (std::vector<Piece>{{100, 500, 0, true}}));
}

TEST(SendQueue, WriteSizeZeroIsOneRun) {
  SendQueue q;
  q.enqueue_write(write_proto(0, false), 500, 3, 100, 0);
  EXPECT_EQ(pieces(q), (std::vector<Piece>{{0, 500, 0, false}}));
}

TEST(SendQueue, WritePrefixRunGoesFirst) {
  SendQueue q;
  q.enqueue_write(write_proto(1000, true), 500, 2, 0, 200);
  EXPECT_EQ(pieces(q), (std::vector<Piece>{{1000, 200, 2, false},
                                       {1200, 300, 0, true}}));
}

TEST(SendQueue, WholeWriteRunIsClippedToTheWrite) {
  SendQueue q;
  q.enqueue_write(write_proto(0, true), 500, 1, 0, 10'000);
  EXPECT_EQ(pieces(q), (std::vector<Piece>{{0, 500, 1, true}}));
}

TEST(SendQueue, MiddleRunSplitsTheWriteInThree) {
  SendQueue q;
  q.enqueue_write(write_proto(0, true), 500, 1, 100, 50);
  // The prioritized middle run jumps ahead of its own write's class-0
  // runs, which keep their order.
  EXPECT_EQ(pieces(q), (std::vector<Piece>{{100, 50, 1, false},
                                       {0, 100, 0, false},
                                       {150, 350, 0, true}}));
}

TEST(SendQueue, EmptyWriteQueuesABareFin) {
  SendQueue q;
  q.enqueue_write(write_proto(700, true), 0, 1, 0, 10);
  EXPECT_EQ(pieces(q), (std::vector<Piece>{{700, 0, 0, true}}));
  q.enqueue_write(write_proto(700, false), 0, 1, 0, 10);
  EXPECT_TRUE(q.empty());
}

TEST(SendQueue, EnqueueUnackedQueuesOnlyTheGaps) {
  SendStream stream(4);
  stream.write(std::vector<std::uint8_t>(1000, 0), true);
  stream.on_range_acked(200, 300);
  stream.on_range_acked(600, 1000);
  SendQueue q;
  SendItem proto;
  proto.stream_id = 4;
  proto.offset = 100;
  proto.length = 900;
  proto.fin = true;
  proto.is_retransmission = true;
  EXPECT_EQ(q.enqueue_unacked(stream, proto, InsertMode::kAppend), 400u);
  const auto got = drain(q);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].offset, 100u);
  EXPECT_EQ(got[0].length, 100u);
  EXPECT_EQ(got[1].offset, 300u);
  EXPECT_EQ(got[1].length, 300u);
  // The FIN rode on the acked tail, so no copy carries it.
  EXPECT_FALSE(got[0].fin || got[1].fin);
  EXPECT_TRUE(got[0].is_retransmission && got[1].is_retransmission);
}

TEST(SendQueue, EnqueueUnackedBareFinWhileStreamUnacked) {
  SendStream stream(4);
  stream.write(std::vector<std::uint8_t>(100, 0), true);
  SendItem fin;
  fin.stream_id = 4;
  fin.offset = 100;
  fin.fin = true;
  SendQueue q;
  EXPECT_EQ(q.enqueue_unacked(stream, fin, InsertMode::kFrontOfClass), 0u);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.front().fin);
  q.pop_front();
  // Once everything is acked the bare FIN has nothing left to deliver.
  stream.on_range_acked(0, 100);
  EXPECT_EQ(q.enqueue_unacked(stream, fin, InsertMode::kFrontOfClass), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(SendQueue, FrontierIgnoresReinjections) {
  SendQueue q;
  EXPECT_FALSE(q.first_transmission_frontier().has_value());
  SendItem dup = item(0, 5);
  dup.is_reinjection = true;
  q.insert(dup, InsertMode::kPriority);
  EXPECT_FALSE(q.first_transmission_frontier().has_value());
  q.insert(item(-2, 0), InsertMode::kAppend);
  SendItem retx = item(-1, 0);
  retx.is_retransmission = true;  // a retransmission still counts
  q.insert(retx, InsertMode::kAppend);
  EXPECT_EQ(q.first_transmission_frontier(), (ItemClass{0, -1}));
  EXPECT_EQ(q.bytes(), 3u);
}

TEST(SendQueue, RequeueFrontRestoresPacketOrderAsRetransmissions) {
  SendQueue q;
  q.insert(item(0, 0, 9), InsertMode::kAppend);
  SendItem first = item(0, 0, 1);
  SendItem dup = item(0, 0, 2);
  dup.is_reinjection = true;
  SendItem third = item(0, 0, 3);
  q.requeue_front({first, dup, third});
  const auto got = drain(q);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].length, 1u);
  EXPECT_EQ(got[1].length, 2u);
  EXPECT_EQ(got[2].length, 3u);
  EXPECT_EQ(got[3].length, 9u);
  EXPECT_TRUE(got[0].is_retransmission);
  // A re-injection stays a re-injection.
  EXPECT_TRUE(got[1].is_reinjection);
  EXPECT_FALSE(got[1].is_retransmission);
  EXPECT_TRUE(got[2].is_retransmission);
  EXPECT_FALSE(got[3].is_retransmission);
}

}  // namespace
}  // namespace xlink::quic
