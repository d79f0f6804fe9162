// StreamTable unit tests: first-transmission credit, STREAM-frame
// admission, the peer's limits and the grants a read earns -- on a bare
// table, no Connection, no peer.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "quic/stream.h"

namespace xlink::quic {
namespace {

// Our windows: 1000 bytes per connection, 400 per stream; three receive
// streams at most.
TransportParams local_params() {
  TransportParams p;
  p.initial_max_data = 1000;
  p.initial_max_stream_data = 400;
  return p;
}

ResourceBudgets budgets() {
  ResourceBudgets b;
  b.max_open_recv_streams = 3;
  return b;
}

StreamFrame frame(StreamId id, std::uint64_t offset, std::size_t len,
                  bool fin = false) {
  return StreamFrame{id, offset, std::vector<std::uint8_t>(len, 7), fin};
}

/// Admits and copies one frame; returns its stream, or null if refused.
RecvStream* deliver(StreamTable& t, const StreamFrame& f) {
  const StreamTable::Admission a = t.admit(f);
  if (a.stream) t.receive(*a.stream, f);
  return a.stream;
}

SendItem first_transmission(StreamId id, std::uint64_t offset) {
  SendItem it;
  it.stream_id = id;
  it.offset = offset;
  it.length = 100;
  return it;
}

// ------------------------------------------------------------ send credit

TEST(StreamTable, CreditBeforePeerParamsUsesOwnWindows) {
  StreamTable t(local_params(), budgets());
  const StreamId id = t.open();
  const SendStream& s = *t.send(id);
  EXPECT_EQ(t.credit(s, first_transmission(id, 0)), 400u);
  EXPECT_EQ(t.credit(s, first_transmission(id, 300)), 100u);
  EXPECT_EQ(t.credit(s, first_transmission(id, 500)), 0u);
  // Connection credit binds once it is the smaller.
  t.on_first_transmission(700);
  EXPECT_EQ(t.credit(s, first_transmission(id, 0)), 300u);
  EXPECT_EQ(t.data_sent(), 700u);
}

TEST(StreamTable, CreditFollowsPeerParams) {
  StreamTable t(local_params(), budgets());
  const StreamId id = t.open();
  TransportParams peer;
  peer.initial_max_data = 5000;
  peer.initial_max_stream_data = 2000;
  t.on_peer_params(peer);
  EXPECT_EQ(t.peer_max_data(), 5000u);
  const SendStream& s = *t.send(id);
  EXPECT_EQ(t.credit(s, first_transmission(id, 0)), 2000u);
  EXPECT_EQ(t.credit(s, first_transmission(id, 1500)), 500u);
  t.on_first_transmission(4800);
  EXPECT_EQ(t.credit(s, first_transmission(id, 0)), 200u);
}

TEST(StreamTable, DuplicatesAreNotBoundedByCredit) {
  StreamTable t(local_params(), budgets());
  const StreamId id = t.open();
  const SendStream& s = *t.send(id);
  t.on_first_transmission(1000);  // connection credit exhausted
  EXPECT_EQ(t.credit(s, first_transmission(id, 0)), 0u);
  SendItem retx = first_transmission(id, 0);
  retx.is_retransmission = true;
  SendItem reinj = first_transmission(id, 900);  // past the stream limit
  reinj.is_reinjection = true;
  EXPECT_EQ(t.credit(s, retx), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(t.credit(s, reinj), std::numeric_limits<std::uint64_t>::max());
}

TEST(StreamTable, MaxDataOnlyRaises) {
  StreamTable t(local_params(), budgets());
  t.on_max_data(2000);
  EXPECT_EQ(t.peer_max_data(), 2000u);
  t.on_max_data(10);
  EXPECT_EQ(t.peer_max_data(), 2000u);
}

TEST(StreamTable, MaxStreamDataOnlyRaises) {
  StreamTable t(local_params(), budgets());
  t.on_max_data(5000);
  const StreamId id = t.open();
  const SendStream& s = *t.send(id);
  // Below the initial limit: the initial limit still holds.
  t.on_max_stream_data({id, 1});
  EXPECT_EQ(t.credit(s, first_transmission(id, 0)), 400u);
  t.on_max_stream_data({id, 900});
  EXPECT_EQ(t.credit(s, first_transmission(id, 0)), 900u);
  t.on_max_stream_data({id, 500});
  EXPECT_EQ(t.credit(s, first_transmission(id, 0)), 900u);
}

TEST(StreamTable, MaxStreamDataForUnknownStreamIsIgnored) {
  StreamTable t(local_params(), budgets());
  const StreamId next = client_bidi_stream(0);
  t.on_max_stream_data({next, 1});
  EXPECT_EQ(t.send(next), nullptr);  // nothing allocated
  const StreamId id = t.open();
  ASSERT_EQ(id, next);
  EXPECT_EQ(t.credit(*t.send(id), first_transmission(id, 0)), 400u);
}

// -------------------------------------------------------------- admission

/// The receive-side state a refused frame must leave alone.
struct RecvSnapshot {
  std::uint64_t data_received;
  std::size_t streams;
  std::uint64_t contiguous;  // of stream 0, if it exists
  std::optional<std::uint64_t> final_size;
  bool operator==(const RecvSnapshot&) const = default;
};
RecvSnapshot snapshot(const StreamTable& t) {
  const RecvStream* s = t.recv(0);
  return {t.data_received(), t.recv_count(), s ? s->contiguous_received() : 0,
          s ? s->final_size() : std::nullopt};
}

void expect_refused(StreamTable& t, const StreamFrame& f, TransportError error,
                    ViolationKind kind, std::uint64_t observed) {
  const RecvSnapshot before = snapshot(t);
  const StreamTable::Admission a = t.admit(f);
  EXPECT_EQ(a.stream, nullptr);
  EXPECT_EQ(a.error, error);
  EXPECT_EQ(a.kind, kind);
  EXPECT_EQ(a.observed, observed);
  EXPECT_TRUE(snapshot(t) == before);
}

TEST(StreamTable, AdmitCreatesStreamAndChargesNewBytes) {
  StreamTable t(local_params(), budgets());
  RecvStream* s = deliver(t, frame(0, 0, 10));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(t.recv(0), s);
  EXPECT_EQ(s->contiguous_received(), 10u);
  EXPECT_EQ(t.data_received(), 10u);
  // A duplicate is admitted and charges nothing new.
  EXPECT_EQ(deliver(t, frame(0, 0, 10)), s);
  EXPECT_EQ(t.data_received(), 10u);
}

TEST(StreamTable, RefusesFabricatedStreamId) {
  StreamTable t(local_params(), budgets());
  expect_refused(t, frame(3, 0, 1), TransportError::kStreamStateError,
                 ViolationKind::kStreamIdInvalid, 3);
}

TEST(StreamTable, RefusesStreamBeyondOpenBudget) {
  StreamTable t(local_params(), budgets());
  for (StreamId id : {0, 4, 8}) ASSERT_NE(deliver(t, frame(id, 0, 1)), nullptr);
  expect_refused(t, frame(12, 0, 1), TransportError::kStreamLimitError,
                 ViolationKind::kStreamLimit, 4);
  // Streams already open are still admitted at the budget.
  EXPECT_NE(deliver(t, frame(8, 1, 1)), nullptr);
}

TEST(StreamTable, RefusesMovedFinalSize) {
  StreamTable t(local_params(), budgets());
  ASSERT_NE(deliver(t, frame(0, 0, 2, /*fin=*/true)), nullptr);
  expect_refused(t, frame(0, 2, 1), TransportError::kFinalSizeError,
                 ViolationKind::kFinalSizeChanged, 3);
  expect_refused(t, frame(0, 0, 1, /*fin=*/true),
                 TransportError::kFinalSizeError,
                 ViolationKind::kFinalSizeChanged, 1);
}

TEST(StreamTable, RefusesStreamCreditOverrunBeforeCreatingStream) {
  StreamTable t(local_params(), budgets());
  expect_refused(t, frame(0, 400, 1), TransportError::kFlowControlError,
                 ViolationKind::kStreamFlowControl, 401);
  EXPECT_EQ(t.recv(0), nullptr);
  // Up to the grant is fine.
  EXPECT_NE(deliver(t, frame(0, 399, 1)), nullptr);
}

TEST(StreamTable, RefusesConnectionCreditOverrun) {
  StreamTable t(local_params(), budgets());
  // Sparse frames charge up to their highest offset: 400 + 400 of 1000.
  ASSERT_NE(deliver(t, frame(0, 399, 1)), nullptr);
  ASSERT_NE(deliver(t, frame(4, 399, 1)), nullptr);
  EXPECT_EQ(t.data_received(), 800u);
  expect_refused(t, frame(8, 200, 1), TransportError::kFlowControlError,
                 ViolationKind::kConnectionFlowControl, 1001);
  EXPECT_NE(deliver(t, frame(8, 199, 1)), nullptr);
  EXPECT_EQ(t.data_received(), 1000u);
}

// ----------------------------------------------------------------- grants

/// Reads `n` bytes of stream `id` and returns the grants the read earns.
StreamTable::Grants read(StreamTable& t, StreamId id, std::size_t n) {
  RecvStream& s = *t.recv(id);
  return t.on_read(s, s.read(n).size());
}

TEST(StreamTable, GrantsAtHalfWindowForTheStreamRead) {
  StreamTable t(local_params(), budgets());
  ASSERT_NE(deliver(t, frame(0, 0, 400)), nullptr);
  ASSERT_NE(deliver(t, frame(4, 0, 300)), nullptr);

  auto g = read(t, 0, 150);  // 250 of 400 left on stream 0
  EXPECT_FALSE(g.max_data);
  EXPECT_FALSE(g.max_stream_data);
  g = read(t, 0, 100);  // 150 left: under half, stream 0 only
  EXPECT_FALSE(g.max_data);
  ASSERT_TRUE(g.max_stream_data);
  EXPECT_EQ(*g.max_stream_data, (MaxStreamDataFrame{0, 650}));
  g = read(t, 0, 150);
  EXPECT_FALSE(g.max_stream_data);

  g = read(t, 4, 200);  // 600 of 1000 consumed: connection grant only
  ASSERT_TRUE(g.max_data);
  EXPECT_EQ(*g.max_data, (MaxDataFrame{1600}));
  EXPECT_EQ(t.local_max_data(), 1600u);
  EXPECT_FALSE(g.max_stream_data);
  g = read(t, 4, 100);
  EXPECT_FALSE(g.max_data);
  ASSERT_TRUE(g.max_stream_data);
  EXPECT_EQ(*g.max_stream_data, (MaxStreamDataFrame{4, 700}));
  EXPECT_EQ(t.data_consumed(), 700u);

  // The raised grant admits up to its new limit and no further.
  EXPECT_NE(deliver(t, frame(0, 400, 250)), nullptr);
  expect_refused(t, frame(0, 650, 1), TransportError::kFlowControlError,
                 ViolationKind::kStreamFlowControl, 651);
}

TEST(StreamTable, FinishedFiresOncePerStream) {
  StreamTable t(local_params(), budgets());
  RecvStream& a = *deliver(t, frame(0, 2, 1, /*fin=*/true));
  EXPECT_FALSE(t.first_finish(a));  // FIN seen, [0, 2) still missing
  deliver(t, frame(0, 0, 2));
  EXPECT_TRUE(t.first_finish(a));
  EXPECT_FALSE(t.first_finish(a));
  deliver(t, frame(0, 0, 3, /*fin=*/true));  // a duplicate changes nothing
  EXPECT_FALSE(t.first_finish(a));

  RecvStream& b = *deliver(t, frame(4, 0, 0, /*fin=*/true));
  EXPECT_TRUE(t.first_finish(b));
  EXPECT_FALSE(t.first_finish(b));
}

}  // namespace
}  // namespace xlink::quic
