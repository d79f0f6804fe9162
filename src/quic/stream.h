// QUIC streams and the stream table that owns them.
//
// The connection's SendQueue (send_queue.h, the paper's pkt_send_q) holds
// the packetization order; streams own their byte buffers, retransmission
// source data, ack state and reassembly. XLINK's stream_send API attaches
// priorities at two levels: per-stream priority (early chunk streams
// outrank later ones), kept here, and per-range "video frame" priority
// inside a write (the first video frame outranks the rest of its stream),
// which travels on the queued SendItems and their SentRecords.
//
// StreamTable holds one connection's streams and makes every stream-credit
// decision (RFC 9000 §4): how much a first transmission may take, whether
// an incoming STREAM frame is admitted, what the peer's limits are after
// its transport params, MAX_DATA and MAX_STREAM_DATA, and which grants a
// read earns. Per-stream credit lives on the streams, connection-level
// credit in the table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "quic/frame.h"
#include "quic/guard.h"
#include "quic/interval_set.h"
#include "quic/scheduler.h"
#include "quic/types.h"

namespace xlink::quic {

class SendStream {
 public:
  explicit SendStream(StreamId id) : id_(id) {}

  StreamId id() const { return id_; }

  /// Appends data; returns the offset at which it was placed.
  std::uint64_t write(std::vector<std::uint8_t> data, bool fin);

  /// Stream-level priority; smaller stream ids default to higher priority
  /// (earlier chunks of a video play first). Higher value wins.
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }

  /// Borrowed view of [offset, offset+len), clamped to written data. Valid
  /// until the next write(); the send path seals the packet synchronously,
  /// so it never holds the view across a mutation.
  std::span<const std::uint8_t> view_range(std::uint64_t offset,
                                           std::size_t len) const;

  void on_range_acked(std::uint64_t begin, std::uint64_t end);
  bool range_acked(std::uint64_t begin, std::uint64_t end) const {
    return acked_.contains(begin, end);
  }

  /// Subranges of [begin, end) not yet acknowledged; what retransmission
  /// and re-injection actually need to duplicate.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> unacked_within(
      std::uint64_t begin, std::uint64_t end) const;

  /// All data (and fin, if written) acknowledged.
  bool fully_acked() const;

 private:
  friend class StreamTable;

  StreamId id_;
  int priority_ = 0;
  std::vector<std::uint8_t> buffer_;
  bool fin_written_ = false;
  IntervalSet acked_;
  std::uint64_t peer_max_stream_data_ = 0;  // largest MAX_STREAM_DATA seen
};

class RecvStream {
 public:
  explicit RecvStream(StreamId id) : id_(id) {}

  StreamId id() const { return id_; }

  /// Ingests a STREAM frame payload (borrowed from the receive buffer on
  /// the hot path). Duplicate/overlapping ranges are fine (re-injected
  /// packets arrive as duplicates by design).
  void on_data(std::uint64_t offset, std::span<const std::uint8_t> data,
               bool fin);
  void on_data(std::uint64_t offset, std::initializer_list<std::uint8_t> data,
               bool fin) {
    on_data(offset, std::span<const std::uint8_t>(data.begin(), data.size()),
            fin);
  }

  /// Contiguous bytes available past the read offset.
  std::uint64_t readable_bytes() const;

  /// Consumes up to `max` readable bytes.
  std::vector<std::uint8_t> read(std::size_t max);

  /// Total contiguously received prefix length.
  std::uint64_t contiguous_received() const { return received_.next_gap(0); }

  std::uint64_t read_offset() const { return read_offset_; }
  std::optional<std::uint64_t> final_size() const { return final_size_; }

  /// Fully received (regardless of how much the app has read).
  bool fully_received() const {
    return final_size_ && contiguous_received() >= *final_size_;
  }

  /// Caps reassembly fragmentation (hostile-peer hardening): whenever the
  /// tracked interval count exceeds `n`, the smallest gap is collapsed and
  /// its bytes read as phantom zeros until -- if ever -- the real data
  /// arrives and overwrites them (on_data copies unconditionally). Only an
  /// adversarial spray reaches the cap; 0 = unlimited.
  void set_max_gaps(std::size_t n) { max_gaps_ = n; }
  std::uint64_t gap_collapses() const { return gap_collapses_; }
  std::uint64_t phantom_bytes() const { return phantom_bytes_; }
  std::size_t tracked_intervals() const { return received_.interval_count(); }

 private:
  friend class StreamTable;

  StreamId id_;
  std::vector<std::uint8_t> buffer_;
  IntervalSet received_;
  std::uint64_t read_offset_ = 0;
  std::optional<std::uint64_t> final_size_;
  std::size_t max_gaps_ = 0;
  std::uint64_t gap_collapses_ = 0;
  std::uint64_t phantom_bytes_ = 0;
  std::uint64_t max_stream_data_ = 0;  // our grant to the peer
  std::uint64_t received_high_ = 0;    // highest offset charged to credit
  bool finished_notified_ = false;
};

class StreamTable {
 public:
  /// `local` holds this endpoint's windows: the grants it makes, and the
  /// peer's limits on us until the peer's params arrive. `budgets` caps the
  /// receive streams and reassembly gaps a peer can create.
  StreamTable(const TransportParams& local, const ResourceBudgets& budgets)
      : window_(local.initial_max_data),
        stream_window_(local.initial_max_stream_data),
        max_open_recv_streams_(budgets.max_open_recv_streams),
        max_recv_gaps_(budgets.max_recv_gaps_per_stream),
        peer_stream_window_(local.initial_max_stream_data),
        peer_max_data_(local.initial_max_data),
        local_max_data_(local.initial_max_data) {}

  /// Opens the next client-initiated bidirectional send stream.
  StreamId open() {
    const StreamId id = client_bidi_stream(next_stream_++);
    send_.emplace(id, SendStream(id));
    return id;
  }
  /// Send stream `id`, created on first use.
  SendStream& send_or_create(StreamId id) {
    return send_.try_emplace(id, id).first->second;
  }
  SendStream* send(StreamId id) { return find(send_, id); }
  RecvStream* recv(StreamId id) { return find(recv_, id); }
  const RecvStream* recv(StreamId id) const { return find(recv_, id); }
  std::size_t recv_count() const { return recv_.size(); }

  // ---- send side: the peer's limits on us ---------------------------
  /// Bytes `item` of `stream` may put on the wire now. A first
  /// transmission is bounded by connection and stream credit; a
  /// retransmission or re-injection carries counted offsets and is not.
  std::uint64_t credit(const SendStream& stream, const SendItem& item) const {
    if (item.is_retransmission || item.is_reinjection)
      return std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t limit =
        std::max(peer_stream_window_, stream.peer_max_stream_data_);
    return std::min(peer_max_data_ > data_sent_ ? peer_max_data_ - data_sent_
                                                : 0,
                    limit > item.offset ? limit - item.offset : 0);
  }
  /// Charges first-transmission bytes to the peer's MAX_DATA.
  void on_first_transmission(std::uint64_t bytes) { data_sent_ += bytes; }

  void on_peer_params(const TransportParams& peer) {
    peer_max_data_ = peer.initial_max_data;
    peer_stream_window_ = peer.initial_max_stream_data;
  }
  void on_max_data(std::uint64_t maximum) {
    peer_max_data_ = std::max(peer_max_data_, maximum);
  }
  /// Raises the named send stream's limit. A frame that would lower it, or
  /// that names no send stream, is ignored (RFC 9000 §19.10) and
  /// allocates nothing.
  void on_max_stream_data(const MaxStreamDataFrame& f) {
    if (SendStream* s = send(f.stream_id))
      s->peer_max_stream_data_ = std::max(s->peer_max_stream_data_, f.maximum);
  }

  // ---- receive side: our grants to the peer -------------------------
  /// Verdict on one STREAM frame: its stream, or null and the reason.
  struct Admission {
    RecvStream* stream = nullptr;
    TransportError error = TransportError::kNoError;
    ViolationKind kind = ViolationKind::kConnectionFlowControl;
    std::uint64_t observed = 0;
  };
  /// Checks stream id shape, the open-stream budget, final size, stream
  /// credit and connection credit, in that order and before any byte is
  /// copied. An admitted frame's stream exists (created on first sight);
  /// a refused frame changes nothing.
  Admission admit(const StreamFrame& f);
  /// Copies an admitted frame into `stream`, charging the bytes past its
  /// highest offset so far to the connection credit.
  void receive(RecvStream& stream, const StreamFrame& f);
  /// True the first time it is asked once `stream` is fully received.
  bool first_finish(RecvStream& stream);

  /// What a read of `bytes` from `stream` earns: MAX_DATA once half the
  /// connection window is consumed, MAX_STREAM_DATA once half the
  /// stream's is. No other stream can have crossed its half-window.
  struct Grants {
    std::optional<MaxDataFrame> max_data;
    std::optional<MaxStreamDataFrame> max_stream_data;
  };
  Grants on_read(RecvStream& stream, std::uint64_t bytes);

  // Connection-level counters (the auditor's flow-control checks).
  std::uint64_t peer_max_data() const { return peer_max_data_; }
  std::uint64_t local_max_data() const { return local_max_data_; }
  std::uint64_t data_sent() const { return data_sent_; }
  std::uint64_t data_received() const { return data_received_; }
  std::uint64_t data_consumed() const { return data_consumed_; }

 private:
  template <class Map>
  static auto find(Map& streams, StreamId id)
      -> decltype(&streams.begin()->second) {
    auto it = streams.find(id);
    return it == streams.end() ? nullptr : &it->second;
  }

  const std::uint64_t window_;         // our MAX_DATA window
  const std::uint64_t stream_window_;  // our MAX_STREAM_DATA window
  const std::uint64_t max_open_recv_streams_;
  const std::size_t max_recv_gaps_;

  std::map<StreamId, SendStream> send_;
  std::map<StreamId, RecvStream> recv_;
  StreamId next_stream_ = 0;

  std::uint64_t peer_stream_window_;  // peer's initial_max_stream_data
  std::uint64_t peer_max_data_;
  std::uint64_t local_max_data_;
  std::uint64_t data_sent_ = 0;      // first-transmission bytes
  std::uint64_t data_received_ = 0;  // highest offsets charged, all streams
  std::uint64_t data_consumed_ = 0;  // bytes the application read
};

}  // namespace xlink::quic
