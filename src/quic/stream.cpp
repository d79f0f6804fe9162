#include "quic/stream.h"

#include <algorithm>

namespace xlink::quic {

std::uint64_t SendStream::write(std::vector<std::uint8_t> data, bool fin) {
  const std::uint64_t offset = buffer_.size();
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  if (fin) fin_written_ = true;
  return offset;
}

std::span<const std::uint8_t> SendStream::view_range(std::uint64_t offset,
                                                     std::size_t len) const {
  if (offset >= buffer_.size()) return {};
  const std::size_t n =
      std::min<std::uint64_t>(len, buffer_.size() - offset);
  return {buffer_.data() + offset, n};
}

void SendStream::on_range_acked(std::uint64_t begin, std::uint64_t end) {
  acked_.add(begin, end);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> SendStream::unacked_within(
    std::uint64_t begin, std::uint64_t end) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::uint64_t cursor = begin;
  for (const auto& [b, e] : acked_.intervals()) {
    if (e <= cursor) continue;
    if (b >= end) break;
    if (b > cursor) out.emplace_back(cursor, std::min(b, end));
    cursor = std::max(cursor, e);
    if (cursor >= end) break;
  }
  if (cursor < end) out.emplace_back(cursor, end);
  return out;
}

bool SendStream::fully_acked() const {
  if (!fin_written_) return false;
  if (buffer_.empty()) return true;
  return acked_.contains(0, buffer_.size());
}

void RecvStream::on_data(std::uint64_t offset,
                         std::span<const std::uint8_t> data, bool fin) {
  if (fin) {
    const std::uint64_t fs = offset + data.size();
    if (!final_size_) final_size_ = fs;
  }
  if (!data.empty()) {
    if (buffer_.size() < offset + data.size())
      buffer_.resize(offset + data.size());
    std::copy(data.begin(), data.end(),
              buffer_.begin() + static_cast<long>(offset));
    received_.add(offset, offset + data.size());
    if (max_gaps_ && received_.interval_count() > max_gaps_) {
      const std::uint64_t phantom = received_.collapse_to(max_gaps_);
      if (phantom > 0) {
        ++gap_collapses_;
        phantom_bytes_ += phantom;
      }
    }
  }
}

std::uint64_t RecvStream::readable_bytes() const {
  const std::uint64_t contiguous = received_.next_gap(0);
  return contiguous > read_offset_ ? contiguous - read_offset_ : 0;
}

std::vector<std::uint8_t> RecvStream::read(std::size_t max) {
  const std::uint64_t n = std::min<std::uint64_t>(max, readable_bytes());
  std::vector<std::uint8_t> out(
      buffer_.begin() + static_cast<long>(read_offset_),
      buffer_.begin() + static_cast<long>(read_offset_ + n));
  read_offset_ += n;
  return out;
}

StreamTable::Admission StreamTable::admit(const StreamFrame& f) {
  using E = TransportError;
  using V = ViolationKind;
  // Only client-initiated bidirectional ids exist in this transport
  // (open() hands out 4n); any other shape is fabricated.
  if ((f.stream_id & 0x3) != 0)
    return {nullptr, E::kStreamStateError, V::kStreamIdInvalid, f.stream_id};
  RecvStream* stream = recv(f.stream_id);
  if (!stream && recv_.size() >= max_open_recv_streams_)
    return {nullptr, E::kStreamLimitError, V::kStreamLimit, recv_.size() + 1};

  // A stream not seen before has no data, no FIN and the initial grant.
  const std::uint64_t new_high = f.offset + f.data.size();
  const std::uint64_t prev_high =
      stream ? std::max(stream->read_offset_, stream->received_high_) : 0;
  // Final-size integrity (RFC 9000 §4.5): the FIN offset may not move and
  // no data may lie beyond it.
  const auto fs = stream ? stream->final_size_ : std::nullopt;
  if (fs && (new_high > *fs || (f.fin && new_high != *fs)))
    return {nullptr, E::kFinalSizeError, V::kFinalSizeChanged, new_high};
  // Credit BEFORE the copy: an offset bomb must not be able to force a
  // giant reassembly-buffer resize.
  if (new_high > (stream ? stream->max_stream_data_ : stream_window_))
    return {nullptr, E::kFlowControlError, V::kStreamFlowControl, new_high};
  const std::uint64_t charged =
      data_received_ + (new_high > prev_high ? new_high - prev_high : 0);
  if (charged > local_max_data_)
    return {nullptr, E::kFlowControlError, V::kConnectionFlowControl, charged};

  if (!stream) {
    stream = &recv_.try_emplace(f.stream_id, f.stream_id).first->second;
    stream->set_max_gaps(max_recv_gaps_);
    stream->max_stream_data_ = stream_window_;
  }
  return {stream};
}

void StreamTable::receive(RecvStream& stream, const StreamFrame& f) {
  const std::uint64_t new_high = f.offset + f.data.size();
  const std::uint64_t prev_high =
      std::max(stream.read_offset_, stream.received_high_);
  stream.on_data(f.offset, f.data, f.fin);
  if (new_high > prev_high) {
    data_received_ += new_high - prev_high;
    stream.received_high_ = new_high;
  }
}

bool StreamTable::first_finish(RecvStream& stream) {
  if (stream.finished_notified_ || !stream.fully_received()) return false;
  stream.finished_notified_ = true;
  return true;
}

StreamTable::Grants StreamTable::on_read(RecvStream& stream,
                                         std::uint64_t bytes) {
  data_consumed_ += bytes;
  Grants grants;
  if (local_max_data_ - data_consumed_ < window_ / 2) {
    local_max_data_ = data_consumed_ + window_;
    grants.max_data = MaxDataFrame{local_max_data_};
  }
  if (stream.max_stream_data_ - stream.read_offset_ < stream_window_ / 2) {
    stream.max_stream_data_ = stream.read_offset_ + stream_window_;
    grants.max_stream_data =
        MaxStreamDataFrame{stream.id_, stream.max_stream_data_};
  }
  return grants;
}

}  // namespace xlink::quic
