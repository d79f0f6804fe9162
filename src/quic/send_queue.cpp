#include "quic/send_queue.h"

namespace xlink::quic {

void SendQueue::enqueue_write(const SendItem& proto, std::uint64_t len,
                              int frame_priority, std::uint64_t position,
                              std::uint64_t size) {
  auto run = [&](std::uint64_t begin, std::uint64_t end, int prio) {
    if (begin == end && !(len == 0 && proto.fin)) return;
    SendItem item = proto;
    item.offset = proto.offset + begin;
    item.length = end - begin;
    item.fin = proto.fin && end == len;
    item.frame_priority = prio;
    insert(item, InsertMode::kPriority);
  };
  // The prioritized run [lo, hi), clipped to the write; empty if the
  // priority is no higher than the default.
  const std::uint64_t lo = std::min(position, len);
  const std::uint64_t hi =
      frame_priority > 0 ? lo + std::min(size, len - lo) : lo;
  if (lo == hi) {
    run(0, len, 0);
    return;
  }
  run(0, lo, 0);
  run(lo, hi, frame_priority);
  run(hi, len, 0);
}

std::uint64_t SendQueue::enqueue_unacked(const SendStream& stream,
                                         const SendItem& proto,
                                         InsertMode mode) {
  if (proto.length == 0) {
    if (proto.fin && !stream.fully_acked()) insert(proto, mode);
    return 0;
  }
  const std::uint64_t end = proto.offset + proto.length;
  std::uint64_t queued = 0;
  for (const auto& [b, e] : stream.unacked_within(proto.offset, end)) {
    SendItem dup = proto;
    dup.offset = b;
    dup.length = e - b;
    dup.fin = proto.fin && e == end;
    insert(dup, mode);
    queued += dup.length;
  }
  return queued;
}

void SendQueue::requeue_front(std::vector<SendItem> pieces) {
  for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) {
    if (!it->is_reinjection) it->is_retransmission = true;
    items_.push_front(std::move(*it));
  }
}

}  // namespace xlink::quic
