// The packet send queue (the paper's pkt_send_q) and every decision about
// its order: an item's priority class, the three InsertModes of Fig. 4, the
// priority runs of one stream_send(position, size) write, the requeue of a
// record's unacked subranges, and the first-transmission frontier that
// gates §5.1 re-injection. Connection packetizes from the head (budget,
// flow control, frames); schedulers only read the queue.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "quic/scheduler.h"
#include "quic/stream.h"

namespace xlink::quic {

/// Priority class of an item: frame priority dominates, then stream
/// priority. A higher class goes earlier in the queue.
using ItemClass = std::pair<int, int>;
inline ItemClass item_class(const SendItem& it) {
  return {it.frame_priority, it.stream_priority};
}

class SendQueue {
 public:
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  const SendItem& front() const { return items_.front(); }
  /// The head may be trimmed in place when a packet takes part of it.
  SendItem& front() { return items_.front(); }
  void pop_front() { items_.pop_front(); }

  /// Inserts `item` per the insertion mode.
  void insert(const SendItem& item, InsertMode mode) {
    switch (mode) {
      case InsertMode::kAppend:
        items_.push_back(item);
        return;
      case InsertMode::kPriority: {
        auto it = std::find_if(items_.begin(), items_.end(),
                               [&](const SendItem& other) {
                                 return item_class(other) < item_class(item);
                               });
        items_.insert(it, item);
        return;
      }
      case InsertMode::kFrontOfClass: {
        auto it = std::find_if(items_.begin(), items_.end(),
                               [&](const SendItem& other) {
                                 return item_class(other) <= item_class(item);
                               });
        items_.insert(it, item);
        return;
      }
    }
  }

  /// Queues one stream write of `len` bytes starting at stream offset
  /// `proto.offset`, in kPriority order. Bytes [position, position+size)
  /// of the write (relative to its start) carry `frame_priority` if it is
  /// above the default 0, the rest carry 0, so the write becomes at most
  /// three items; the last carries `proto.fin`. A zero-length write queues
  /// a bare FIN if `proto.fin` is set.
  void enqueue_write(const SendItem& proto, std::uint64_t len,
                     int frame_priority, std::uint64_t position,
                     std::uint64_t size);

  /// Queues copies of `proto`'s still-unacked subranges of `stream`, each
  /// carrying `proto`'s flags; returns the bytes queued. A zero-length FIN
  /// is queued as-is while the stream is not fully acked.
  std::uint64_t enqueue_unacked(const SendStream& stream,
                                const SendItem& proto, InsertMode mode);

  /// Puts the pieces of a packet that never went on the wire back at the
  /// head, in their original order. First transmissions already charged
  /// flow control, so they return as retransmissions.
  void requeue_front(std::vector<SendItem> pieces);

  /// Highest class still waiting for its first transmission; queued
  /// re-injections do not count. nullopt when none is waiting.
  std::optional<ItemClass> first_transmission_frontier() const {
    std::optional<ItemClass> frontier;
    for (const SendItem& item : items_)
      if (!item.is_reinjection && (!frontier || item_class(item) > *frontier))
        frontier = item_class(item);
    return frontier;
  }

  /// Stream bytes queued (first transmissions and duplicates alike).
  std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const SendItem& item : items_) total += item.length;
    return total;
  }

 private:
  std::deque<SendItem> items_;
};

}  // namespace xlink::quic
