#include "quic/ack_tracker.h"

#include <iterator>

namespace xlink::quic {

void AckTracker::merge(PacketNumber pn) {
  // The ranges run downward: the first one reaching down to pn + 1 holds
  // pn, takes it at either end, or lies wholly below it.
  const auto r = std::ranges::find_if(
      ranges_, [pn](const AckRange& a) { return a.first <= pn + 1; });
  if (r == ranges_.end() || r->last + 1 < pn) {
    ranges_.insert(r, AckRange{pn, pn});
    if (ranges_.size() > kMaxRanges) {
      floor_ = ranges_.back().last + 1;
      ranges_.pop_back();
    }
  } else if (pn == r->last + 1) {
    r->last = pn;  // the range above starts past pn + 1: nothing to bridge
  } else if (pn + 1 == r->first) {
    r->first = pn;
    if (const auto below = std::next(r);
        below != ranges_.end() && below->last + 1 == pn) {
      r->first = below->first;
      ranges_.erase(below);
    }
  }  // else a duplicate
}

}  // namespace xlink::quic
