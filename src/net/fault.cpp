#include "net/fault.h"

#include <algorithm>

#include "telemetry/event.h"

namespace xlink::net {

sim::Time FaultPlan::last_fault_end() const {
  sim::Time last = 0;
  for (const FaultWindow& w : windows)
    last = std::max(last, std::max(w.start, w.end));
  return last;
}

namespace {
FaultWindow window(FaultKind kind, sim::Time start, sim::Duration duration) {
  FaultWindow w;
  w.kind = kind;
  w.start = start;
  w.end = start + duration;
  return w;
}
}  // namespace

FaultPlan& FaultPlan::blackout(sim::Time start, sim::Duration duration) {
  windows.push_back(window(FaultKind::kBlackout, start, duration));
  return *this;
}

FaultPlan& FaultPlan::uplink_drop(sim::Time start, sim::Duration duration) {
  windows.push_back(window(FaultKind::kUplinkDrop, start, duration));
  return *this;
}

FaultPlan& FaultPlan::downlink_drop(sim::Time start, sim::Duration duration) {
  windows.push_back(window(FaultKind::kDownlinkDrop, start, duration));
  return *this;
}

FaultPlan& FaultPlan::corrupt(sim::Time start, sim::Duration duration,
                              double probability) {
  FaultWindow w = window(FaultKind::kCorrupt, start, duration);
  w.probability = probability;
  windows.push_back(w);
  return *this;
}

FaultPlan& FaultPlan::reorder(sim::Time start, sim::Duration duration,
                              double probability, sim::Duration hold) {
  FaultWindow w = window(FaultKind::kReorder, start, duration);
  w.probability = probability;
  w.extra_delay = hold;
  windows.push_back(w);
  return *this;
}

FaultPlan& FaultPlan::delay_spike(sim::Time start, sim::Duration duration,
                                  sim::Duration extra) {
  FaultWindow w = window(FaultKind::kDelaySpike, start, duration);
  w.extra_delay = extra;
  windows.push_back(w);
  return *this;
}

FaultPlan& FaultPlan::nat_rebind(sim::Time at) {
  FaultWindow w;
  w.kind = FaultKind::kNatRebind;
  w.start = at;
  w.end = at;
  windows.push_back(w);
  return *this;
}

FaultInjector::FaultInjector(sim::EventLoop& loop, FaultPlan plan,
                             sim::Rng rng, telemetry::TraceSink* trace,
                             std::uint8_t path_index)
    : loop_(loop),
      plan_(std::move(plan)),
      rng_(rng),
      trace_(trace),
      path_index_(path_index) {
  arm_window_events();
}

void FaultInjector::arm_window_events() {
  for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
    const FaultWindow& w = plan_.windows[i];
    const auto kind = static_cast<std::uint64_t>(w.kind);
    loop_.schedule_at(w.start, [this, i, kind] {
      ++stats_.windows_fired;
      XLINK_TRACE(trace_, telemetry::Event::fault(loop_.now(), path_index_,
                                                  kind, /*active=*/true, i));
      if (plan_.windows[i].kind == FaultKind::kNatRebind) {
        ++stats_.nat_rebinds;
        if (on_nat_rebind) on_nat_rebind();
      }
    });
    if (w.kind != FaultKind::kNatRebind && w.end > w.start) {
      loop_.schedule_at(w.end, [this, i, kind] {
        XLINK_TRACE(trace_,
                    telemetry::Event::fault(loop_.now(), path_index_, kind,
                                            /*active=*/false, i));
      });
    }
  }
}

bool FaultInjector::window_applies(const FaultWindow& w, sim::Time now) const {
  return now >= w.start && now < w.end;
}

bool FaultInjector::admit(Direction dir, Datagram& d) {
  const sim::Time now = loop_.now();
  for (const FaultWindow& w : plan_.windows) {
    if (!window_applies(w, now)) continue;
    switch (w.kind) {
      case FaultKind::kBlackout:
        ++stats_.packets_dropped;
        return false;
      case FaultKind::kUplinkDrop:
        if (dir == Direction::kUp) {
          ++stats_.packets_dropped;
          return false;
        }
        break;
      case FaultKind::kDownlinkDrop:
        if (dir == Direction::kDown) {
          ++stats_.packets_dropped;
          return false;
        }
        break;
      case FaultKind::kCorrupt:
        if (!d.empty() && rng_.chance(w.probability)) {
          // Flip one bit anywhere in the datagram; whether it lands in the
          // header, the payload, or the tag, AEAD open must fail.
          const std::size_t byte = rng_.uniform(d.size());
          d[byte] ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
          ++stats_.packets_corrupted;
        }
        break;
      case FaultKind::kReorder:
      case FaultKind::kDelaySpike:
      case FaultKind::kNatRebind:
        break;  // handled at delivery / window start
    }
  }
  return true;
}

sim::Duration FaultInjector::delivery_delay(Direction /*dir*/) {
  const sim::Time now = loop_.now();
  sim::Duration extra = 0;
  for (const FaultWindow& w : plan_.windows) {
    if (!window_applies(w, now)) continue;
    if (w.kind == FaultKind::kDelaySpike) {
      extra = std::max(extra, w.extra_delay);
    } else if (w.kind == FaultKind::kReorder && rng_.chance(w.probability)) {
      // Held-back datagrams let their successors overtake them.
      extra = std::max(extra, w.extra_delay);
    }
  }
  if (extra > 0) ++stats_.packets_delayed;
  return extra;
}

}  // namespace xlink::net
