// Deterministic fault injection for emulated paths.
//
// A FaultPlan is a script of timed fault windows attached to one
// EmulatedPath. The FaultInjector sits between the transport and the
// path's two links: it may drop a datagram at ingress (blackout,
// directional drop), flip bits in it (corruption the AEAD must reject),
// hold it back (reorder burst, delay spike), or fire a point event (NAT
// rebind, which the harness wires to the connection's path re-validation).
// All probabilistic decisions draw from the session's forked sim::Rng, so
// every chaos run replays bit-identically at any XLINK_JOBS.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/datagram.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "telemetry/trace_sink.h"

namespace xlink::net {

enum class FaultKind : std::uint8_t {
  kBlackout = 0,   // drop every datagram, both directions
  kUplinkDrop,     // drop client->server only (kills requests + client acks)
  kDownlinkDrop,   // drop server->client only (kills data + server acks)
  kCorrupt,        // flip bits; AEAD must reject the datagram
  kReorder,        // hold back random datagrams so later ones overtake
  kDelaySpike,     // add extra one-way latency to every datagram
  kNatRebind,      // point event: the path's 4-tuple changed; re-validate
};

/// One timed fault. For kNatRebind only `start` matters; the window kinds
/// apply within [start, end).
struct FaultWindow {
  FaultKind kind = FaultKind::kBlackout;
  sim::Time start = 0;
  sim::Time end = 0;
  /// Per-datagram probability for kCorrupt / kReorder (window kinds that
  /// affect every datagram ignore it).
  double probability = 1.0;
  /// kReorder: how long a held-back datagram waits; kDelaySpike: the added
  /// one-way latency.
  sim::Duration extra_delay = sim::millis(50);
};

/// A script of fault windows for one path. Builder methods return *this so
/// plans read as a sentence in tests and benches.
struct FaultPlan {
  std::vector<FaultWindow> windows;

  bool empty() const { return windows.empty(); }
  /// End of the last window (the "all faults cleared" horizon).
  sim::Time last_fault_end() const;

  FaultPlan& blackout(sim::Time start, sim::Duration duration);
  FaultPlan& uplink_drop(sim::Time start, sim::Duration duration);
  FaultPlan& downlink_drop(sim::Time start, sim::Duration duration);
  FaultPlan& corrupt(sim::Time start, sim::Duration duration,
                     double probability = 1.0);
  FaultPlan& reorder(sim::Time start, sim::Duration duration,
                     double probability = 0.5,
                     sim::Duration hold = sim::millis(50));
  FaultPlan& delay_spike(sim::Time start, sim::Duration duration,
                         sim::Duration extra);
  FaultPlan& nat_rebind(sim::Time at);
};

struct FaultStats {
  std::uint64_t windows_fired = 0;   // windows whose start time was reached
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t packets_delayed = 0;
  std::uint64_t nat_rebinds = 0;
};

/// Applies one path's FaultPlan. Owned by the EmulatedPath; schedules one
/// event per window boundary at construction so faults fire (and are
/// traced) even on an otherwise idle path.
class FaultInjector {
 public:
  enum class Direction { kUp, kDown };

  FaultInjector(sim::EventLoop& loop, FaultPlan plan, sim::Rng rng,
                telemetry::TraceSink* trace, std::uint8_t path_index);

  /// Ingress filter: returns false when the datagram must be dropped; may
  /// corrupt `d` in place (the AEAD rejects it at the receiver).
  bool admit(Direction dir, Datagram& d);

  /// Extra hold applied at the delivery end of the link (reorder bursts,
  /// delay spikes). 0 outside any matching window.
  sim::Duration delivery_delay(Direction dir);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// Fired at each kNatRebind window's start; the harness points this at
  /// Connection::rebind_path so the path re-validates via PATH_CHALLENGE.
  std::function<void()> on_nat_rebind;

 private:
  void arm_window_events();
  bool window_applies(const FaultWindow& w, sim::Time now) const;

  sim::EventLoop& loop_;
  FaultPlan plan_;
  sim::Rng rng_;
  telemetry::TraceSink* trace_;
  std::uint8_t path_index_;
  FaultStats stats_;
};

}  // namespace xlink::net
