// Tracing seams: wrappers installed around the public hooks of a Session
// so the ledger can time each layer without touching the simulator.
//
//   network().path(i).set_{down,up}_receiver -> Connection::on_datagram
//       (quic.rx_client / quic.rx_server)
//   Connection::set_send_callback -> EmulatedPath::send_{up,down} (net.tx)
//   the chained Connection::on_stream_readable / on_stream_data_finished
//       (http.server / http.client)
//   SessionConfig::server_scheduler_override = forwarding decorator over
//       the scheme's own scheduler (sched)
//
// The wrappers only forward, so a wrapped session's result is identical to
// an unwrapped one (checked per session by digest).
#pragma once

#include <cstdint>
#include <memory>

#include "harness/scenario.h"
#include "ledger.h"
#include "quic/scheduler.h"

namespace perfbench {

namespace harness = xlink::harness;

struct SchedCounters {
  std::uint64_t select_calls = 0;
  std::uint64_t select_none = 0;      // select_path returned no path
  std::uint64_t reinject_calls = 0;
  std::uint64_t reinject_queued = 0;  // maybe_reinject grew the send queue
  std::uint64_t event_calls = 0;      // on_qoe / on_loss / on_pto

  std::uint64_t calls() const {
    return select_calls + reinject_calls + event_calls;
  }
  void merge(const SchedCounters& o);
};

/// Everything the seams of one session record.
struct SessionProbe {
  Ledger ledger;
  SchedCounters sched;

  void merge(const SessionProbe& o) {
    ledger.merge(o.ledger);
    sched.merge(o.sched);
  }
};

/// Forwarding scheduler decorator: every call is a `sched` span.
class TracingScheduler final : public xlink::quic::Scheduler {
 public:
  TracingScheduler(std::shared_ptr<xlink::quic::Scheduler> inner,
                   SessionProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::optional<xlink::quic::PathId> select_path(
      xlink::quic::Connection& conn) override;
  void maybe_reinject(xlink::quic::Connection& conn) override;
  void on_qoe(xlink::quic::Connection& conn,
              const xlink::quic::QoeSignal& qoe) override;
  void on_loss(xlink::quic::Connection& conn,
               xlink::quic::PathId path) override;
  void on_pto(xlink::quic::Connection& conn,
              xlink::quic::PathId path) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<xlink::quic::Scheduler> inner_;
  SessionProbe& probe_;
};

/// Sets cfg.server_scheduler_override to a TracingScheduler over the
/// scheduler the session would otherwise build (the existing override, or
/// core::make_scheme_config's). Schemes without a scheduler are left as is.
/// `probe` must outlive the session.
void wrap_server_scheduler(harness::SessionConfig& cfg, SessionProbe& probe);

/// Rewires the rx, tx and http seams of a constructed, not yet run,
/// session. `probe` must outlive the session.
void install_seams(harness::Session& session, SessionProbe& probe);

}  // namespace perfbench
