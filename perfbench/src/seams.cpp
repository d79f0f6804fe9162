#include "seams.h"

#include <functional>
#include <utility>

#include "core/session.h"

namespace perfbench {

using xlink::quic::Connection;
using xlink::quic::PathId;
using xlink::quic::StreamId;

void SchedCounters::merge(const SchedCounters& o) {
  select_calls += o.select_calls;
  select_none += o.select_none;
  reinject_calls += o.reinject_calls;
  reinject_queued += o.reinject_queued;
  event_calls += o.event_calls;
}

std::optional<PathId> TracingScheduler::select_path(Connection& conn) {
  ++probe_.sched.select_calls;
  std::optional<PathId> path;
  {
    Span span(probe_.ledger, Layer::kSched);
    path = inner_->select_path(conn);
  }
  if (!path) ++probe_.sched.select_none;
  return path;
}

void TracingScheduler::maybe_reinject(Connection& conn) {
  ++probe_.sched.reinject_calls;
  const std::size_t before = conn.send_queue().size();
  {
    Span span(probe_.ledger, Layer::kSched);
    inner_->maybe_reinject(conn);
  }
  if (conn.send_queue().size() > before) ++probe_.sched.reinject_queued;
}

void TracingScheduler::on_qoe(Connection& conn,
                              const xlink::quic::QoeSignal& qoe) {
  ++probe_.sched.event_calls;
  Span span(probe_.ledger, Layer::kSched);
  inner_->on_qoe(conn, qoe);
}

void TracingScheduler::on_loss(Connection& conn, PathId path) {
  ++probe_.sched.event_calls;
  Span span(probe_.ledger, Layer::kSched);
  inner_->on_loss(conn, path);
}

void TracingScheduler::on_pto(Connection& conn, PathId path) {
  ++probe_.sched.event_calls;
  Span span(probe_.ledger, Layer::kSched);
  inner_->on_pto(conn, path);
}

void wrap_server_scheduler(harness::SessionConfig& cfg, SessionProbe& probe) {
  std::shared_ptr<xlink::quic::Scheduler> inner =
      cfg.server_scheduler_override;
  if (!inner) {
    inner = xlink::core::make_scheme_config(
                cfg.scheme, xlink::quic::Role::kServer, cfg.options)
                .scheduler;
  }
  if (!inner) return;
  cfg.server_scheduler_override =
      std::make_shared<TracingScheduler>(std::move(inner), probe);
}

namespace {

/// Chains a span around an application callback already set on the
/// connection (left unset when the application installed none).
void wrap_callback(std::function<void(StreamId)>& slot, SessionProbe& probe,
                   Layer layer) {
  if (!slot) return;
  slot = [inner = std::move(slot), &probe, layer](StreamId id) {
    Span span(probe.ledger, layer);
    inner(id);
  };
}

}  // namespace

void install_seams(harness::Session& session, SessionProbe& probe) {
  xlink::net::Network& network = session.network();
  Connection& client = session.client_conn();
  Connection& server = session.server_conn();

  // Receive: path i delivers to path id i (Endpoint::bind_path's mapping).
  for (std::size_t i = 0; i < network.path_count(); ++i) {
    const auto id = static_cast<PathId>(i);
    network.path(i).set_down_receiver(
        [&client, &probe, id](xlink::net::Datagram d) {
          Span span(probe.ledger, Layer::kRxClient);
          client.on_datagram(id, std::move(d));
        });
    network.path(i).set_up_receiver(
        [&server, &probe, id](xlink::net::Datagram d) {
          Span span(probe.ledger, Layer::kRxServer);
          server.on_datagram(id, std::move(d));
        });
  }

  // Transmit: path ids beyond the link count wrap onto the links, as
  // Endpoint's send callback does (migration revisits an interface under a
  // fresh connection ID).
  client.set_send_callback(
      [&network, &probe](PathId path, xlink::net::Datagram d) {
        if (network.path_count() == 0) return;
        Span span(probe.ledger, Layer::kNetTx);
        network.path(path % network.path_count()).send_up(std::move(d));
      });
  server.set_send_callback(
      [&network, &probe](PathId path, xlink::net::Datagram d) {
        if (network.path_count() == 0) return;
        Span span(probe.ledger, Layer::kNetTx);
        network.path(path % network.path_count()).send_down(std::move(d));
      });

  wrap_callback(server.on_stream_readable, probe, Layer::kHttpServer);
  wrap_callback(server.on_stream_data_finished, probe, Layer::kHttpServer);
  wrap_callback(client.on_stream_readable, probe, Layer::kHttpClient);
  wrap_callback(client.on_stream_data_finished, probe, Layer::kHttpClient);
}

}  // namespace perfbench
