// Multipath QUIC connection.
//
// Implements the transport described in the paper's §6 / draft-liu-
// multipath-quic on top of the simulator:
//  - simplified 1-RTT handshake exchanging transport parameters, including
//    enable_multipath with single-path fallback;
//  - connection IDs issued with NEW_CONNECTION_ID; the CID sequence number
//    doubles as the path identifier and selects the per-path packet number
//    space and AEAD nonce;
//  - path initialization via PATH_CHALLENGE / PATH_RESPONSE, path close via
//    PATH_STATUS(abandon); the path table, these transitions and the
//    health/failover machine live in PathManager (path_manager.h), whose
//    frames and rescued records this class queues and requeues;
//  - ACK_MP per path with QoE signal piggybacking, with a pluggable return
//    path policy (fastest-path vs original-path). Each path's received
//    packet numbers, replay floor and ack timing live in its AckTracker
//    (ack_tracker.h); this class picks the carrier and adds the QoE signal;
//  - per-path RTT estimation, RFC 9002-style loss detection and PTO, and
//    decoupled congestion control (Cubic default);
//  - packetization from the priority-ordered send queue (the paper's
//    pkt_send_q; its order is SendQueue's, send_queue.h) driven by a
//    pluggable multipath Scheduler, with re-injection support;
//  - streams with connection- and stream-level flow control, and the
//    paper's stream_send API, whose video-frame priority travels on the
//    queued items (and from them on each SentRecord), not on the stream.
//    The streams and every credit decision about them live in StreamTable
//    (stream.h); this class asks it before each first transmission and
//    each STREAM frame, and queues the limits and grants it returns.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fec/framer.h"
#include "net/datagram.h"
#include "quic/cc.h"
#include "quic/crypto.h"
#include "quic/frame.h"
#include "quic/guard.h"
#include "quic/pacer.h"
#include "quic/packet.h"
#include "quic/path_manager.h"
#include "quic/scheduler.h"
#include "quic/send_queue.h"
#include "quic/stream.h"
#include "quic/types.h"
#include "sim/event_loop.h"
#include "telemetry/trace_sink.h"

namespace xlink::quic {

enum class Role { kClient, kServer };

class Connection {
 public:
  struct Config {
    Role role = Role::kClient;
    TransportParams params;
    CcAlgorithm cc = CcAlgorithm::kCubic;
    std::uint64_t aead_key = 0x5eed;  // both endpoints must agree
    AckPathPolicy ack_policy = AckPathPolicy::kFastestPath;
    std::shared_ptr<Scheduler> scheduler;  // nullptr -> single path only
    /// TCP-style RTO: collapse cwnd on probe timeout (MPTCP baseline).
    bool tcp_style_rto = false;
    /// Telemetry sink shared by the session (nullptr or disabled = no
    /// tracing; the hooks then cost one predictable branch each).
    telemetry::TraceSink* trace = nullptr;

    /// Path-health failover machinery (PathState::Health; its budgets are
    /// constants in path_manager.cpp). Disabled it reproduces the
    /// pre-failover transport: PTOs keep probing in place and the
    /// scheduler alone steers around dead paths.
    struct PathHealth {
      bool enabled = true;
    };
    PathHealth health;

    /// Forward erasure correction (src/fec/): sender-side REPAIR framing
    /// over sealed packets plus receiver-side recovery. `fec.enabled`
    /// instantiates the RecoveryBuffer; `fec.protect` additionally runs
    /// the FecFramer on this endpoint's outgoing packets.
    fec::FecConfig fec;

    /// Hostile-peer hardening: per-connection resource budgets consulted
    /// at every peer-driven allocation point (guard.h). Always enforced.
    ResourceBudgets budgets;

    /// Invariant auditor; `audit.enabled` is additionally ANDed with
    /// audit_enabled_by_env() at construction, so XLINK_AUDIT=0 silences
    /// it without a rebuild.
    InvariantAuditor::Config audit;

    /// Token-bucket pacing of scheduler-driven data sends. Off by default:
    /// enabling it changes packet departure times, so existing experiment
    /// arms stay byte-identical unless they opt in.
    PacerConfig pacing;
  };

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t packets_lost = 0;
    std::uint64_t ptos = 0;
    std::uint64_t bytes_sent = 0;            // wire bytes out
    std::uint64_t bytes_received = 0;        // wire bytes in
    std::uint64_t stream_bytes_sent = 0;     // first transmissions
    std::uint64_t retransmitted_bytes = 0;   // loss-triggered resends
    std::uint64_t reinjected_bytes = 0;      // scheduler duplicates
    std::uint64_t auth_failures = 0;         // AEAD open failures
    std::uint64_t acks_sent = 0;
    std::uint64_t failovers = 0;             // paths declared dead (kProbing)
    std::uint64_t path_resurrections = 0;    // probe acked, path back in use
    std::uint64_t dead_path_probes = 0;      // backoff probes while kProbing

    // Forward erasure correction (src/fec/).
    std::uint64_t fec_repair_packets_sent = 0;  // REPAIR packets emitted
    std::uint64_t fec_repair_bytes_sent = 0;    // repair SYMBOL bytes
    std::uint64_t fec_windows_protected = 0;    // windows with >=1 repair
    std::uint64_t fec_recovered_packets = 0;    // erasures reconstructed
    std::uint64_t fec_wasted_symbols = 0;       // repairs that bought nothing
    std::uint64_t fec_erased_seen = 0;          // erasures observed in windows

    /// Redundancy ratio: duplicated bytes (re-injection egress plus FEC
    /// repair symbols) / first-transmission stream bytes.
    double redundancy_ratio() const {
      return stream_bytes_sent == 0
                 ? 0.0
                 : static_cast<double>(reinjected_bytes +
                                       fec_repair_bytes_sent) /
                       static_cast<double>(stream_bytes_sent);
    }
  };

  using SendFn = std::function<void(PathId, net::Datagram)>;

  Connection(sim::EventLoop& loop, Config config);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // ---- wiring -------------------------------------------------------
  /// Binds the datagram output (the harness routes to emulated paths).
  void set_send_callback(SendFn fn) { send_fn_ = std::move(fn); }

  /// Feeds a datagram that arrived on `path` (network-path index == path
  /// id; the harness guarantees the mapping). Takes ownership: the packet
  /// is decrypted in place inside the buffer, and stream payloads are
  /// borrowed from it for the duration of the call.
  void on_datagram(PathId path, net::Datagram datagram);

  // ---- lifecycle ----------------------------------------------------
  /// Client: starts the handshake on the primary path (path 0).
  void connect();
  bool is_established() const { return established_; }
  bool multipath_enabled() const { return multipath_enabled_; }
  bool is_closed() const { return closed_; }
  void close(std::uint64_t error_code, const std::string& reason);

  /// RFC 9000 §10.2 termination states: kClosing after this endpoint sends
  /// CONNECTION_CLOSE (the close is re-sent, rate-limited, while peer
  /// packets keep arriving); kDraining after receiving one (nothing more
  /// is ever sent).
  enum class CloseState : std::uint8_t { kOpen, kClosing, kDraining };
  CloseState close_state() const { return close_state_; }
  /// How and why the connection ended (valid once is_closed()).
  const CloseInfo& close_info() const { return close_info_; }

  /// Violation and budget-pressure accounting (guard.h).
  const GuardCounters& guard_counters() const { return guard_; }
  /// The connection's invariant auditor (tests install capture handlers).
  InvariantAuditor& auditor() { return auditor_; }
  /// Forces one audit walk now regardless of sampling; returns checks run.
  std::size_t audit_now() { return auditor_.tick(*this); }

  std::function<void()> on_established;

  // ---- paths --------------------------------------------------------
  /// Client: initiates a new path; returns its id, or nullopt if multipath
  /// is off, the handshake is pending, or no connection IDs are available.
  std::optional<PathId> open_path();

  /// Marks a path abandoned, tells the peer, and requeues its in-flight
  /// data onto the remaining paths.
  void abandon_path(PathId id);

  /// Sends PATH_STATUS(standby/available) for a path.
  void set_path_status(PathId id, std::uint64_t status);

  /// Connection-migration baseline: abandons all current paths and moves
  /// to `id` with congestion state reset (RFC 9000 §9.5 behaviour).
  void migrate_to_path(PathId id);

  /// NAT rebind on a path: the peer will see a new 4-tuple, so the path
  /// must re-validate before carrying data again (PATH_CHALLENGE /
  /// PATH_RESPONSE). The harness wires FaultInjector::on_nat_rebind here.
  void rebind_path(PathId id);

  std::vector<PathId> path_ids() const { return paths_.path_ids(); }
  std::vector<PathId> active_path_ids() const {
    return paths_.active_path_ids();
  }
  /// Active paths that are also healthy enough to schedule data on
  /// (excludes kProbing paths); what schedulers and the re-injector use.
  std::vector<PathId> schedulable_path_ids() const {
    return paths_.schedulable_path_ids();
  }
  bool has_path(PathId id) const { return paths_.find(id) != nullptr; }
  PathState& path_state(PathId id) { return paths_.at(id); }
  const PathState& path_state(PathId id) const { return paths_.at(id); }

  std::function<void(PathId)> on_path_validated;

  // ---- streams ------------------------------------------------------
  /// Opens the next client-initiated bidirectional stream.
  StreamId open_stream() { return streams_.open(); }

  /// Writes data (optionally final) to a send stream with default priority.
  void stream_send(StreamId id, std::vector<std::uint8_t> data, bool fin);

  /// The paper's extended stream_send: marks [position, position+size) of
  /// this write's data (offsets relative to the write, not the stream)
  /// with a video-frame priority.
  void stream_send_prioritized(StreamId id, std::vector<std::uint8_t> data,
                               bool fin, int frame_priority,
                               std::uint64_t position, std::uint64_t size);

  /// Sets the stream-level priority used by priority re-injection.
  void set_stream_priority(StreamId id, int priority) {
    streams_.send_or_create(id).set_priority(priority);
  }

  SendStream* send_stream(StreamId id) { return streams_.send(id); }
  RecvStream* recv_stream(StreamId id) { return streams_.recv(id); }
  const RecvStream* recv_stream(StreamId id) const {
    return streams_.recv(id);
  }

  /// Reads up to `max` bytes from a receive stream, updating flow-control
  /// grants (the application-facing read API).
  std::vector<std::uint8_t> consume_stream(StreamId id, std::size_t max);

  std::function<void(StreamId)> on_stream_readable;
  std::function<void(StreamId)> on_stream_data_finished;

  // ---- QoE feedback ---------------------------------------------------
  /// Client side: supplies the latest player QoE snapshot for ACK_MP.
  void set_qoe_provider(std::function<std::optional<QoeSignal>()> fn) {
    qoe_provider_ = std::move(fn);
  }
  /// Server side: observers of received QoE signals.
  std::function<void(const QoeSignal&)> on_qoe_feedback;
  const std::optional<QoeSignal>& latest_peer_qoe() const {
    return latest_peer_qoe_;
  }

  /// Sends a standalone QOE_CONTROL_SIGNALS frame (decoupled from acks).
  void send_qoe_signal(const QoeSignal& qoe);

  // ---- scheduler services --------------------------------------------
  const SendQueue& send_queue() const { return send_q_; }

  /// Inserts an item into pkt_send_q per the insertion mode.
  void enqueue_item(const SendItem& item, InsertMode mode) {
    send_q_.insert(item, mode);
  }

  /// Duplicates the still-unacked stream ranges of `record` into the send
  /// queue (marked re-injection, carrying origin path) with the given
  /// insertion mode. Returns the number of bytes queued.
  std::uint64_t reinject_record(SentRecord& record, InsertMode mode);

  /// Kicks the send loop (harness calls after app writes).
  void pump();

  // ---- forward erasure correction ------------------------------------
  /// Double-threshold gate push-down: the XLINK scheduler forwards its
  /// re-injection gate decision so FEC obeys the same cost control.
  void set_fec_gate(bool allowed) {
    if (fec_framer_) fec_framer_->set_gate(allowed);
  }
  /// True if a recently emitted repair window covers `pn` on `path`; the
  /// ReinjectionEngine skips such records (mutual awareness).
  bool fec_covers(PathId path, PacketNumber pn) const {
    return fec_framer_ && fec_framer_->covers(path, pn, loop_.now());
  }

  sim::EventLoop& loop() { return loop_; }
  const sim::EventLoop& loop() const { return loop_; }
  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  Role role() const { return config_.role; }

  /// Session telemetry sink (may be nullptr); schedulers trace through it.
  telemetry::TraceSink* trace() const { return config_.trace; }
  telemetry::Origin trace_origin() const {
    return config_.role == Role::kServer ? telemetry::Origin::kServer
                                         : telemetry::Origin::kClient;
  }

 private:
  friend class InvariantAuditor;  // re-derives private cross-layer state

  // Guard machinery.
  /// Records the violation (trace + counters) and escalates to a graceful
  /// CONNECTION_CLOSE with the given transport error code. No-op when the
  /// connection is already terminating.
  void close_with_error(TransportError code, ViolationKind kind,
                        std::uint64_t observed, PathId path);
  /// True if `frame` may legally arrive in the current connection state
  /// (pre-handshake only CRYPTO/PING/PADDING/ACK/CLOSE are accepted, and a
  /// server never accepts HANDSHAKE_DONE).
  bool frame_legal_in_state(const Frame& frame) const;
  /// Emits the recorded CONNECTION_CLOSE on the given path.
  void send_close_frame(PathId path);
  /// Enters kClosing/kDraining with the close's code and reason, and stops
  /// the timer; shared by local and peer-initiated closes.
  void enter_close_state(CloseState state, std::uint64_t error_code,
                         const std::string& reason);

  // Send-side machinery.
  bool send_one_packet(PathId path, bool ignore_cwnd = false);
  bool send_control_packet(PathId path, std::vector<Frame> frames);
  void send_pending_acks();
  /// Seals `frames` into a pooled buffer and hands it to send_fn_. The
  /// frame list is an lvalue ref so callers can reuse scratch storage.
  /// Returns false when nothing went on the wire (unknown path, or the
  /// send was suppressed by the anti-amplification cap -- suppressed
  /// stream/control content is re-queued, never dropped).
  bool build_and_send(PathId path, std::vector<Frame>& frames,
                      std::vector<SendItem> items);
  /// ACK_MP for `p`'s packet number space (QoE-piggybacked on a client);
  /// clears the pending-ack state and counts the ack.
  AckMpFrame take_ack(PathState& p);

  // Receive-side machinery.
  void handle_frames(PathId path, const std::vector<Frame>& frames);
  void handle_repair_frame(PathId path, const RepairFrame& f);
  double path_loss_estimate(const PathState& p) const;
  void handle_ack_info(PathId acked_path, const AckInfo& info);
  void handle_stream_frame(const StreamFrame& f);
  void handle_crypto(const CryptoFrame& f);
  /// A QoE signal from the peer (ACK_MP piggyback or QOE_CONTROL_SIGNALS).
  void on_peer_qoe(const QoeSignal& qoe);

  // Loss/timer machinery.
  /// Re-derives the path's pacing rate from its controller (or cwnd/srtt
  /// for controllers with no opinion) after CC state changes.
  void update_pacing(PathState& p);
  void trace_cc_state(const PathState& p);
  void on_packets_lost(PathState& p, const std::vector<SentRecord>& lost);
  void requeue_record(const SentRecord& record);
  void on_pto(PathState& p);
  void arm_timers();
  void on_timer();
  void cancel_timer() {
    if (timer_id_) loop_.cancel(std::exchange(timer_id_, 0));
  }

  // Path/CID helpers.
  /// Carries out a PathManager transition: queues its frame, then requeues
  /// its rescued records. False for a no-op (nullopt) transition.
  bool apply(std::optional<PathTransition> t);
  void issue_connection_ids();
  void queue_control(PathId path, Frame frame);

  sim::EventLoop& loop_;
  Config config_;
  PacketProtection aead_;
  SendFn send_fn_;

  bool established_ = false;
  bool multipath_enabled_ = false;
  bool closed_ = false;  // true whenever close_state_ != kOpen
  bool handshake_sent_ = false;

  CloseState close_state_ = CloseState::kOpen;
  CloseInfo close_info_;
  GuardCounters guard_;
  InvariantAuditor auditor_;
  std::uint64_t audit_pump_calls_ = 0;       // subsampled tick counter
  std::uint64_t close_recv_since_send_ = 0;  // packets since last close sent
  std::uint64_t close_resend_threshold_ = 1; // doubles per re-send

  PathManager paths_;
  SendQueue send_q_;  // the paper's pkt_send_q
  /// Control frames waiting per path (acks excluded; built on demand).
  std::map<PathId, std::deque<Frame>> pending_control_;

  StreamTable streams_;  // streams and their flow-control credit

  // Connection IDs: ours issued to the peer, and the peer's issued to us.
  std::map<std::uint32_t, ConnectionId> local_cids_;
  std::map<std::uint32_t, ConnectionId> peer_cids_;

  std::optional<TransportParams> peer_params_;
  std::function<std::optional<QoeSignal>()> qoe_provider_;
  std::optional<QoeSignal> latest_peer_qoe_;

  sim::EventId timer_id_ = 0;
  bool in_pump_ = false;

  // Reusable frame-list storage for the receive and send hot paths; moved
  // out while in use (re-entrancy safe) and moved back with capacity kept.
  std::vector<Frame> recv_frames_scratch_;
  std::vector<Frame> send_frames_scratch_;

  // Forward erasure correction (both null unless config_.fec.enabled).
  std::unique_ptr<fec::FecFramer> fec_framer_;
  std::unique_ptr<fec::RecoveryBuffer> fec_recovery_;
  std::vector<Frame> fec_frames_scratch_;   // repair frames from the framer
  std::vector<Frame> fec_emit_scratch_;     // one-frame list per repair pkt
  std::vector<fec::RecoveryBuffer::Recovered> fec_recovered_scratch_;

  Stats stats_;
};

}  // namespace xlink::quic
