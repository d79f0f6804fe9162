#include "quic/connection.h"

#include <algorithm>
#include <cassert>
#include <ranges>

namespace xlink::quic {
namespace {

/// Deterministic CID bytes; in a real handshake these are exchanged, here
/// both endpoints derive the same values so routing agrees by construction.
ConnectionId derive_cid(Role issuer, std::uint32_t seq) {
  ConnectionId cid;
  cid.sequence = seq;
  const std::uint64_t tag =
      (issuer == Role::kClient ? 0xc11e57ULL : 0x5e47e2ULL);
  std::uint64_t x = tag * 0x9e3779b97f4a7c15ULL + seq;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  for (int i = 0; i < 8; ++i)
    cid.bytes[i] = static_cast<std::uint8_t>(x >> (8 * i));
  return cid;
}

/// Control frames a lost packet must carry again (acks, padding and
/// stream data are regenerated or tracked separately).
bool is_retransmittable_control(const Frame& f) {
  return std::holds_alternative<CryptoFrame>(f) ||
         std::holds_alternative<NewConnectionIdFrame>(f) ||
         std::holds_alternative<PathChallengeFrame>(f) ||
         std::holds_alternative<PathResponseFrame>(f) ||
         std::holds_alternative<PathStatusFrame>(f) ||
         std::holds_alternative<MaxDataFrame>(f) ||
         std::holds_alternative<MaxStreamDataFrame>(f) ||
         std::holds_alternative<HandshakeDoneFrame>(f);
}
}  // namespace

Connection::Connection(sim::EventLoop& loop, Config config)
    : loop_(loop),
      config_(std::move(config)),
      aead_(config_.aead_key),
      paths_(loop,
             {.cc = config_.cc,
              .max_ack_delay = sim::millis(config_.params.max_ack_delay_ms),
              .pacing = config_.pacing,
              .ack_policy = config_.ack_policy,
              .health = config_.health.enabled,
              .trace = config_.trace,
              .origin = trace_origin()}),
      streams_(config_.params, config_.budgets) {
  // CID sequence 0 for both directions exists from the start (handshake
  // CIDs); the peer's params arrive later but path 0's CIDs are implicit.
  local_cids_[0] = derive_cid(config_.role, 0);
  peer_cids_[0] = derive_cid(
      config_.role == Role::kClient ? Role::kServer : Role::kClient, 0);
  if (config_.fec.enabled) {
    fec_recovery_ = std::make_unique<fec::RecoveryBuffer>(config_.fec);
    fec_recovery_->set_trace(config_.trace, trace_origin());
    if (config_.fec.protect)
      fec_framer_ = std::make_unique<fec::FecFramer>(config_.fec);
    fec_recovered_scratch_.reserve(fec::kMaxRepairs);
  }
  // The auditor's config gate ANDs with the environment so XLINK_AUDIT=0
  // silences an audit-enabled build without recompiling.
  config_.audit.enabled = config_.audit.enabled && audit_enabled_by_env();
  auditor_ = InvariantAuditor(config_.audit);
}

Connection::~Connection() { cancel_timer(); }

// --------------------------------------------------------------- lifecycle

void Connection::connect() {
  assert(config_.role == Role::kClient);
  if (handshake_sent_) return;
  paths_.create(0, PathState::State::kActive);
  handshake_sent_ = true;
  CryptoFrame crypto;
  crypto.data = encode_transport_params(config_.params);
  queue_control(0, Frame{std::move(crypto)});
  pump();
}

void Connection::close(std::uint64_t error_code, const std::string& reason) {
  if (closed_) return;
  enter_close_state(CloseState::kClosing, error_code, reason);
  close_recv_since_send_ = 0;
  close_resend_threshold_ = 1;
  if (!paths_.empty() && send_fn_)
    send_close_frame(paths_.fastest_active_path());
}

void Connection::enter_close_state(CloseState state, std::uint64_t error_code,
                                   const std::string& reason) {
  close_state_ = state;
  closed_ = true;
  close_info_.closed = true;
  close_info_.peer_initiated = state == CloseState::kDraining;
  close_info_.error_code = error_code;
  close_info_.reason = reason;
  cancel_timer();
}

void Connection::send_close_frame(PathId path) {
  send_control_packet(path, {Frame{ConnectionCloseFrame{
                                close_info_.error_code, close_info_.reason}}});
}

void Connection::close_with_error(TransportError code, ViolationKind kind,
                                  std::uint64_t observed, PathId path) {
  if (closed_) return;
  ++guard_.violations;
  XLINK_TRACE(config_.trace,
              telemetry::Event::guard_violation(
                  loop_.now(), trace_origin(), static_cast<std::uint8_t>(path),
                  static_cast<std::uint64_t>(code),
                  static_cast<std::uint64_t>(kind), observed));
  close(static_cast<std::uint64_t>(code),
        std::string("guard: ") + violation_kind_name(kind));
}

bool Connection::frame_legal_in_state(const Frame& frame) const {
  // Only a server sends HANDSHAKE_DONE (RFC 9000 §19.20).
  if (std::holds_alternative<HandshakeDoneFrame>(frame) &&
      config_.role == Role::kServer)
    return false;
  if (established_) return true;
  // Pre-handshake only the frames that complete it may appear. The check is
  // sequential per frame, so CRYPTO in the same packet legalizes what
  // follows it (e.g. the server's HANDSHAKE_DONE).
  return std::holds_alternative<CryptoFrame>(frame) ||
         std::holds_alternative<PingFrame>(frame) ||
         std::holds_alternative<PaddingFrame>(frame) ||
         std::holds_alternative<AckFrame>(frame) ||
         std::holds_alternative<AckMpFrame>(frame) ||
         std::holds_alternative<PathChallengeFrame>(frame) ||
         std::holds_alternative<PathResponseFrame>(frame) ||
         std::holds_alternative<ConnectionCloseFrame>(frame);
}

// ------------------------------------------------------------------- paths

bool Connection::apply(std::optional<PathTransition> t) {
  if (!t) return false;
  if (t->frame) queue_control(t->carrier, std::move(*t->frame));
  for (const SentRecord& rec : t->rescued) requeue_record(rec);
  return true;
}

std::optional<PathId> Connection::open_path() {
  if (!established_ || !multipath_enabled_ || closed_) return std::nullopt;
  // Next unused path id; requires an unused CID from the peer.
  const PathId id = paths_.next_id();
  if (!peer_cids_.contains(id) || !local_cids_.contains(id))
    return std::nullopt;
  apply(paths_.open(id));
  pump();
  return id;
}

void Connection::abandon_path(PathId id) {
  set_path_status(id, PathStatusKind::kAbandon);
}

void Connection::set_path_status(PathId id, std::uint64_t status) {
  if (apply(paths_.set_status(id, status))) pump();
}

void Connection::migrate_to_path(PathId id) {
  if (!peer_cids_.contains(id)) return;
  apply(paths_.migrate(id));
  for (PathId old : paths_.path_ids())
    if (old != id) abandon_path(old);
  pump();
}

void Connection::rebind_path(PathId id) {
  if (!closed_ && apply(paths_.rebind(id))) pump();
}

void Connection::issue_connection_ids() {
  // NEW_CONNECTION_ID is base QUIC (migration needs it), not gated on the
  // multipath extension. Runs once, when the peer's parameters arrive;
  // sequence 0 exists from the start.
  const auto limit = static_cast<std::uint32_t>(
      std::min(config_.params.active_connection_id_limit,
               peer_params_ ? peer_params_->active_connection_id_limit
                            : std::uint64_t{4}));
  for (std::uint32_t seq = 1; seq < limit; ++seq) {
    local_cids_[seq] = derive_cid(config_.role, seq);
    NewConnectionIdFrame f;
    f.sequence = seq;
    f.cid = local_cids_[seq].bytes;
    queue_control(0, Frame{f});
  }
}

// ----------------------------------------------------------------- streams

void Connection::stream_send(StreamId id, std::vector<std::uint8_t> data,
                             bool fin) {
  stream_send_prioritized(id, std::move(data), fin, /*frame_priority=*/0,
                          /*position=*/0, /*size=*/0);
}

void Connection::stream_send_prioritized(StreamId id,
                                         std::vector<std::uint8_t> data,
                                         bool fin, int frame_priority,
                                         std::uint64_t position,
                                         std::uint64_t size) {
  SendStream& stream = streams_.send_or_create(id);
  const std::uint64_t len = data.size();
  SendItem proto;
  proto.stream_id = id;
  proto.offset = stream.write(std::move(data), fin);
  proto.fin = fin;
  proto.stream_priority = stream.priority();
  send_q_.enqueue_write(proto, len, frame_priority, position, size);
  pump();
}

// --------------------------------------------------------------- QoE frame

void Connection::send_qoe_signal(const QoeSignal& qoe) {
  queue_control(paths_.fastest_active_path(),
                Frame{QoeControlSignalsFrame{qoe}});
  pump();
}

// -------------------------------------------------------------- send queue

std::uint64_t Connection::reinject_record(SentRecord& record,
                                          InsertMode mode) {
  // Eligibility (including re-arming a record whose earlier duplicate did
  // not resolve the block) is the scheduler's call; here we only do it.
  record.reinjected = true;
  record.reinjected_at = loop_.now();
  std::uint64_t queued = 0;
  for (const SendItem& item : record.items) {
    const auto* stream = send_stream(item.stream_id);
    // A bare FIN carries no bytes to duplicate.
    if (!stream || item.length == 0) continue;
    SendItem proto = item;
    proto.is_reinjection = true;
    proto.origin_path = record.path;
    queued += send_q_.enqueue_unacked(*stream, proto, mode);
  }
  return queued;
}

// --------------------------------------------------------------- send loop

void Connection::pump() {
  if (in_pump_ || closed_ || !send_fn_) return;
  in_pump_ = true;
#if !defined(XLINK_AUDIT_DISABLED)
  // Subsampled: a full invariant walk every pump would dominate the hot
  // path; every 64th call keeps drift detection tight enough while staying
  // inside the <5% overhead budget (timer fires land here too -- on_timer
  // ends in pump).
  if ((++audit_pump_calls_ & 63) == 0) XLINK_AUDIT_TICK(auditor_, *this);
#endif

  send_pending_acks();

  // Flush control frames (handshake, path management, flow control). They
  // are small and vital, so they bypass the congestion window.
  for (auto& [path_id, queue] : pending_control_) {
    if (queue.empty()) continue;
    const PathState* p = paths_.find(path_id);
    if (!p || p->state == PathState::State::kAbandoned) {
      queue.clear();
      continue;
    }
    while (!queue.empty()) {
      std::vector<Frame> frames;
      for (std::size_t used = 0; !queue.empty(); queue.pop_front()) {
        const std::size_t sz = frame_wire_size(queue.front());
        if (used + sz > kMaxPacketPayload && !frames.empty()) break;
        used += sz;
        frames.push_back(std::move(queue.front()));
      }
      // A suppressed send (anti-amplification) re-queued the batch at the
      // head of this queue; stop flushing the path until budget returns.
      if (!send_control_packet(path_id, std::move(frames))) break;
    }
  }

  // Stream data, scheduler-driven.
  int guard = 0;
  while (guard++ < 200000) {
    if (send_q_.empty() && config_.scheduler)
      config_.scheduler->maybe_reinject(*this);
    if (send_q_.empty()) break;

    std::optional<PathId> path;
    if (config_.scheduler) {
      path = config_.scheduler->select_path(*this);
      if (path) XLINK_AUDIT_SCHED(auditor_, *this, *path);
    } else {
      // Single-path: the unique usable path, cwnd permitting.
      for (const auto& [id, p] : paths_) {
        if (p->usable() && p->cwnd_available() >= kDefaultMss / 2) {
          path = id;
          break;
        }
      }
    }
    if (!path) break;
    // Pacing gate: the selected path's token bucket is in debt. Sideline
    // just this path for the rest of the pump (other paths may still have
    // tokens); arm_timers schedules a wake at its next release.
    if (config_.pacing.enabled &&
        !paths_.at(*path).pacer.can_send(loop_.now())) {
      paths_.at(*path).pacer_deferred = true;
      continue;
    }
    if (!send_one_packet(*path)) break;
    if (config_.scheduler) config_.scheduler->maybe_reinject(*this);
  }

  // App-limited marker (draft-cheng / RFC 9002 §7.8): the loop stopped
  // with nothing left to send while cwnd headroom remains, so packets now
  // in flight were not cwnd-limited -- their acks must neither inflate
  // cwnd nor lower the bandwidth estimate.
  if (send_q_.empty() && established_) {
    for (auto& [id, p] : paths_) {
      if (!p->schedulable()) continue;
      // A pacer-deferred path is pacer-limited, not app-limited: its
      // cwnd_available() reads zero, so it is skipped here -- correct,
      // since its next flight WAS constrained by the controller.
      if (p->cwnd_available() >= kDefaultMss)
        p->sampler.on_app_limited(p->loss.bytes_in_flight());
    }
  }

  // The deferral is pump-scoped; clear before arm_timers so the pacer
  // release wake (gated on cwnd headroom) still gets considered.
  if (config_.pacing.enabled)
    for (auto& [id, p] : paths_) p->pacer_deferred = false;

  arm_timers();
  in_pump_ = false;
}

bool Connection::send_one_packet(PathId path_id, bool ignore_cwnd) {
  PathState* found = paths_.find(path_id);
  if (!found || !found->usable()) return false;
  PathState& path = *found;
  // A failed-over path carries only dead-path probes (PINGs from the probe
  // timer), never fresh stream data.
  if (path.health == PathState::Health::kProbing) return false;

  // PTO probes may exceed the congestion window (RFC 9002 §7.5): when the
  // window is full of packets a dead path will never acknowledge, the probe
  // is the only thing that can restart the ack clock.
  // With sender-side FEC on, data payloads are capped below the MTU so a
  // repair symbol (sealed wire + length prefix + REPAIR header) still fits
  // one packet payload.
  const std::size_t max_payload =
      fec_framer_ ? fec::kPayloadCap : kMaxPacketPayload;
  const std::size_t budget =
      ignore_cwnd ? max_payload
                  : std::min<std::size_t>(max_payload,
                                          path.cwnd_available());
  if (budget < 64) return false;

  // Reuse the scratch frame list (moved out so re-entrant sends fall back
  // to a fresh vector rather than aliasing).
  std::vector<Frame> frames = std::move(send_frames_scratch_);
  frames.clear();
  std::vector<SendItem> taken;
  std::size_t used = 0;

  while (!send_q_.empty()) {
    SendItem& head = send_q_.front();
    // A re-injection on its own origin path is a pointless duplicate; drop
    // it (the original stays tracked by loss detection).
    if (head.is_reinjection && head.origin_path &&
        *head.origin_path == path_id) {
      send_q_.pop_front();
      continue;
    }
    auto* stream = send_stream(head.stream_id);
    if (!stream) {
      send_q_.pop_front();
      continue;
    }
    // Skip ranges that were fully acked since queueing (duplicate rescue).
    if (head.length > 0 &&
        stream->range_acked(head.offset, head.offset + head.length)) {
      send_q_.pop_front();
      continue;
    }
    const std::size_t overhead =
        stream_frame_overhead(head.stream_id, head.offset, head.length);
    if (used + overhead + 1 > budget) break;

    const std::uint64_t can_take =
        std::min<std::uint64_t>({head.length, budget - used - overhead,
                                 streams_.credit(*stream, head)});
    if (can_take == 0 && !(head.length == 0 && head.fin)) break;

    SendItem piece = head;
    piece.length = can_take;
    if (can_take < head.length) {
      piece.fin = false;
      head.offset += can_take;
      head.length -= can_take;
    } else {
      send_q_.pop_front();
    }

    StreamFrame frame;
    frame.stream_id = piece.stream_id;
    frame.offset = piece.offset;
    frame.fin = piece.fin;
    // Borrow the payload straight from the stream buffer: the frame list
    // lives only until seal_packet_buffer copies it onto the wire below.
    frame.data =
        FrameData::borrowed(stream->view_range(piece.offset, piece.length));
    used += overhead + frame.data.size();
    frames.emplace_back(std::move(frame));

    if (piece.is_reinjection) {
      stats_.reinjected_bytes += piece.length;
    } else if (piece.is_retransmission) {
      stats_.retransmitted_bytes += piece.length;
    } else {
      stats_.stream_bytes_sent += piece.length;
      streams_.on_first_transmission(piece.length);
    }
    taken.push_back(std::move(piece));

    if (used + 32 >= budget) break;  // packet effectively full
  }

  if (taken.empty()) {
    frames.clear();
    send_frames_scratch_ = std::move(frames);
    return false;
  }
  const bool sent = build_and_send(path_id, frames, std::move(taken));
  frames.clear();
  send_frames_scratch_ = std::move(frames);
  return sent;
}

bool Connection::send_control_packet(PathId path_id,
                                     std::vector<Frame> frames) {
  return build_and_send(path_id, frames, {});
}

AckMpFrame Connection::take_ack(PathState& p) {
  const bool qoe = config_.role == Role::kClient && qoe_provider_;
  ++stats_.acks_sent;
  return {.path_id = p.id,
          .info = p.acks.take(loop_.now()),
          .qoe = qoe ? qoe_provider_() : std::nullopt};
}

bool Connection::build_and_send(PathId path_id, std::vector<Frame>& frames,
                                std::vector<SendItem> items) {
  PathState* found = paths_.find(path_id);
  if (!found || !send_fn_) return false;
  PathState& path = *found;

  // Opportunistically piggyback this path's pending ack.
  const bool prepended_ack = path.acks.pending();
  if (prepended_ack) frames.insert(frames.begin(), Frame{take_ack(path)});

  PacketHeader header;
  header.type = established_ ? PacketType::kOneRtt : PacketType::kInitial;
  const auto cid_it = peer_cids_.find(path_id);
  if (cid_it != peer_cids_.end()) header.dcid = cid_it->second.bytes;
  const auto scid_it = local_cids_.find(path_id);
  if (scid_it != local_cids_.end()) header.scid = scid_it->second.bytes;
  header.cid_sequence = path_id;
  header.packet_number = path.next_pn;

  net::PacketBuffer wire = seal_packet_buffer(aead_, header, frames);

  // RFC 9000 §8.1 anti-amplification: until the peer's address on this
  // path is validated, a server may send at most `amplification_factor`
  // times the bytes it received there -- otherwise a spoofed-source probe
  // turns this endpoint into a traffic amplifier. The packet number is not
  // consumed for a suppressed send.
  if (config_.role == Role::kServer &&
      path.state == PathState::State::kValidating &&
      path.bytes_sent + wire.size() >
          config_.budgets.amplification_factor * path.bytes_received) {
    ++guard_.amplification_blocked;
    // Suppression must be lossless: nothing here has a SentRecord yet, so
    // anything silently dropped would never be retransmitted. Stream pieces
    // go back to the head of the send queue (first transmissions already
    // charged flow control, so they resend as retransmissions) and
    // retransmittable control frames back to the head of this path's
    // control queue; acks, probes and repair symbols regenerate on their
    // own and are simply dropped.
    send_q_.requeue_front(std::move(items));
    auto& ctrl = pending_control_[path_id];
    for (std::size_t i = frames.size(); i-- > (prepended_ack ? 1u : 0u);)
      if (is_retransmittable_control(frames[i]))
        ctrl.push_front(std::move(frames[i]));
    if (prepended_ack) {
      path.acks.put_back();
      --stats_.acks_sent;
    }
    return false;
  }
  ++path.next_pn;
  // Items only travel in STREAM frames, so an ack-eliciting packet is
  // exactly one that carries something to track.
  const bool eliciting =
      std::any_of(frames.begin(), frames.end(),
                  [](const Frame& f) { return is_ack_eliciting(f); });
  const bool is_reinjection_pkt =
      !items.empty() &&
      std::all_of(items.begin(), items.end(),
                  [](const SendItem& i) { return i.is_reinjection; });

  if (eliciting) {
    SentRecord rec;
    rec.pn = header.packet_number;
    rec.path = path_id;
    rec.sent_time = loop_.now();
    rec.bytes = wire.size();
    rec.is_reinjection = is_reinjection_pkt;
    rec.items = std::move(items);
    // Stream content is already represented by items.
    for (const Frame& f : frames)
      if (is_retransmittable_control(f)) rec.control.push_back(f);
    // Delivery-rate stamp before loss detection sees the packet: the
    // sampler re-anchors its clocks when bytes_in_flight is still zero.
    path.sampler.on_packet_sent(rec.rate_stamp, rec.sent_time,
                                path.loss.bytes_in_flight());
    path.loss.on_packet_sent(std::move(rec));
    path.last_ack_eliciting_sent = loop_.now();
    path.cc->on_packet_sent(wire.size(), loop_.now());
  }

  // Pacing: every wire departure debits the token bucket (control and acks
  // included, so their bytes count toward the release rate); only the
  // scheduler-driven data loop in pump is gated on the balance.
  path.pacer.on_sent(loop_.now(), wire.size());

  ++path.packets_sent;
  path.bytes_sent += wire.size();
  ++stats_.packets_sent;
  stats_.bytes_sent += wire.size();
  XLINK_TRACE(config_.trace,
              telemetry::Event::packet_sent(
                  loop_.now(), trace_origin(),
                  static_cast<std::uint8_t>(path_id), header.packet_number,
                  wire.size(), eliciting, is_reinjection_pkt));

  // Sender-side FEC: every sealed packet except the repair carriers
  // themselves is a source symbol (repairs sit at window boundaries, so
  // the protected packet-number range stays contiguous).
  const bool fec_protect =
      fec_framer_ &&
      !std::any_of(frames.begin(), frames.end(), [](const Frame& f) {
        return std::holds_alternative<RepairFrame>(f);
      });
  if (fec_protect) {
    fec_frames_scratch_.clear();
    fec_framer_->on_packet_sent(path_id, header.packet_number, wire.cspan(),
                                loop_.now(), path_loss_estimate(path),
                                fec_frames_scratch_);
  }
  send_fn_(path_id, std::move(wire));
  if (fec_protect && !fec_frames_scratch_.empty()) {
    ++stats_.fec_windows_protected;
    for (Frame& f : fec_frames_scratch_) {
      const auto& rf = std::get<RepairFrame>(f);
      ++stats_.fec_repair_packets_sent;
      stats_.fec_repair_bytes_sent += rf.payload.size();
      XLINK_TRACE(config_.trace,
                  telemetry::Event::fec_repair_sent(
                      loop_.now(), trace_origin(),
                      static_cast<std::uint8_t>(path_id), rf.window_id,
                      rf.payload.size(), rf.first_pn,
                      static_cast<std::uint8_t>(rf.k),
                      static_cast<std::uint8_t>(rf.repair_count),
                      static_cast<std::uint8_t>(rf.symbol_index)));
      // Each repair symbol travels in its own packet (it nearly fills
      // one); recursion is safe because repair carriers are never fed
      // back into the framer.
      fec_emit_scratch_.clear();
      fec_emit_scratch_.push_back(std::move(f));
      build_and_send(path_id, fec_emit_scratch_, {});
      fec_emit_scratch_.clear();
    }
    fec_frames_scratch_.clear();
  }
  return true;
}

void Connection::send_pending_acks() {
  for (auto& [id, p] : paths_) {
    if (p->state == PathState::State::kAbandoned) {
      p->acks.discard();
      continue;
    }
    if (!p->acks.due(loop_.now())) continue;
    Frame ack{take_ack(*p)};
    const auto carrier = paths_.ack_carrier_path(id);
    if (!carrier) continue;
    send_control_packet(*carrier, {std::move(ack)});
  }
}

// ------------------------------------------------------------ receive side

void Connection::on_datagram(PathId arrival_path, net::Datagram dgram) {
  if (close_state_ == CloseState::kDraining) return;
  if (close_state_ == CloseState::kClosing) {
    // RFC 9000 §10.2.1: keep answering a peer that missed our close, but
    // rate-limited -- one CONNECTION_CLOSE per exponentially growing count
    // of incoming packets, so a flood cannot make us flood back.
    if (++close_recv_since_send_ >= close_resend_threshold_ && send_fn_ &&
        !paths_.empty()) {
      close_recv_since_send_ = 0;
      close_resend_threshold_ *= 2;
      ++guard_.close_resends;
      send_close_frame(paths_.fastest_active_path());
    }
    return;
  }
  stats_.bytes_received += dgram.size();
  const auto pkt = parse_packet_view(dgram.span());
  if (!pkt) return;
  const PathId path_id = pkt->header.cid_sequence;
  (void)arrival_path;  // header's CID sequence is authoritative

  PathState* found = paths_.find(path_id);
  if (!found) {
    // New path initiated by the peer, or the server's first sight of the
    // connection (path 0 handshake).
    const bool handshake = pkt->header.type == PacketType::kInitial &&
                           path_id == 0 && config_.role == Role::kServer;
    // A valid unused CID admits a new path: simultaneous use under the
    // multipath extension, or plain QUIC connection migration.
    const bool new_subpath = established_ && local_cids_.contains(path_id);
    if (!handshake && !new_subpath) return;
    // Validate the initiator's address ourselves: a new subpath stays
    // kValidating (amplification-capped on the server) until our challenge
    // comes back.
    if (handshake) paths_.create(path_id, PathState::State::kActive);
    if (new_subpath) apply(paths_.open(path_id));
    found = paths_.find(path_id);
  }
  PathState& path = *found;

  // FEC: stash the sealed bytes (pre-decrypt -- open_packet_in_place
  // destroys the ciphertext) so this packet can serve as a present source
  // symbol when a repair window referencing it arrives.
  if (fec_recovery_)
    fec_recovery_->on_source(path_id, pkt->header.packet_number,
                             dgram.cspan(), loop_.now());

  // Decrypt in place inside the receive buffer and parse the frames into
  // the reusable scratch list; stream/crypto payloads borrow from `dgram`,
  // which stays alive for the rest of this call.
  const auto payload = open_packet_in_place(aead_, *pkt);
  std::vector<Frame> frames = std::move(recv_frames_scratch_);
  frames.clear();
  const bool parsed_ok = payload && parse_frames_into(*payload, frames);
  if (!parsed_ok) {
    ++stats_.auth_failures;
    recv_frames_scratch_ = std::move(frames);
    return;
  }

  ++path.packets_received;
  path.bytes_received += dgram.size();
  ++stats_.packets_received;
  XLINK_TRACE(config_.trace,
              telemetry::Event::packet_received(
                  loop_.now(), trace_origin(),
                  static_cast<std::uint8_t>(path_id),
                  pkt->header.packet_number, dgram.size()));

  const bool eliciting =
      std::any_of(frames.begin(), frames.end(),
                  [](const Frame& f) { return is_ack_eliciting(f); });
  // Duplicate verdict, replay-flood close, then the record: a close sent
  // here piggybacks the ack pending before this packet arrived.
  const bool duplicate = path.acks.received(pkt->header.packet_number);
  if (duplicate) {
    ++guard_.replayed_packets;
    if (guard_.replayed_packets > config_.budgets.max_replayed_packets) {
      close_with_error(TransportError::kProtocolViolation,
                       ViolationKind::kReplayFlood, guard_.replayed_packets,
                       path_id);
    }
  }
  path.acks.record(pkt->header.packet_number, eliciting, loop_.now());
  if (!duplicate && !closed_)
    handle_frames(path_id, frames);

  frames.clear();
  recv_frames_scratch_ = std::move(frames);
  pump();
}

void Connection::handle_frames(PathId path_id,
                               const std::vector<Frame>& frames) {
  for (const Frame& frame : frames) {
    if (closed_) return;
    if (!frame_legal_in_state(frame)) {
      close_with_error(TransportError::kProtocolViolation,
                       ViolationKind::kFrameIllegalInState,
                       static_cast<std::uint64_t>(frame.index()), path_id);
      return;
    }
    if (const auto* f = std::get_if<AckFrame>(&frame)) {
      handle_ack_info(path_id, f->info);
    } else if (const auto* f = std::get_if<AckMpFrame>(&frame)) {
      handle_ack_info(f->path_id, f->info);
      if (f->qoe) on_peer_qoe(*f->qoe);
    } else if (const auto* f = std::get_if<QoeControlSignalsFrame>(&frame)) {
      on_peer_qoe(f->qoe);
    } else if (const auto* f = std::get_if<RepairFrame>(&frame)) {
      handle_repair_frame(path_id, *f);
    } else if (const auto* f = std::get_if<StreamFrame>(&frame)) {
      handle_stream_frame(*f);
    } else if (const auto* f = std::get_if<CryptoFrame>(&frame)) {
      handle_crypto(*f);
    } else if (const auto* f = std::get_if<PathChallengeFrame>(&frame)) {
      // Answering proves nothing about the sender: only OUR challenge being
      // echoed back validates the peer's address (RFC 9000 §8.2.1), so a
      // spoofed-source probe cannot promote the path out of kValidating --
      // where the anti-amplification cap applies.
      queue_control(path_id, Frame{PathResponseFrame{f->data}});
    } else if (const auto* f = std::get_if<PathResponseFrame>(&frame)) {
      if (paths_.validate(path_id, f->data) && on_path_validated) {
        loop_.schedule_in(0, [this, path_id] {
          if (on_path_validated) on_path_validated(path_id);
        });
      }
    } else if (const auto* f = std::get_if<PathStatusFrame>(&frame)) {
      apply(paths_.on_peer_status(*f));
    } else if (const auto* f = std::get_if<NewConnectionIdFrame>(&frame)) {
      // An honest peer never issues beyond our advertised CID limit
      // (RFC 9000 §5.1.1); unbounded acceptance is a memory hole.
      if (f->sequence >= config_.params.active_connection_id_limit) {
        close_with_error(TransportError::kConnectionIdLimitError,
                         ViolationKind::kCidLimit, f->sequence, path_id);
        return;
      }
      ConnectionId cid;
      cid.bytes = f->cid;
      cid.sequence = static_cast<std::uint32_t>(f->sequence);
      peer_cids_[cid.sequence] = cid;
    } else if (const auto* f = std::get_if<MaxDataFrame>(&frame)) {
      streams_.on_max_data(f->maximum);
    } else if (const auto* f = std::get_if<MaxStreamDataFrame>(&frame)) {
      streams_.on_max_stream_data(*f);
    } else if (const auto* f = std::get_if<ConnectionCloseFrame>(&frame)) {
      // Peer-initiated termination: enter draining (RFC 9000 §10.2.2) --
      // nothing is ever sent again, incoming datagrams are dropped.
      enter_close_state(CloseState::kDraining, f->error_code, f->reason);
    }
    // PING, PADDING, HANDSHAKE_DONE, RESET_STREAM, STOP_SENDING: no action.
  }
}

void Connection::handle_crypto(const CryptoFrame& f) {
  auto params = parse_transport_params(f.data);
  if (!params || peer_params_) return;  // duplicate handshake data
  peer_params_ = *params;
  streams_.on_peer_params(*params);
  multipath_enabled_ =
      config_.params.enable_multipath && params->enable_multipath;

  if (config_.role == Role::kServer && !handshake_sent_) {
    handshake_sent_ = true;
    CryptoFrame reply;
    reply.data = encode_transport_params(config_.params);
    queue_control(0, Frame{std::move(reply)});
    queue_control(0, Frame{HandshakeDoneFrame{}});
  }
  established_ = true;
  issue_connection_ids();
  if (on_established)
    loop_.schedule_in(0, [this] {
      if (on_established) on_established();
    });
}

void Connection::on_peer_qoe(const QoeSignal& qoe) {
  latest_peer_qoe_ = qoe;
  XLINK_TRACE(config_.trace,
              telemetry::Event::qoe_signal(loop_.now(), trace_origin(),
                                           qoe.cached_bytes,
                                           qoe.cached_frames, qoe.bps));
  if (config_.scheduler) config_.scheduler->on_qoe(*this, qoe);
  if (on_qoe_feedback) on_qoe_feedback(qoe);
}

void Connection::handle_stream_frame(const StreamFrame& f) {
  const StreamTable::Admission admitted = streams_.admit(f);
  if (!admitted.stream) {
    close_with_error(admitted.error, admitted.kind, admitted.observed, 0);
    return;
  }
  RecvStream& stream = *admitted.stream;
  guard_.peak_open_recv_streams = std::max<std::uint64_t>(
      guard_.peak_open_recv_streams, streams_.recv_count());

  const std::uint64_t before = stream.contiguous_received();
  const std::uint64_t collapses_before = stream.gap_collapses();
  const std::uint64_t phantom_before = stream.phantom_bytes();
  streams_.receive(stream, f);
  guard_.gap_collapses += stream.gap_collapses() - collapses_before;
  guard_.phantom_bytes += stream.phantom_bytes() - phantom_before;
  guard_.peak_stream_gaps = std::max<std::uint64_t>(
      guard_.peak_stream_gaps, stream.tracked_intervals());

  const StreamId id = f.stream_id;
  if (stream.contiguous_received() > before && on_stream_readable) {
    loop_.schedule_in(0, [this, id] {
      if (on_stream_readable) on_stream_readable(id);
    });
  }
  if (on_stream_data_finished && streams_.first_finish(stream)) {
    loop_.schedule_in(0, [this, id] {
      if (on_stream_data_finished) on_stream_data_finished(id);
    });
  }
}

double Connection::path_loss_estimate(const PathState& p) const {
  if (p.packets_sent == 0) return 0.0;
  return static_cast<double>(p.packets_lost) /
         static_cast<double>(p.packets_sent);
}

void Connection::handle_repair_frame(PathId path_id, const RepairFrame& f) {
  ++guard_.repair_frames;
  // A REPAIR bomb: an honest symbol is bounded by the sealed MTU plus its
  // 2-byte length prefix, and each symbol travels in its own packet.
  if (f.payload.size() > config_.budgets.max_repair_symbol_bytes) {
    close_with_error(TransportError::kProtocolViolation,
                     ViolationKind::kRepairOversized, f.payload.size(),
                     path_id);
    return;
  }
  const std::uint64_t allowance =
      config_.budgets.repair_flood_base +
      config_.budgets.repair_flood_per_packet_received *
          stats_.packets_received;
  if (guard_.repair_frames > allowance) {
    close_with_error(TransportError::kProtocolViolation,
                     ViolationKind::kRepairFlood, guard_.repair_frames,
                     path_id);
    return;
  }
  if (!fec_recovery_) return;
  fec_recovered_scratch_.clear();
  const auto outcome =
      fec_recovery_->on_repair(path_id, f, loop_.now(), fec_recovered_scratch_);
  stats_.fec_wasted_symbols += outcome.wasted;
  stats_.fec_erased_seen += outcome.erased_newly_seen;
  stats_.fec_recovered_packets += outcome.recovered;
  if (outcome.wasted > 0) {
    XLINK_TRACE(config_.trace,
                telemetry::Event::fec_wasted(
                    loop_.now(), trace_origin(),
                    static_cast<std::uint8_t>(path_id), f.window_id,
                    outcome.wasted));
  }
  if (fec_recovered_scratch_.empty()) return;
  // Move the list out before delivery: a recovered datagram re-enters
  // on_datagram, which may reach this method again for a later window.
  std::vector<fec::RecoveryBuffer::Recovered> recovered =
      std::move(fec_recovered_scratch_);
  for (auto& rec : recovered) {
    XLINK_TRACE(config_.trace,
                telemetry::Event::fec_recovered(
                    loop_.now(), trace_origin(),
                    static_cast<std::uint8_t>(path_id), rec.pn, rec.window_id,
                    rec.latency_us));
    on_datagram(path_id, std::move(rec.wire));
  }
  recovered.clear();
  fec_recovered_scratch_ = std::move(recovered);
}

void Connection::handle_ack_info(PathId acked_path, const AckInfo& info) {
  PathState* found = paths_.find(acked_path);
  if (!found) return;
  PathState& p = *found;

  ++guard_.ack_frames;
  // Lying ACK: acknowledging a packet number this path never sent.
  if (!info.ranges.empty() && info.largest_acked() >= p.next_pn) {
    close_with_error(TransportError::kProtocolViolation,
                     ViolationKind::kLyingAck, info.largest_acked(),
                     acked_path);
    return;
  }
  // Ack flood: honest peers generate well under one ack frame per packet
  // we send; a flood is pure CPU/state pressure.
  const std::uint64_t allowance =
      config_.budgets.ack_flood_base +
      config_.budgets.ack_flood_per_packet_sent * stats_.packets_sent;
  if (guard_.ack_frames > allowance) {
    close_with_error(TransportError::kProtocolViolation,
                     ViolationKind::kAckFlood, guard_.ack_frames,
                     acked_path);
    return;
  }

  auto outcome = p.loss.on_ack_received(info, loop_.now(), p.rtt);
  if (outcome.rtt_sample) {
    p.rtt.on_sample(*outcome.rtt_sample, info.ack_delay_us);
  }
  XLINK_TRACE(config_.trace,
              telemetry::Event::ack_mp(
                  loop_.now(), trace_origin(),
                  static_cast<std::uint8_t>(acked_path), info.largest_acked(),
                  outcome.acked_bytes,
                  outcome.rtt_sample ? *outcome.rtt_sample : 0,
                  outcome.rtt_sample.has_value()));
  if (!outcome.acked.empty() && apply(paths_.on_ack(p)))
    ++stats_.path_resurrections;

  for (const SentRecord& rec : outcome.acked) {
    for (const SendItem& item : rec.items) {
      auto* stream = send_stream(item.stream_id);
      if (stream)
        stream->on_range_acked(item.offset, item.offset + item.length);
    }
    p.cc->on_ack(rec.bytes, rec.sent_time, loop_.now(), p.rtt.smoothed(),
                 rec.rate_stamp.is_app_limited);
    // Delivery-rate sample for this packet's flight (draft-cheng); the
    // rate-based controllers rebuild their model from these.
    const RateSample sample = p.sampler.on_ack(
        rec.rate_stamp, rec.bytes, rec.sent_time, loop_.now(),
        rec.pn == info.largest_acked() && outcome.rtt_sample
            ? *outcome.rtt_sample
            : 0,
        p.loss.bytes_in_flight());
    p.cc->on_rate_sample(sample, loop_.now());
    XLINK_TRACE(config_.trace,
                telemetry::Event::cc_rate_sample(
                    loop_.now(), trace_origin(),
                    static_cast<std::uint8_t>(p.id),
                    static_cast<std::uint64_t>(sample.delivery_rate),
                    static_cast<std::uint64_t>(sample.btlbw),
                    sample.min_rtt, sample.is_app_limited));
  }
  if (!outcome.acked.empty()) {
    update_pacing(p);
    trace_cc_state(p);
  }
  if (!outcome.lost.empty()) on_packets_lost(p, outcome.lost);
}

void Connection::update_pacing(PathState& p) {
  p.pacer.configure(config_.pacing);
  if (!config_.pacing.enabled) return;
  std::uint64_t rate = p.cc->pacing_rate_bytes_per_sec();
  if (rate == 0) {
    // Loss-based controllers have no rate opinion: pace a cwnd per srtt
    // with 25% headroom so pacing shapes bursts without throttling growth.
    const double srtt = sim::to_seconds(p.rtt.smoothed());
    if (srtt > 0.0)
      rate = static_cast<std::uint64_t>(
          1.25 * static_cast<double>(p.cc->cwnd_bytes()) / srtt);
  }
  p.pacer.set_rate(rate);
}

void Connection::trace_cc_state(const PathState& p) {
#if !defined(XLINK_TELEMETRY_DISABLED)
  if (!config_.trace || !config_.trace->enabled()) return;
  const std::size_t ss = p.cc->ssthresh_bytes();
  config_.trace->record(telemetry::Event::cc_state(
      loop_.now(), trace_origin(), static_cast<std::uint8_t>(p.id),
      p.cc->cwnd_bytes(), p.loss.bytes_in_flight(),
      ss == static_cast<std::size_t>(-1) ? telemetry::kNoValue : ss,
      p.rtt.smoothed(), p.cc->in_slow_start(),
      p.pacer.enabled() ? p.pacer.rate_bytes_per_sec() : telemetry::kNoValue));
#else
  (void)p;
#endif
}

// ----------------------------------------------------------- loss handling

void Connection::on_packets_lost(PathState& p,
                                 const std::vector<SentRecord>& lost) {
  if (lost.empty()) return;
  sim::Time latest_sent = 0;
  for (const SentRecord& rec : lost) {
    latest_sent = std::max(latest_sent, rec.sent_time);
    XLINK_TRACE(config_.trace,
                telemetry::Event::loss(
                    loop_.now(), trace_origin(),
                    static_cast<std::uint8_t>(p.id), rec.pn, rec.bytes,
                    static_cast<std::uint8_t>(p.loss.loss_reason(rec.pn))));
  }
  p.packets_lost += lost.size();
  stats_.packets_lost += lost.size();
  // The sampler never counts lost bytes as delivered, but it must see them
  // so app-limited markers drain when a flight's tail dies instead of
  // being acked (BBR keeps cwnd; the model just stops growing).
  for (const SentRecord& rec : lost) p.sampler.on_loss(rec.bytes);
  p.cc->on_loss_event(latest_sent, loop_.now());
  update_pacing(p);
  trace_cc_state(p);
  for (const SentRecord& rec : lost) requeue_record(rec);
  if (config_.scheduler) config_.scheduler->on_loss(*this, p.id);
}

void Connection::requeue_record(const SentRecord& record) {
  // Stream data: requeue the still-unacked subranges, front of their class.
  for (const SendItem& item : record.items) {
    const auto* stream = send_stream(item.stream_id);
    if (!stream) continue;
    SendItem proto = item;
    proto.is_retransmission = true;
    // A lost re-injection stays a re-injection, with the path it just
    // died on as its origin, so path selection steers it elsewhere.
    if (proto.is_reinjection) proto.origin_path = record.path;
    send_q_.enqueue_unacked(*stream, proto, InsertMode::kFrontOfClass);
  }
  // Control frames: path frames stay on their path, the rest go anywhere.
  for (const Frame& f : record.control) {
    const bool path_bound = std::holds_alternative<PathChallengeFrame>(f) ||
                            std::holds_alternative<PathResponseFrame>(f);
    if (path_bound) {
      const PathState* p = paths_.find(record.path);
      if (p && p->state != PathState::State::kAbandoned)
        queue_control(record.path, f);
    } else {
      queue_control(paths_.fastest_active_path(), f);
    }
  }
}

void Connection::on_pto(PathState& p) {
  ++stats_.ptos;
  ++p.pto_count;
  XLINK_TRACE(config_.trace, telemetry::Event::pto(
                                 loop_.now(), trace_origin(),
                                 static_cast<std::uint8_t>(p.id), p.pto_count));
  // TCP semantics (MPTCP baseline): every RTO collapses the window and
  // slow-starts; otherwise only persistent congestion does.
  if (config_.tcp_style_rto || p.pto_count >= 3)
    p.cc->on_persistent_congestion(loop_.now());
  if (config_.scheduler) config_.scheduler->on_pto(*this, p.id);

  // Path health: degrade, or fail over to the surviving paths.
  if (apply(paths_.on_pto(p))) {
    ++stats_.failovers;
    pump();
    return;
  }

  // Probe: retransmit the oldest unacked content (kept tracked;
  // stream-level ack state dedupes), including control frames -- a lost
  // handshake CRYPTO or PATH_CHALLENGE must be probed too. If no probe
  // materializes anything sendable, ping so the PTO clock advances.
  bool queued_payload = false;
  for (const auto& [pn, rec] : p.loss.records() | std::views::take(2)) {
    queued_payload |= !rec.items.empty() || !rec.control.empty();
    requeue_record(rec);
  }
  if (!queued_payload) queue_control(p.id, Frame{PingFrame{}});
  // Emit the probe now, bypassing the congestion window.
  if (queued_payload) send_one_packet(p.id, /*ignore_cwnd=*/true);
}

// ----------------------------------------------------------------- timers

void Connection::arm_timers() {
  std::optional<sim::Time> earliest;
  auto consider = [&earliest](std::optional<sim::Time> t) {
    if (t && (!earliest || *t < *earliest)) earliest = t;
  };
  for (const auto& [id, p] : paths_) {
    if (p->state == PathState::State::kAbandoned) continue;
    consider(p->acks.deadline());
    if (p->health == PathState::Health::kProbing) {
      // Failed-over path: only the backoff probe timer runs; loss/PTO
      // deadlines were wiped with the in-flight state at failover.
      if (p->next_probe_at) consider(p->next_probe_at);
      continue;
    }
    consider(p->loss.loss_time(p->rtt));
    consider(paths_.pto_deadline(*p));
    // Pacer release: data is queued, the window has room, only the token
    // bucket is holding the path back -- wake when credit matures.
    if (config_.pacing.enabled && !send_q_.empty() &&
        p->schedulable() && p->cwnd_available() >= kDefaultMss / 2 &&
        !p->pacer.can_send(loop_.now()))
      consider(p->pacer.next_release_time(loop_.now()));
  }
  cancel_timer();
  if (!earliest || closed_) return;
  // Floor 1ms ahead: a deadline that is already due is handled by the
  // pump/timer pass that follows, and scheduling at `now` could otherwise
  // re-fire within the same instant indefinitely. Pacer releases need
  // sub-millisecond wakes, so with pacing on a strictly-future deadline
  // keeps its exact time (still floored one tick ahead of now).
  sim::Time floor = loop_.now() + sim::kMillisecond;
  if (config_.pacing.enabled && *earliest > loop_.now())
    floor = loop_.now() + 1;
  const sim::Time at = std::max(*earliest, floor);
  timer_id_ = loop_.schedule_at(at, [this] {
    timer_id_ = 0;
    on_timer();
  });
}

void Connection::on_timer() {
  const sim::Time now = loop_.now();
  for (auto& [id, p] : paths_) {
    if (p->state == PathState::State::kAbandoned) continue;
    if (p->health == PathState::Health::kProbing) {
      // Tracked ack-eliciting PING: the ack (carried on a surviving path,
      // since ACK_MP for this space travels anywhere) resurrects the path.
      if (paths_.take_probe(*p)) {
        ++stats_.dead_path_probes;
        send_control_packet(id, {Frame{PingFrame{}}});
      }
      continue;
    }
    const auto lost = p->loss.detect_losses(now, p->rtt);
    if (!lost.empty()) on_packets_lost(*p, lost);
    if (const auto pto = paths_.pto_deadline(*p); pto && *pto <= now)
      on_pto(*p);
  }
  pump();
}

// ------------------------------------------------------- control and reads

void Connection::queue_control(PathId path, Frame frame) {
  pending_control_[path].push_back(std::move(frame));
}

std::vector<std::uint8_t> Connection::consume_stream(StreamId id,
                                                     std::size_t max) {
  RecvStream* stream = streams_.recv(id);
  if (!stream) return {};
  auto data = stream->read(max);
  const StreamTable::Grants grants = streams_.on_read(*stream, data.size());
  if (grants.max_data)
    queue_control(paths_.fastest_active_path(), Frame{*grants.max_data});
  if (grants.max_stream_data)
    queue_control(paths_.fastest_active_path(),
                  Frame{*grants.max_stream_data});
  pump();
  return data;
}

}  // namespace xlink::quic
