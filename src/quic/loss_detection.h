// Per-path loss detection, RFC 9002 style.
//
// Multipath QUIC gives each path its own packet number space, so each path
// owns one LossDetection instance. It is the one ledger of the path's
// in-flight packets (the paper's unacked_q): it keeps every SentRecord,
// frame contents included, from send until the record is acked, declared
// lost or detached, and hands the record itself back to the connection,
// which feeds congestion control and retransmits from it.
//
// A packet is declared lost when it is unacked and either
//   largest_acked >= pn + kPacketThreshold            (packet threshold), or
//   sent_time <= now - 9/8 * max(srtt, latest_rtt)    (time threshold,
//                                                      once something newer
//                                                      was acked).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ranges>
#include <vector>

#include "quic/delivery_rate.h"
#include "quic/frame.h"
#include "quic/rtt.h"
#include "quic/scheduler.h"
#include "quic/types.h"
#include "sim/time.h"

namespace xlink::quic {

constexpr std::uint64_t kPacketThreshold = 3;
constexpr int kTimeThresholdNum = 9;   // 9/8 of RTT
constexpr int kTimeThresholdDen = 8;

/// PTO exponential backoff doubles per consecutive timeout (RFC 9002 §6.2)
/// but is capped twice: the exponent stops growing, and the resulting
/// interval never exceeds kMaxPto. Without the absolute cap, a long
/// blackout (srtt inflated into seconds by ack silence) pushes the next
/// probe past the session horizon and a recovered path is never noticed.
constexpr std::uint32_t kMaxPtoBackoffShift = 6;
constexpr sim::Duration kMaxPto = sim::seconds(4);

/// The backed-off PTO interval for a path that has seen `pto_count`
/// consecutive timeouts.
sim::Duration backed_off_pto(sim::Duration base_pto, std::uint32_t pto_count);

/// Which of the two RFC 9002 rules declared a packet lost (exported to
/// telemetry; time-threshold losses are the signature of reordering or
/// delay spikes rather than drops).
enum class LossReason : std::uint8_t { kPacketThreshold = 0, kTimeThreshold };

/// One sent ack-eliciting packet, kept until it is acked, declared lost or
/// detached (packets that elicit no ack carry nothing to track).
struct SentRecord {
  PacketNumber pn = 0;
  PathId path = 0;
  sim::Time sent_time = 0;
  std::size_t bytes = 0;         // sealed wire size, never 0
  std::vector<SendItem> items;   // stream ranges carried
  std::vector<Frame> control;    // retransmittable control frames carried
  bool is_reinjection = false;   // this packet was itself a re-injection
  bool reinjected = false;       // a duplicate of this packet was queued
  sim::Time reinjected_at = 0;   // when that duplicate was queued
  /// Delivery-rate stamp (draft-cheng): the path's delivered totals frozen
  /// at send time, so the ack can reconstruct the rate over this flight.
  RateStamp rate_stamp;
};

class LossDetection {
 public:
  using Ledger = std::map<PacketNumber, SentRecord>;

  /// Tracks `rec` until it is acked, declared lost or detached.
  void on_packet_sent(SentRecord rec);

  struct AckOutcome {
    std::vector<SentRecord> acked;  // in ack-range order
    std::vector<SentRecord> lost;   // in packet-number order
    std::size_t acked_bytes = 0;
    /// RTT sample (now - send time of the largest acked, if newly acked).
    std::optional<sim::Duration> rtt_sample;
  };

  /// Processes an ACK block; also runs loss detection with the new
  /// largest-acked information. The acked and lost records leave the ledger.
  AckOutcome on_ack_received(const AckInfo& info, sim::Time now,
                             const RttEstimator& rtt);

  /// Re-runs time-threshold loss detection (call when the loss timer fires);
  /// the lost records leave the ledger, in packet-number order.
  std::vector<SentRecord> detect_losses(sim::Time now,
                                        const RttEstimator& rtt);

  /// Which rule declared packet `pn` lost, for a record just handed back as
  /// lost (the judgment used the current largest_acked()).
  LossReason loss_reason(PacketNumber pn) const {
    return largest_acked_ >= pn + kPacketThreshold
               ? LossReason::kPacketThreshold
               : LossReason::kTimeThreshold;
  }

  /// Earliest time at which a currently-tracked packet would cross the time
  /// threshold; nullopt when no packet is waiting on it.
  std::optional<sim::Time> loss_time(const RttEstimator& rtt) const;

  /// Hands back every tracked record in packet-number order and leaves
  /// nothing in flight (failover and abandon: the connection requeues the
  /// content elsewhere, and the path stops charging bytes_in_flight and
  /// arming loss/PTO timers for packets that will never be acked).
  std::vector<SentRecord> detach();

  /// The tracked records in packet-number order. Callers may mark records
  /// (re-injection) but neither add nor remove them.
  std::ranges::subrange<Ledger::iterator> records() {
    return {sent_.begin(), sent_.end()};
  }
  const Ledger& records() const { return sent_; }

  /// Bytes of the records in flight; > 0 exactly when one is.
  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  PacketNumber largest_acked() const { return largest_acked_; }
  std::size_t tracked_packets() const { return sent_.size(); }

 private:
  sim::Duration time_threshold(const RttEstimator& rtt) const;

  Ledger sent_;
  std::size_t bytes_in_flight_ = 0;
  PacketNumber largest_acked_ = 0;
  bool any_acked_ = false;
};

}  // namespace xlink::quic
