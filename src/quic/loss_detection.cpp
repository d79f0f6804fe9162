#include "quic/loss_detection.h"

#include <algorithm>
#include <utility>

namespace xlink::quic {

void LossDetection::on_packet_sent(SentRecord rec) {
  bytes_in_flight_ += rec.bytes;
  const PacketNumber pn = rec.pn;
  sent_.emplace(pn, std::move(rec));
}

sim::Duration LossDetection::time_threshold(const RttEstimator& rtt) const {
  const sim::Duration base = std::max(rtt.smoothed(), rtt.latest());
  return std::max<sim::Duration>(
      base * kTimeThresholdNum / kTimeThresholdDen, sim::kMillisecond);
}

LossDetection::AckOutcome LossDetection::on_ack_received(
    const AckInfo& info, sim::Time now, const RttEstimator& rtt) {
  AckOutcome out;
  if (info.ranges.empty()) return out;
  const PacketNumber largest = info.largest_acked();

  for (const AckRange& range : info.ranges) {
    auto it = sent_.lower_bound(range.first);
    while (it != sent_.end() && it->first <= range.last) {
      const SentRecord& r = it->second;
      out.acked_bytes += r.bytes;
      bytes_in_flight_ -= r.bytes;
      if (r.pn == largest)
        out.rtt_sample = now >= r.sent_time ? now - r.sent_time : 0;
      out.acked.push_back(std::move(it->second));
      it = sent_.erase(it);
    }
  }
  if (largest > largest_acked_ || !any_acked_) {
    largest_acked_ = std::max(largest_acked_, largest);
    any_acked_ = true;
  }
  out.lost = detect_losses(now, rtt);
  return out;
}

std::vector<SentRecord> LossDetection::detect_losses(
    sim::Time now, const RttEstimator& rtt) {
  std::vector<SentRecord> lost;
  if (!any_acked_) return lost;
  const sim::Duration threshold = time_threshold(rtt);
  for (auto it = sent_.begin(); it != sent_.end();) {
    const PacketNumber pn = it->first;
    if (pn >= largest_acked_) break;  // nothing newer acked: can't judge yet
    const SentRecord& r = it->second;
    const bool by_count = largest_acked_ >= pn + kPacketThreshold;
    const bool by_time = r.sent_time + threshold <= now;
    if (by_count || by_time) {
      bytes_in_flight_ -= r.bytes;
      lost.push_back(std::move(it->second));
      it = sent_.erase(it);
    } else {
      ++it;
    }
  }
  return lost;
}

std::optional<sim::Time> LossDetection::loss_time(
    const RttEstimator& rtt) const {
  if (!any_acked_) return std::nullopt;
  const sim::Duration threshold = time_threshold(rtt);
  std::optional<sim::Time> earliest;
  for (const auto& [pn, r] : sent_) {
    if (pn >= largest_acked_) break;
    const sim::Time t = r.sent_time + threshold;
    if (!earliest || t < *earliest) earliest = t;
  }
  return earliest;
}

std::vector<SentRecord> LossDetection::detach() {
  std::vector<SentRecord> out;
  out.reserve(sent_.size());
  for (auto& [pn, r] : sent_) out.push_back(std::move(r));
  sent_.clear();
  bytes_in_flight_ = 0;
  return out;
}

sim::Duration backed_off_pto(sim::Duration base_pto,
                             std::uint32_t pto_count) {
  const sim::Duration raw =
      base_pto << std::min(pto_count, kMaxPtoBackoffShift);
  return std::min(raw, kMaxPto);
}

}  // namespace xlink::quic
