#include "digest.h"

#include <cstring>
#include <sstream>

namespace perfbench {
namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void opt(const std::optional<double>& v) {
    u64(v.has_value());
    if (v) f64(*v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t digest(const xlink::harness::SessionResult& r) {
  Fnv h;
  h.u64(r.chunk_rct_seconds.size());
  for (double v : r.chunk_rct_seconds) h.f64(v);
  h.u64(r.chunks_total);
  h.u64(r.chunks_completed);
  h.opt(r.first_frame_seconds);
  h.opt(r.startup_delay_seconds);
  h.f64(r.rebuffer_rate);
  h.f64(r.rebuffer_seconds);
  h.f64(r.play_seconds);
  h.u64(r.rebuffer_count);
  h.u64(r.video_finished);
  h.u64(r.download_finished);
  h.f64(r.download_seconds);
  h.u64(r.server_wire_bytes);
  h.u64(r.stream_payload_bytes);
  h.u64(r.reinjected_bytes);
  h.u64(r.retransmitted_bytes);
  h.u64(r.packets_lost);
  h.f64(r.redundancy_ratio);
  h.u64(r.fec_repair_bytes);
  h.u64(r.fec_repair_packets);
  h.u64(r.fec_windows_protected);
  h.u64(r.fec_recovered_packets);
  h.u64(r.fec_wasted_symbols);
  h.u64(r.fec_erased_seen);
  h.u64(r.abr_enabled);
  h.u64(r.abr_decisions);
  h.u64(r.abr_switches);
  h.u64(r.abr_switch_magnitude);
  h.f64(r.abr_bitrate_utility);
  h.u64(r.path_down_bytes.size());
  for (auto v : r.path_down_bytes) h.u64(v);
  h.u64(r.path_peak_queue_bytes.size());
  for (auto v : r.path_peak_queue_bytes) h.u64(v);
  return h.value();
}

std::string cell_text(const xlink::harness::shard::CellResult& result) {
  xlink::harness::shard::GridCell cell;
  cell.label = "perfbench";
  cell.ab = true;
  xlink::harness::shard::CellResult copy = result;
  copy.wall_seconds = 0.0;
  std::ostringstream os;
  xlink::harness::shard::write_cell_result(cell, copy, os);
  return os.str();
}

}  // namespace perfbench
