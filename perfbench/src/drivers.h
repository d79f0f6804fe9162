// Layer drivers: standalone loops over the same public functions a session
// runs, for the layers that execute nested inside the seam spans (AEAD,
// frame codec, content synthesis, FEC, event loop). Each returns the median
// per-operation time of several batches; the ledger multiplies these by a
// session's exact operation counts to estimate the layer's share.
//
// Only the in-place APIs the session datapath uses are driven
// (seal_in_place/open_in_place, seal_packet_buffer, parse_packet_view +
// open_packet_in_place + parse_frames_into), never the copying wrappers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct DriverTimes {
  // AEAD, PacketProtection::seal_in_place / open_in_place.
  double seal_ns_1200 = 0;
  double open_ns_1200 = 0;
  double seal_ns_min = 0;  // payload of an ack-only (ACK_MP) packet
  double open_ns_min = 0;
  // Codec: seal_packet_buffer minus the seal of the same payload; parse =
  // parse_packet_view + parse_frames_into on the opened payload.
  double build_ns_1200 = 0;
  double build_ns_ack = 0;
  double parse_ns_1200 = 0;
  double parse_ns_ack = 0;
  std::size_t payload_1200 = 0;  // payload bytes of the "1200" packet
  std::size_t payload_min = 0;   // payload bytes of the ack-only packet
  // VideoModel::byte_at, per content byte.
  double content_ns_per_byte = 0;
  // FecFramer::on_packet_sent + RecoveryBuffer::on_source/on_repair, per
  // source packet (8-packet windows, 2 repairs, one erasure per window).
  double fec_ns_per_pkt = 0;
  // EventLoop schedule + fire, per event.
  double event_ns = 0;
  /// Driver self-checks (decrypt/parse/recovery results); false = a layer
  /// returned a wrong result.
  bool ok = true;
};

/// Runs every driver; inputs are derived from `seed`.
DriverTimes run_drivers(std::uint64_t seed);

}  // namespace perfbench
