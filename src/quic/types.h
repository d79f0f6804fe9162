// Core QUIC identifier types and protocol constants.
#pragma once

#include <array>
#include <cstdint>

namespace xlink::quic {

/// Packet number within one path's number space (multipath QUIC keeps a
/// separate space per path, identified by CID sequence number).
using PacketNumber = std::uint64_t;

/// Stream identifier per RFC 9000 (bits 0-1 encode initiator/direction).
using StreamId = std::uint64_t;

/// Path identifier == sequence number of the destination connection ID used
/// on that path (draft-liu-multipath-quic).
using PathId = std::uint32_t;

/// 8-byte connection ID with its sequence number.
struct ConnectionId {
  std::array<std::uint8_t, 8> bytes{};
  std::uint32_t sequence = 0;

  bool operator==(const ConnectionId&) const = default;
};

/// Maximum QUIC packet payload we place in one datagram (post-header).
constexpr std::size_t kMaxPacketPayload = 1400;

/// Full datagram size bound.
constexpr std::size_t kMaxDatagramSize = 1452;

/// Client-initiated bidirectional stream ids: 0, 4, 8, ...
inline constexpr StreamId client_bidi_stream(std::uint64_t n) { return n * 4; }

/// Transport parameters exchanged during the (simplified) handshake.
struct TransportParams {
  bool enable_multipath = false;
  std::uint64_t initial_max_data = 16 * 1024 * 1024;
  std::uint64_t initial_max_stream_data = 8 * 1024 * 1024;
  std::uint64_t active_connection_id_limit = 8;
  std::uint64_t max_ack_delay_ms = 25;
};

}  // namespace xlink::quic
