#include "harness/hostile.h"

#include "net/datagram.h"

namespace xlink::harness {

namespace {
/// High enough that forged packets never collide with (= get deduplicated
/// against) an honest peer's packet numbers in the same space.
constexpr quic::PacketNumber kForgedPnBase = 1u << 20;

net::PacketBuffer seal_as(const quic::PacketProtection& aead,
                          quic::PacketType type, quic::PathId path,
                          quic::PacketNumber pn,
                          const std::vector<quic::Frame>& frames) {
  quic::PacketHeader header;
  header.type = type;
  header.cid_sequence = static_cast<std::uint32_t>(path);
  header.packet_number = pn;
  return quic::seal_packet_buffer(aead, header, frames);
}

}  // namespace

std::vector<std::uint8_t> HostilePeer::seal(
    quic::PathId path, quic::PacketNumber pn,
    const std::vector<quic::Frame>& frames) const {
  const net::PacketBuffer buf =
      seal_as(aead_, quic::PacketType::kOneRtt, path, pn, frames);
  return {buf.begin(), buf.end()};
}

std::vector<std::uint8_t> HostilePeer::seal_initial(
    quic::PathId path, quic::PacketNumber pn,
    const std::vector<quic::Frame>& frames) const {
  const net::PacketBuffer buf =
      seal_as(aead_, quic::PacketType::kInitial, path, pn, frames);
  return {buf.begin(), buf.end()};
}

quic::PacketNumber HostilePeer::next_pn(quic::PathId path) const {
  auto it = pns_.find(path);
  return it == pns_.end() ? kForgedPnBase : it->second;
}

void HostilePeer::inject(quic::PathId path,
                         const std::vector<quic::Frame>& frames) {
  const quic::PacketNumber pn = next_pn(path);
  pns_[path] = pn + 1;
  inject_at(path, pn, frames);
}

void HostilePeer::inject_at(quic::PathId path, quic::PacketNumber pn,
                            const std::vector<quic::Frame>& frames) {
  inject_wire(path, seal(path, pn, frames));
}

void HostilePeer::inject_wire(quic::PathId path,
                              std::span<const std::uint8_t> wire) {
  victim_.on_datagram(path, net::PacketBuffer::copy_of(wire));
}

std::optional<std::vector<quic::Frame>> HostilePeer::open(
    std::span<const std::uint8_t> wire) const {
  net::PacketBuffer buf = net::PacketBuffer::copy_of(wire);
  const auto pkt = quic::parse_packet_view(buf.span());
  if (!pkt) return std::nullopt;
  const auto plaintext = quic::open_packet_in_place(aead_, *pkt);
  if (!plaintext) return std::nullopt;
  std::vector<quic::Frame> frames;
  if (!quic::parse_frames_into(*plaintext, frames,
                               quic::PayloadOwnership::kCopy))
    return std::nullopt;
  return frames;
}

std::optional<quic::ConnectionCloseFrame> HostilePeer::find_close(
    const std::vector<std::vector<std::uint8_t>>& wires) const {
  for (const auto& wire : wires) {
    const auto frames = open(wire);
    if (!frames) continue;
    for (const quic::Frame& f : *frames)
      if (const auto* close = std::get_if<quic::ConnectionCloseFrame>(&f))
        return *close;
  }
  return std::nullopt;
}

}  // namespace xlink::harness
