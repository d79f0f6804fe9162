// Hostile-peer attack harness.
//
// A scripted attacker that speaks just enough of the wire protocol to put
// arbitrary frames in front of a victim Connection, bypassing the honest
// transport entirely. It owns the connection-wide AEAD key (every XLINK
// endpoint of a connection shares one), so every forged packet
// authenticates: the guard has to win on protocol and budget enforcement,
// never on crypto.
//
// The harness also wiretaps the victim's outbound datagrams so tests can
// assert the *graceful* part of a close -- that a CONNECTION_CLOSE frame
// carrying the right transport error code actually went on the wire.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "quic/connection.h"
#include "quic/crypto.h"
#include "quic/packet.h"

namespace xlink::harness {

class HostilePeer {
 public:
  /// Attacks `victim` using its own configured AEAD key.
  explicit HostilePeer(quic::Connection& victim)
      : victim_(victim), aead_(victim.config().aead_key) {}

  /// Seals `frames` as a short-header packet numbered `pn` in `path`'s
  /// number space, through the same seal_packet_buffer the connection's
  /// send path uses. The wire image is copied out of the packet pool, so it
  /// is independently replayable and holds no pool slot.
  std::vector<std::uint8_t> seal(quic::PathId path, quic::PacketNumber pn,
                                 const std::vector<quic::Frame>& frames) const;

  /// Like seal() but with a long (Initial) header -- pre-handshake attacks.
  std::vector<std::uint8_t> seal_initial(
      quic::PathId path, quic::PacketNumber pn,
      const std::vector<quic::Frame>& frames) const;

  /// Seals and injects at the next fresh packet number for `path`.
  void inject(quic::PathId path, const std::vector<quic::Frame>& frames);

  /// Seals and injects with an explicit packet number (replay/collision
  /// attacks pick their own).
  void inject_at(quic::PathId path, quic::PacketNumber pn,
                 const std::vector<quic::Frame>& frames);

  /// Injects pre-sealed wire bytes verbatim (replay attacks).
  void inject_wire(quic::PathId path, std::span<const std::uint8_t> wire);

  /// Next packet number inject() will use on `path`. Defaults high so
  /// forged packets never collide with an honest peer's number space.
  quic::PacketNumber next_pn(quic::PathId path) const;

  /// Decrypts one captured victim datagram (tests feed datagrams recorded
  /// from the victim's send callback) through the receive path's
  /// parse/open-in-place steps. Frames own their payloads, so they outlive
  /// the wire buffer. Nullopt if it does not parse.
  std::optional<std::vector<quic::Frame>> open(
      std::span<const std::uint8_t> wire) const;

  /// First CONNECTION_CLOSE frame found in `wires`, if any.
  std::optional<quic::ConnectionCloseFrame> find_close(
      const std::vector<std::vector<std::uint8_t>>& wires) const;

  const quic::PacketProtection& aead() const { return aead_; }

 private:
  quic::Connection& victim_;
  quic::PacketProtection aead_;
  std::map<quic::PathId, quic::PacketNumber> pns_;
};

}  // namespace xlink::harness
