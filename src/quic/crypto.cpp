#include "quic/crypto.h"

namespace xlink::quic {
namespace {

/// Small non-cryptographic PRF (splitmix64 finalizer); NOT secure, but
/// deterministic, fast, and collision-resistant enough to make tampered or
/// mis-addressed packets fail authentication in tests.
std::uint64_t prf(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t nonce_to_u64(const Nonce& n, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && offset + i < n.size(); ++i)
    v = (v << 8) | n[offset + i];
  return v;
}

}  // namespace

Nonce build_multipath_nonce(std::uint32_t cid_sequence, PacketNumber pn) {
  // 96-bit path-and-packet-number: 32-bit CID sequence number in network
  // byte order, then two zero bits and the 62-bit packet number.
  Nonce n{};
  n[0] = static_cast<std::uint8_t>(cid_sequence >> 24);
  n[1] = static_cast<std::uint8_t>(cid_sequence >> 16);
  n[2] = static_cast<std::uint8_t>(cid_sequence >> 8);
  n[3] = static_cast<std::uint8_t>(cid_sequence);
  const std::uint64_t pn62 = pn & ((1ULL << 62) - 1);
  for (int i = 0; i < 8; ++i)
    n[4 + i] = static_cast<std::uint8_t>(pn62 >> (56 - 8 * i));
  return n;
}

PacketProtection::PacketProtection(std::uint64_t key) : key_(key), iv_{} {
  std::uint64_t a = prf(key_ ^ 0x1111111111111111ULL);
  std::uint64_t b = prf(key_ ^ 0x2222222222222222ULL);
  for (int i = 0; i < 8; ++i)
    iv_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(a >> (56 - 8 * i));
  for (int i = 0; i < 4; ++i)
    iv_[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(b >> (24 - 8 * i));
}

Nonce PacketProtection::effective_nonce(std::uint32_t cid_sequence,
                                        PacketNumber pn) const {
  Nonce nonce = build_multipath_nonce(cid_sequence, pn);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] ^= iv_[i];
  return nonce;
}

void PacketProtection::apply_keystream(const Nonce& nonce, std::uint8_t* data,
                                       std::size_t len) const {
  // One keystream block covers 8 bytes; byte i is XORed with byte (i % 8)
  // of block (i / 8), exactly the historical layout.
  const std::uint64_t n0 = nonce_to_u64(nonce, 0);
  const std::uint64_t n4 = nonce_to_u64(nonce, 4);
  for (std::size_t i = 0; i < len; i += 8) {
    const std::uint64_t block = prf(key_ ^ prf(n0 ^ prf(n4 ^ (i / 8))));
    const std::size_t n = len - i < 8 ? len - i : 8;
    for (std::size_t j = 0; j < n; ++j)
      data[i + j] ^= static_cast<std::uint8_t>(block >> (8 * j));
  }
}

std::uint64_t PacketProtection::mac(const Nonce& nonce,
                                    std::span<const std::uint8_t> aad,
                                    std::span<const std::uint8_t> ct) const {
  // FNV-1a over aad || ct, folded with key and nonce through the PRF.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::span<const std::uint8_t> data) {
    for (std::uint8_t b : data) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  };
  mix(aad);
  mix(ct);
  // Fold in the WHOLE nonce (bytes 0-7 and 4-11) so every path-id and
  // packet-number bit is authenticated.
  return prf(h ^ key_ ^ prf(nonce_to_u64(nonce, 0) ^
                            prf(nonce_to_u64(nonce, 4))));
}

void PacketProtection::seal_in_place(std::uint32_t cid_sequence,
                                     PacketNumber pn,
                                     std::span<const std::uint8_t> aad,
                                     std::uint8_t* payload,
                                     std::size_t payload_len) const {
  const Nonce nonce = effective_nonce(cid_sequence, pn);
  apply_keystream(nonce, payload, payload_len);
  const std::uint64_t tag = mac(nonce, aad, {payload, payload_len});
  for (std::size_t i = 0; i < kAeadTagSize; ++i)
    payload[payload_len + i] = static_cast<std::uint8_t>(tag >> (56 - 8 * i));
}

std::optional<std::size_t> PacketProtection::open_in_place(
    std::uint32_t cid_sequence, PacketNumber pn,
    std::span<const std::uint8_t> aad,
    std::span<std::uint8_t> ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kAeadTagSize) return std::nullopt;
  const Nonce nonce = effective_nonce(cid_sequence, pn);

  const std::size_t ct_len = ciphertext_and_tag.size() - kAeadTagSize;
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < kAeadTagSize; ++i)
    tag = (tag << 8) | ciphertext_and_tag[ct_len + i];
  if (tag != mac(nonce, aad, ciphertext_and_tag.first(ct_len)))
    return std::nullopt;

  apply_keystream(nonce, ciphertext_and_tag.data(), ct_len);
  return ct_len;
}

}  // namespace xlink::quic
