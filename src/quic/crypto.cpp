#include "quic/crypto.h"

#include "quic/varint.h"

namespace xlink::quic {
namespace {

/// Small non-cryptographic PRF (splitmix64 finalizer); NOT secure, but
/// deterministic, fast, and collision-resistant enough to make tampered or
/// mis-addressed packets fail authentication in tests. It is a bijection
/// on 64-bit words.
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

/// The MAC's four independent multiply-xor lanes. Word i of an input (8
/// little-endian bytes) updates lane i % 4 as `lane = (lane ^ word) * odd`;
/// for a fixed lane that is injective in the word, and for a fixed word a
/// bijection of the lane, so changing any one word changes its lane's
/// final value. Four lanes keep four multiplies in flight instead of one
/// serial chain.
class MacLanes {
 public:
  void absorb(std::span<const std::uint8_t> data) {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    for (; n >= 32; p += 32, n -= 32)
      for (std::size_t k = 0; k < 4; ++k) update(k, load_le64(p + 8 * k));
    std::size_t k = 0;
    for (; n >= 8; p += 8, n -= 8, ++k) update(k, load_le64(p));
    // The final partial word (zero-padded) together with the length, so
    // an input never collides with itself zero-extended.
    std::uint64_t tail = 0;
    for (std::size_t i = 0; i < n; ++i)
      tail |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    update(k, tail);
    update(k, data.size());
  }

  /// Nested PRFs: injective in each lane while the others are fixed.
  std::uint64_t combine() const {
    return prf(prf(prf(prf(lane_[0]) ^ lane_[1]) ^ lane_[2]) ^ lane_[3]);
  }

 private:
  static constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ULL;

  void update(std::size_t k, std::uint64_t word) {
    lane_[k] = (lane_[k] ^ word) * kOdd;
  }

  std::uint64_t lane_[4] = {0xcbf29ce484222325ULL, 0x6a09e667f3bcc908ULL,
                            0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL};
};

/// XORs the packet's keystream over `data`.
void apply_keystream(std::uint64_t base, std::uint8_t* data, std::size_t len) {
  // Block b covers bytes 8b..8b+7 as one little-endian word; the blocks
  // are independent, so their PRFs overlap.
  std::size_t i = 0;
  for (; len - i >= 8; i += 8)
    store_le64(data + i, load_le64(data + i) ^ prf(base ^ (i / 8)));
  if (i == len) return;
  const std::uint64_t block = prf(base ^ (i / 8));
  for (std::size_t j = 0; i + j < len; ++j)
    data[i + j] ^= static_cast<std::uint8_t>(block >> (8 * j));
}

/// Tag over aad || ciphertext, keyed by the packet's base value.
std::uint64_t mac(std::uint64_t base, std::span<const std::uint8_t> aad,
                  std::span<const std::uint8_t> ct) {
  MacLanes lanes;
  lanes.absorb(aad);
  lanes.absorb(ct);
  return prf(lanes.combine() ^ base);
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

std::uint64_t PacketProtection::packet_base(std::uint32_t cid_sequence,
                                           PacketNumber pn) const {
  Nonce nonce = build_multipath_nonce(cid_sequence, pn);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] ^= iv_[i];
  // The WHOLE nonce (bytes 0-7 and 4-11), so every path-id and
  // packet-number bit reaches both the keystream and the tag.
  return key_ ^ prf(nonce_to_u64(nonce, 0) ^ prf(nonce_to_u64(nonce, 4)));
}

void PacketProtection::seal_in_place(std::uint32_t cid_sequence,
                                     PacketNumber pn,
                                     std::span<const std::uint8_t> aad,
                                     std::uint8_t* payload,
                                     std::size_t payload_len) const {
  const std::uint64_t base = packet_base(cid_sequence, pn);
  apply_keystream(base, payload, payload_len);
  store_le64(payload + payload_len, mac(base, aad, {payload, payload_len}));
}

std::optional<std::size_t> PacketProtection::open_in_place(
    std::uint32_t cid_sequence, PacketNumber pn,
    std::span<const std::uint8_t> aad,
    std::span<std::uint8_t> ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kAeadTagSize) return std::nullopt;
  const std::uint64_t base = packet_base(cid_sequence, pn);
  const std::size_t ct_len = ciphertext_and_tag.size() - kAeadTagSize;
  if (load_le64(ciphertext_and_tag.data() + ct_len) !=
      mac(base, aad, ciphertext_and_tag.first(ct_len)))
    return std::nullopt;
  apply_keystream(base, ciphertext_and_tag.data(), ct_len);
  return ct_len;
}

}  // namespace xlink::quic
