#pragma once

// GF(2^8) arithmetic for the FEC subsystem.
//
// The field is GF(2^8) with the AES/Rijndael reduction polynomial
// x^8 + x^4 + x^3 + x + 1 (0x11b). Scalar multiplication and division go
// through log/exp tables from the generator 0x03, so every operation is a
// couple of table lookups -- no branches beyond the zero checks, no
// allocations, fully deterministic. The row operations read a 256x256
// product table instead: one lookup per byte into row c, no branch. All
// tables are built once, at first use.

#include <cstddef>
#include <cstdint>
#include <span>

namespace xlink::fec {

namespace detail {

struct Gf256Tables {
  std::uint8_t exp[512];  // exp[i] = g^i, doubled so mul needs no mod 255
  std::uint8_t log[256];  // log[exp[i]] = i; log[0] unused
  std::uint8_t mul[256][256];  // mul[a][b] = a * b
  Gf256Tables();
};

const Gf256Tables& gf_tables();

}  // namespace detail

/// a * b in GF(2^8).
inline std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = detail::gf_tables();
  return t.exp[static_cast<unsigned>(t.log[a]) + t.log[b]];
}

/// a / b in GF(2^8); b must be non-zero.
inline std::uint8_t gf_div(std::uint8_t a, std::uint8_t b) {
  if (a == 0) return 0;
  const auto& t = detail::gf_tables();
  return t.exp[static_cast<unsigned>(t.log[a]) + 255 - t.log[b]];
}

/// Multiplicative inverse; a must be non-zero.
inline std::uint8_t gf_inv(std::uint8_t a) {
  const auto& t = detail::gf_tables();
  return t.exp[255 - t.log[a]];
}

/// dst[i] ^= c * src[i] over the whole span. The row operation behind both
/// RS encode (accumulate coded symbols) and decode (matrix elimination).
/// c == 0 is a no-op and c == 1 a plain XOR; any other c costs one
/// product-table lookup per byte.
void gf_addmul(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
               std::uint8_t c);

/// dst[i] = c * dst[i] over the span (row scaling during elimination).
void gf_scale(std::span<std::uint8_t> dst, std::uint8_t c);

}  // namespace xlink::fec
