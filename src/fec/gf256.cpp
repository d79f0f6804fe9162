#include "fec/gf256.h"

namespace xlink::fec {
namespace detail {

Gf256Tables::Gf256Tables() {
  // Generator 0x03 is primitive for the 0x11b polynomial: powers of 3
  // enumerate every non-zero field element exactly once.
  std::uint8_t x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp[i] = x;
    log[x] = static_cast<std::uint8_t>(i);
    // x *= 3  ==  x ^ (x << 1) with reduction.
    const std::uint8_t hi = static_cast<std::uint8_t>(x & 0x80u);
    std::uint8_t shifted = static_cast<std::uint8_t>(x << 1);
    if (hi) shifted ^= 0x1b;
    x ^= shifted;
  }
  for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  log[0] = 0;  // never read; keeps the table fully initialised
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      mul[a][b] = (a == 0 || b == 0)
                      ? 0
                      : exp[static_cast<unsigned>(log[a]) + log[b]];
    }
  }
}

const Gf256Tables& gf_tables() {
  static const Gf256Tables tables;
  return tables;
}

}  // namespace detail

void gf_addmul(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
               std::uint8_t c) {
  const std::size_t n = dst.size() < src.size() ? dst.size() : src.size();
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const std::uint8_t* row = detail::gf_tables().mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void gf_scale(std::span<std::uint8_t> dst, std::uint8_t c) {
  if (c == 1) return;
  const std::uint8_t* row = detail::gf_tables().mul[c];
  for (auto& b : dst) b = row[b];
}

}  // namespace xlink::fec
