#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define OASIS_CRC32C_SSE42 1
#endif

namespace oasis::common {
namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

struct Tables {
  // tables[k][b]: CRC contribution of byte b at lane k of a 4-byte slice.
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][b] = crc;
    }
    for (std::uint32_t b = 0; b < 256; ++b) {
      for (int k = 1; k < 4; ++k) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
      }
    }
  }
};

const Tables& tables() {
  static const Tables g;
  return g;
}

#ifdef OASIS_CRC32C_SSE42
// Compiled for SSE4.2 on its own, so the baseline build needs no -msse4.2;
// it only runs where __builtin_cpu_supports says the instruction exists.
// memcpy loads: payload bytes carry no alignment guarantee.
[[gnu::target("sse4.2")]] std::uint32_t crc32c_sse42(
    const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    crc = _mm_crc32_u64(crc, v);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

Crc32cFn pick() {
#ifdef OASIS_CRC32C_SSE42
  __builtin_cpu_init();  // a static initializer may be the first caller
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return detail::crc32c_portable;
}

Crc32cFn dispatched() {
  static const Crc32cFn fn = pick();
  return fn;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed) {
  return dispatched()(data, n, seed);
}

namespace detail {

std::uint32_t crc32c_portable(const void* data, std::size_t n,
                              std::uint32_t seed) {
  const auto& t = tables().t;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

bool crc32c_hardware() { return dispatched() != crc32c_portable; }

}  // namespace detail
}  // namespace oasis::common
