#include "util/crc32.hpp"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif

namespace uucs {

namespace {

// 16 x 256 slicing tables for the reflected IEEE polynomial. Table 0 is the
// classic Sarwate table; table k satisfies
//   tab[k][b] = (tab[k-1][b] >> 8) ^ tab[0][tab[k-1][b] & 0xff]
// so sixteen bytes can be folded per step.
struct SliceTables {
  std::array<std::array<std::uint32_t, 256>, 16> t;

  SliceTables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
  }
};

const SliceTables& tables() {
  static const SliceTables tabs;
  return tabs;
}

std::uint32_t update_bytewise(std::uint32_t crc, const unsigned char* p,
                              std::size_t n) {
  const auto& t0 = tables().t[0];
  for (std::size_t i = 0; i < n; ++i) {
    crc = t0[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define UUCS_CRC32_SLICE16 1
// Sixteen independent table loads per step. The loop-carried dependency on
// `crc` bounds a table CRC, so the wider the step, the fewer serial rounds.
std::uint32_t update_slice16(std::uint32_t crc, const unsigned char* p,
                             std::size_t n) {
  const auto& t = tables().t;
  // Align to 8 bytes so the memcpy loads below read whole words.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --n;
  }
  while (n >= 16) {
    std::uint64_t lo;
    std::uint64_t hi;
    std::memcpy(&lo, p, 8);
    std::memcpy(&hi, p + 8, 8);
    lo ^= crc;
    crc = t[15][lo & 0xffu] ^ t[14][(lo >> 8) & 0xffu] ^
          t[13][(lo >> 16) & 0xffu] ^ t[12][(lo >> 24) & 0xffu] ^
          t[11][(lo >> 32) & 0xffu] ^ t[10][(lo >> 40) & 0xffu] ^
          t[9][(lo >> 48) & 0xffu] ^ t[8][(lo >> 56) & 0xffu] ^
          t[7][hi & 0xffu] ^ t[6][(hi >> 8) & 0xffu] ^
          t[5][(hi >> 16) & 0xffu] ^ t[4][(hi >> 24) & 0xffu] ^
          t[3][(hi >> 32) & 0xffu] ^ t[2][(hi >> 40) & 0xffu] ^
          t[1][(hi >> 48) & 0xffu] ^ t[0][(hi >> 56) & 0xffu];
    p += 16;
    n -= 16;
  }
  return update_bytewise(crc, p, n);
}
#endif

#if defined(__aarch64__) && defined(__linux__)
#define UUCS_CRC32_ARMV8 1
// The ARMv8 CRC32 extension implements this exact (IEEE 802.3) polynomial,
// unlike x86 SSE4.2 which is CRC-32C only.
__attribute__((target("+crc"))) std::uint32_t update_armv8(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __builtin_aarch64_crc32b(crc, *p++);
    --n;
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    crc = __builtin_aarch64_crc32x(crc, w);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __builtin_aarch64_crc32b(crc, *p++);
    --n;
  }
  return crc;
}
#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t, const unsigned char*,
                                   std::size_t);

struct Dispatch {
  UpdateFn fn;
  const char* name;
};

Dispatch pick_impl() {
#if defined(UUCS_CRC32_ARMV8)
  if (getauxval(AT_HWCAP) & HWCAP_CRC32) {
    return {&update_armv8, "armv8-crc"};
  }
#endif
#if defined(UUCS_CRC32_SLICE16)
  return {&update_slice16, "slice16"};
#else
  return {&update_bytewise, "bytewise"};
#endif
}

const Dispatch& impl() {
  static const Dispatch d = pick_impl();
  return d;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::string_view data) {
  return impl().fn(state,
                   reinterpret_cast<const unsigned char*>(data.data()),
                   data.size());
}

std::uint32_t crc32(std::string_view data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

std::uint32_t crc32_bytewise(std::string_view data) {
  return crc32_final(
      update_bytewise(crc32_init(),
                      reinterpret_cast<const unsigned char*>(data.data()),
                      data.size()));
}

const char* crc32_impl_name() { return impl().name; }

}  // namespace uucs
