#pragma once

#include <cstdint>
#include <string_view>

namespace uucs {

/// CRC-32 (IEEE 802.3: polynomial 0xEDB88320 reflected, init and xor-out
/// 0xFFFFFFFF) of `data`. This is the checksum the journal's on-disk frames
/// carry, shared with every framing consumer (Journal, FrameReader tooling,
/// the golden byte-identity tests) so there is exactly one implementation of
/// the polynomial in the tree.
///
/// Dispatches once at first use to the fastest implementation the host
/// supports: the ARMv8 CRC32 instructions where present (they implement this
/// exact polynomial), otherwise a slice-by-16 table walk that processes
/// sixteen bytes per step. The x86 SSE4.2 `crc32` instruction is deliberately NOT
/// used: it hard-wires the Castagnoli polynomial (CRC-32C), and swapping
/// polynomials would silently change every journal frame on disk.
std::uint32_t crc32(std::string_view data);

/// Incremental form: feed chunks through a running state. Start from
/// crc32_init(), finish with crc32_final(). crc32(x) ==
/// crc32_final(crc32_update(crc32_init(), x)).
constexpr std::uint32_t crc32_init() { return 0xffffffffu; }
std::uint32_t crc32_update(std::uint32_t state, std::string_view data);
constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xffffffffu;
}

/// The original one-byte-per-step table loop, kept as the reference the
/// dispatched implementation is differentially tested against and the
/// baseline the bench_micro speedup guard (>=4x) measures from.
std::uint32_t crc32_bytewise(std::string_view data);

/// Name of the implementation crc32() dispatched to ("armv8-crc" or
/// "slice16"); surfaced by bench_micro labels and the perf-smoke log.
const char* crc32_impl_name();

}  // namespace uucs
