// CRC32C (Castagnoli) checksums for payload integrity.
//
// Used by two durability layers: tensor::serialize_tensors appends a payload
// checksum to every FL wire message, and the oasis::ckpt container carries a
// per-section CRC plus a whole-file footer CRC. CRC32C detects all single-bit
// and all burst errors up to 32 bits, which is exactly the torn-write /
// bit-rot threat model — it is NOT a cryptographic MAC and offers no defense
// against a deliberate forger (who controls the payload and can fix the CRC).
//
// Every update a client uploads and every model it loads is checksummed, so
// this sits on the round's hot path: the portable table walk runs under
// 1 GB/s and was the largest cost of a sharded round. crc32c() therefore
// picks, once at run time, the SSE4.2 `crc32` instruction (CRC32C is exactly
// the polynomial it implements; 8 bytes per instruction, ~7 GB/s) and falls
// back to the portable slice-by-4 table walk on hosts without SSE4.2 and on
// non-x86 targets. Both paths compute the same function bit for bit, so
// nothing selects between them and every stored checksum stays valid.
#pragma once

#include <cstddef>
#include <cstdint>

namespace oasis::common {

/// CRC32C over `data[0, n)`, continuing from `seed` (pass the previous call's
/// result to checksum a buffer in pieces; the default starts a fresh stream).
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

namespace detail {

/// The portable slice-by-4 table walk: crc32c()'s path where SSE4.2 is
/// absent, and the reference the hardware path is tested against.
std::uint32_t crc32c_portable(const void* data, std::size_t n,
                              std::uint32_t seed = 0);

/// True when crc32c() runs on the SSE4.2 instruction on this host.
bool crc32c_hardware();

}  // namespace detail
}  // namespace oasis::common
