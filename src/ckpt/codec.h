// Value codec for checkpoint section payloads.
//
// Sections store primitive streams (u8/u32/u64, bit-cast f64) through the
// shared common::ByteWriter/ByteReader, plus the few composite values only
// checkpoints use: short strings, byte blobs, bitsets and RNG stream
// positions. A SectionReader is a ByteReader whose failures throw
// CheckpointError{kMalformedSection} naming the section — by the time a
// reader runs, the section's CRC already passed, so a malformed stream
// means a writer bug, version skew or a hostile resealed file, not disk
// damage. Every count prefix goes through ByteReader::count, which refuses
// a count the bytes left cannot hold before anything is sized from it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace oasis::ckpt {

using ByteBuffer = common::ByteBuffer;

class SectionWriter : public common::ByteWriter {
 public:
  /// u32 length + bytes.
  void str(const std::string& s);
  /// u64 length + bytes.
  void bytes(const ByteBuffer& b);
  /// Bit-packed flag vector (u64 bit count + ceil(n/8) bytes, LSB-first).
  /// The sharded round engine stores its completed-shard bitmap this way so
  /// a mid-round snapshot of a million-shard round costs kilobytes.
  void bitset(const std::vector<bool>& bits);
  /// A common::Rng stream position: 4 state words, the cached Box–Muller
  /// spare, and its validity flag. Every engine snapshot stores its RNG
  /// streams this way.
  void rng(const common::Rng::State& s);
};

class SectionReader : public common::ByteReader {
 public:
  /// Reads `in`, which must outlive the reader; `section` names it in
  /// error messages.
  SectionReader(const ByteBuffer& in, const std::string& section);

  std::string str();
  ByteBuffer bytes();
  std::vector<bool> bitset();
  common::Rng::State rng();
};

}  // namespace oasis::ckpt
