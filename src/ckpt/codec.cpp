#include "ckpt/codec.h"

#include "common/error.h"

namespace oasis::ckpt {

void SectionWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void SectionWriter::bytes(const ByteBuffer& b) {
  u64(b.size());
  append(b.data(), b.size());
}

void SectionWriter::bitset(const std::vector<bool>& bits) {
  u64(bits.size());
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) acc |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      u8(acc);
      acc = 0;
    }
  }
  if (bits.size() % 8 != 0) u8(acc);
}

void SectionWriter::rng(const common::Rng::State& s) {
  for (const auto word : s.words) u64(word);
  f64(s.spare_normal);
  u8(s.has_spare ? 1 : 0);
}

SectionReader::SectionReader(const ByteBuffer& in, const std::string& section)
    : ByteReader(in, [section](const std::string& what) {
        throw CheckpointError(CheckpointError::Reason::kMalformedSection,
                              "section '" + section + "': " + what);
      }) {}

std::string SectionReader::str() {
  const auto b = take(u32());
  return std::string(b.begin(), b.end());
}

ByteBuffer SectionReader::bytes() {
  const auto b = take(u64());
  return ByteBuffer(b.begin(), b.end());
}

std::vector<bool> SectionReader::bitset() {
  const std::size_t nbits = count(1);
  const auto packed = take((nbits + 7) / 8);
  std::vector<bool> bits(nbits);
  for (std::size_t i = 0; i < nbits; ++i) {
    bits[i] = (packed[i / 8] >> (i % 8)) & 1u;
  }
  // Padding bits beyond nbits must be zero — a set stray bit means the
  // writer and reader disagree about the count.
  if (nbits % 8 != 0 && (packed.back() >> (nbits % 8)) != 0) {
    fail("bitset has stray padding bits");
  }
  return bits;
}

common::Rng::State SectionReader::rng() {
  common::Rng::State s;
  for (auto& word : s.words) word = u64();
  s.spare_normal = f64();
  s.has_spare = u8() != 0;
  return s;
}

}  // namespace oasis::ckpt
