#include "ckpt/codec.h"

namespace oasis::ckpt {

// These writers are out of line: inlined right after a fresh writer's
// construction, GCC 12 reports a false -Wstringop-overflow on the
// byte-vector inserts.

void SectionWriter::bitset(const std::vector<bool>& bits) {
  u64(bits.size());
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) acc |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      out_.push_back(acc);
      acc = 0;
    }
  }
  if (bits.size() % 8 != 0) out_.push_back(acc);
}

void SectionWriter::rng(const common::Rng::State& s) {
  for (const auto word : s.words) u64(word);
  f64(s.spare_normal);
  u8(s.has_spare ? 1 : 0);
}

common::Rng::State SectionReader::rng() {
  common::Rng::State s;
  for (auto& word : s.words) word = u64();
  s.spare_normal = f64();
  s.has_spare = u8() != 0;
  return s;
}

}  // namespace oasis::ckpt
