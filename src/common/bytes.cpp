#include "common/bytes.h"

#include "common/error.h"

namespace oasis::common {

void ByteWriter::append(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out_.insert(out_.end(), b, b + n);
}

void ByteReader::expect_end() const {
  if (remaining() != 0) {
    fail(std::to_string(remaining()) + " trailing byte(s) after " +
         std::to_string(off_));
  }
}

void ByteReader::fail(const std::string& what) const {
  if (fail_) fail_(what);
  throw Error(what);
}

void ByteReader::truncated(std::size_t n, std::size_t width) const {
  fail("truncated at byte " + std::to_string(off_) + " of " +
       std::to_string(bytes_.size()) + ": " + std::to_string(n) + " x " +
       std::to_string(width) + " byte(s) wanted");
}

void ByteReader::overrun(std::uint64_t n) const {
  fail("count " + std::to_string(n) + " before byte " +
       std::to_string(off_) + " overruns the " +
       std::to_string(remaining()) + " byte(s) left");
}

}  // namespace oasis::common
