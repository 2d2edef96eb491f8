// One little-endian byte writer and one bounded byte reader for every binary
// format in the library: tensor payloads (tensor/serialize.h), checkpoint
// containers and sections (ckpt/container.h, ckpt/codec.h) and net frames
// (net/frame.h).
//
// Fixed-width fields travel in host byte order, which the static_assert
// below pins to little-endian, so every format's layout is the same on
// every supported host. Doubles travel as raw IEEE-754 bit patterns
// (bit_cast through u64), so payloads round-trip exactly, signalling-NaN
// payloads included.
//
// ByteReader owns the cursor and the one bounds rule: no read runs past the
// span it was given, and a count prefix is checked against the bytes left
// BEFORE a caller sizes anything from it. A failing read calls the caller's
// Fail with a description; Fail throws the format's typed error
// (SerializationError, CheckpointError, NetError), so one reader serves
// every format without flattening their error types. Fail runs only on the
// failure path.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace oasis::common {

static_assert(std::endian::native == std::endian::little,
              "binary formats assume a little-endian host");

using ByteBuffer = std::vector<std::uint8_t>;

/// Appends fixed-width fields and raw bytes to an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Continues an existing buffer.
  explicit ByteWriter(ByteBuffer out) : out_(std::move(out)) {}

  void reserve(std::size_t n) { out_.reserve(n); }
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Appends `n` bytes at `p`. Out of line: inlined next to a fresh
  /// buffer's construction, GCC 12 reports a false -Wstringop-overflow.
  void append(const void* p, std::size_t n);

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] const ByteBuffer& bytes() const { return out_; }
  [[nodiscard]] ByteBuffer take() { return std::move(out_); }

 private:
  ByteBuffer out_;
};

/// Reads fixed-width fields from a span; every read is bounds-checked.
class ByteReader {
 public:
  /// Throws the format's typed error for a failure described by `what`.
  /// Should it return, the reader throws oasis::Error instead.
  using Fail = std::function<void(const std::string& what)>;

  ByteReader(std::span<const std::uint8_t> bytes, Fail fail)
      : bytes_(bytes), fail_(std::move(fail)) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next `n` elements of `width` bytes each, as a view into the input.
  /// The bound is overflow-safe: a hostile `n` fails, never wraps.
  std::span<const std::uint8_t> take(std::size_t n, std::size_t width = 1) {
    if (n > remaining() / width) truncated(n, width);
    const auto out = bytes_.subspan(off_, n * width);
    off_ += n * width;
    return out;
  }

  /// Reads a u32/u64 count prefix. Every count-prefixed list reads its count
  /// here: more elements of at least `element_bits` bits each than the bytes
  /// left can hold fail BEFORE the caller sizes anything from the count.
  template <typename T = std::uint64_t>
  std::size_t count(std::size_t element_bits) {
    const std::uint64_t n = fixed<T>();
    if (n > 8 * remaining() / element_bits) overrun(n);
    return static_cast<std::size_t>(n);
  }

  /// Everything not yet read, leaving the reader at the end.
  std::span<const std::uint8_t> rest() { return take(remaining()); }

  /// Fails unless every byte has been read: trailing bytes mean the writer
  /// and reader disagree about the layout.
  void expect_end() const;

  /// Raises the format's error for a check the format makes itself.
  [[noreturn]] void fail(const std::string& what) const;

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - off_; }
  [[nodiscard]] std::size_t offset() const { return off_; }

 private:
  template <typename T>
  T fixed() {
    T v;
    const auto b = take(sizeof(T));
    std::memcpy(&v, b.data(), sizeof(T));
    return v;
  }
  [[noreturn]] void truncated(std::size_t n, std::size_t width) const;
  [[noreturn]] void overrun(std::uint64_t n) const;

  std::span<const std::uint8_t> bytes_;
  Fail fail_;
  std::size_t off_ = 0;
};

}  // namespace oasis::common
