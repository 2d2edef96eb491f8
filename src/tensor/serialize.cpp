#include "tensor/serialize.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/crc32c.h"

namespace oasis::tensor {
namespace {

using common::ByteReader;
using common::ByteWriter;
using Bytes = std::span<const std::uint8_t>;

constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);
// A listed tensor occupies at least its u64 rank, which bounds the count
// prefix by the bytes left; the cap bounds it further.
constexpr std::size_t kMinTensorBits = 64;
constexpr std::size_t kMaxTensors = std::size_t{1} << 20;

ByteReader payload_reader(Bytes bytes) {
  return ByteReader(bytes, [](const std::string& what) {
    throw SerializationError("tensor payload: " + what);
  });
}

/// serialize_tensors' exact output size: count, each tensor's rank,
/// extents and values, and the trailer.
std::size_t serialized_size(std::span<const Tensor* const> tensors) {
  std::size_t n = sizeof(std::uint64_t) + kCrcBytes;
  for (const Tensor* t : tensors) {
    n += sizeof(std::uint64_t) * (1 + t->rank()) +
         t->data().size() * sizeof(real);
  }
  return n;
}

void write(const Tensor& t, ByteWriter& w) {
  w.u64(t.rank());
  for (const auto d : t.shape()) w.u64(d);
  const auto values = t.data();
  w.append(values.data(), values.size() * sizeof(real));
}

/// Reads a tensor header (rank + extents) and returns its shape; `values` is
/// set to a view of the tensor's value bytes. Every check happens BEFORE
/// allocation and is written so no intermediate product can wrap: a hostile
/// header claiming 2^62 × 2^62 elements throws instead of overflowing to a
/// small count that would desynchronise the read cursor.
Shape read_header(ByteReader& r, Bytes& values) {
  const auto rank = r.u64();
  if (rank > 8) r.fail("implausible tensor rank " + std::to_string(rank));
  Shape shape(rank);
  index_t n = 1;
  for (auto& d : shape) {
    d = r.u64();
    if (d != 0 && n > std::numeric_limits<index_t>::max() / d) {
      r.fail("tensor extent product overflows");
    }
    n *= d;
  }
  values = r.take(n, sizeof(real));
  return shape;
}

/// Folds `values` into the scan's statistics one value at a time, in payload
/// order. The byte walk and the decoded walk both go through here, so their
/// sums of squares (and norm verdicts) agree bit for bit.
void accumulate(std::span<const real> values, TensorScan& scan) {
  for (const real v : values) {
    if (!std::isfinite(v)) scan.all_finite = false;
    scan.sum_squares += v * v;
  }
  scan.values += values.size();
}

Tensor read(ByteReader& r) {
  Bytes bytes;
  Shape shape = read_header(r, bytes);
  std::vector<real> values(bytes.size() / sizeof(real));
  // A zero extent leaves values.data() null, and memcpy from/to null is
  // undefined even for zero bytes.
  if (!values.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
  return Tensor(std::move(shape), std::move(values));
}

/// Verifies the CRC32C trailer of a serialize_tensors() message and returns
/// a reader over the payload before it, so a hostile length can never steer
/// the cursor into (or past) the checksum bytes. Runs BEFORE any structural
/// parsing so damaged bytes are reported as checksum damage even when the
/// structure still happens to decode.
ByteReader verified_payload(const ByteBuffer& in) {
  if (in.size() < sizeof(std::uint64_t) + kCrcBytes) {
    throw ChecksumError("buffer too small for count header + CRC trailer");
  }
  const Bytes payload = Bytes(in).first(in.size() - kCrcBytes);
  if (payload_reader(Bytes(in).last(kCrcBytes)).u32() !=
      oasis::common::crc32c(payload.data(), payload.size())) {
    throw ChecksumError("payload CRC32C mismatch");
  }
  return payload_reader(payload);
}

std::size_t read_count(ByteReader& r) {
  const std::size_t count = r.count(kMinTensorBits);
  if (count > kMaxTensors) {
    r.fail("implausible tensor count " + std::to_string(count));
  }
  return count;
}

}  // namespace

void write_tensor(const Tensor& t, ByteBuffer& out) {
  ByteWriter w(std::move(out));
  write(t, w);
  out = w.take();
}

Tensor read_tensor(const ByteBuffer& in, std::size_t& offset) {
  ByteReader r = payload_reader(in);
  (void)r.take(offset);
  Tensor t = read(r);
  offset = r.offset();
  return t;
}

ByteBuffer serialize_tensors(std::span<const Tensor* const> tensors) {
  // Sized up front: grown by appends, the trailer would reallocate and copy
  // the whole payload once the last tensor's values fill the capacity.
  ByteWriter w;
  w.reserve(serialized_size(tensors));
  w.u64(tensors.size());
  for (const Tensor* t : tensors) write(*t, w);
  w.u32(oasis::common::crc32c(w.bytes().data(), w.size()));
  return w.take();
}

ByteBuffer serialize_tensors(const std::vector<Tensor>& tensors) {
  std::vector<const Tensor*> list;
  list.reserve(tensors.size());
  for (const auto& t : tensors) list.push_back(&t);
  return serialize_tensors(list);
}

void reseal_tensors(ByteBuffer& buf) {
  if (buf.size() < kCrcBytes) return;
  const std::size_t payload = buf.size() - kCrcBytes;
  const std::uint32_t crc = oasis::common::crc32c(buf.data(), payload);
  std::memcpy(buf.data() + payload, &crc, kCrcBytes);
}

std::vector<Tensor> deserialize_tensors(const ByteBuffer& in) {
  ByteReader r = verified_payload(in);
  const std::size_t count = read_count(r);
  std::vector<Tensor> tensors;
  tensors.reserve(count);
  for (std::size_t i = 0; i < count; ++i) tensors.push_back(read(r));
  r.expect_end();
  return tensors;
}

void deserialize_tensors_into(const ByteBuffer& in,
                              std::span<Tensor* const> targets) {
  ByteReader r = verified_payload(in);
  const std::size_t count = read_count(r);
  if (count != targets.size()) {
    r.fail(std::to_string(count) + " tensors for " +
           std::to_string(targets.size()) + " targets");
  }
  // Every header is checked before the first value is copied, so a payload
  // that fails anywhere leaves every target as it was.
  std::vector<Bytes> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Shape shape = read_header(r, values[i]);
    if (shape != targets[i]->shape()) {
      r.fail("tensor " + std::to_string(i) + " is " + to_string(shape) +
             ", target is " + to_string(targets[i]->shape()));
    }
  }
  r.expect_end();
  for (std::size_t i = 0; i < count; ++i) {
    if (!values[i].empty()) {
      std::memcpy(targets[i]->data().data(), values[i].data(),
                  values[i].size());
    }
  }
}

TensorScan scan_tensors(const ByteBuffer& in) {
  ByteReader r = verified_payload(in);
  TensorScan scan;
  scan.tensors = read_count(r);
  scan.shapes.reserve(scan.tensors);
  for (std::uint64_t i = 0; i < scan.tensors; ++i) {
    Bytes bytes;
    scan.shapes.push_back(read_header(r, bytes));
    // Stream the values through a small stack buffer: the payload bytes are
    // not guaranteed to be double-aligned inside the message.
    constexpr index_t kChunk = 128;
    real buf[kChunk];
    const index_t n = bytes.size() / sizeof(real);
    index_t done = 0;
    while (done < n) {
      const index_t take = std::min(kChunk, n - done);
      std::memcpy(buf, bytes.data() + done * sizeof(real),
                  take * sizeof(real));
      accumulate(std::span<const real>(buf, take), scan);
      done += take;
    }
  }
  r.expect_end();
  return scan;
}

TensorScan summarize_tensors(const std::vector<Tensor>& tensors) {
  TensorScan scan;
  scan.tensors = tensors.size();
  scan.shapes.reserve(tensors.size());
  for (const auto& t : tensors) {
    scan.shapes.push_back(t.shape());
    accumulate(t.data(), scan);
  }
  return scan;
}

}  // namespace oasis::tensor
