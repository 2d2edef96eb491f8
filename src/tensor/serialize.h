// Binary (de)serialization of tensors.
//
// The FL layer ships model snapshots and gradient updates between server and
// clients as byte buffers; this module defines that wire format. Layout per
// tensor: u64 rank, u64 extents..., f64 values... (little-endian, written
// and read through common::ByteWriter/ByteReader like every binary format
// in the library).
//
// Deserialization is hardened against hostile payloads: the tensor count and
// every extent are bounds-checked (overflow-safely) against the bytes
// actually present BEFORE any allocation, so a truncated, bit-flipped, or
// oversized buffer throws SerializationError instead of reading past the end
// or attempting a large allocation. The tensor count is bounded by the bytes
// left (each tensor needs at least its 8-byte rank) as well as by a 2^20
// cap, so a resealed 12-byte buffer claiming 2^20 tensors is refused before
// anything is sized from it. The FL server's update-validation pipeline and
// every client's model load rely on this boundary.
//
// serialize_tensors additionally appends a 4-byte CRC32C over the message; it
// is verified FIRST on read (ChecksumError on mismatch), so damage that
// happens to preserve structure — a bit flip inside a value — is still
// caught. CRC32C is not a MAC: anyone can reseal a hostile buffer, which is
// why the structural checks stand on their own. write_tensor/read_tensor
// remain the raw, trailer-free primitives.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "tensor/tensor.h"

namespace oasis::tensor {

using ByteBuffer = common::ByteBuffer;

/// Appends a serialized tensor to `out`.
void write_tensor(const Tensor& t, ByteBuffer& out);

/// Reads one tensor starting at `offset`, advancing `offset` past it.
/// Throws SerializationError on truncated/malformed input.
Tensor read_tensor(const ByteBuffer& in, std::size_t& offset);

/// Serializes a list of tensors with a count header and a trailing CRC32C,
/// reading each value straight from the tensor it points to.
ByteBuffer serialize_tensors(std::span<const Tensor* const> tensors);

/// The same bytes for a list of tensors held by value.
ByteBuffer serialize_tensors(const std::vector<Tensor>& tensors);

/// Inverse of serialize_tensors. Throws ChecksumError when the CRC32C
/// trailer does not match the payload, SerializationError on malformed input.
std::vector<Tensor> deserialize_tensors(const ByteBuffer& in);

/// Inverse of serialize_tensors into existing tensors, with no tensor
/// allocated on the way: verifies the CRC32C (ChecksumError), walks every
/// header and checks the count and each shape against `targets`
/// (SerializationError), and only then copies the values. A payload that
/// fails any check leaves every target untouched.
void deserialize_tensors_into(const ByteBuffer& in,
                              std::span<Tensor* const> targets);

/// Recomputes and overwrites the CRC32C trailer of a serialize_tensors()
/// buffer in place. Test/fault-injection helper: lets a mutated payload keep
/// a valid checksum so the structural validation paths stay reachable.
void reseal_tensors(ByteBuffer& buf);

/// Value statistics of a tensor list, for the FL server's plausibility
/// screens. scan_tensors produces one from the bytes without materialising
/// any tensor (no allocation proportional to the payload);
/// summarize_tensors from decoded tensors.
struct TensorScan {
  std::uint64_t tensors = 0;    // list length from the count header
  std::uint64_t values = 0;     // total scalar count across all tensors
  double sum_squares = 0.0;     // Σ v²  (may be inf when values overflow)
  bool all_finite = true;       // no NaN/Inf anywhere in the payload
  std::vector<Shape> shapes;    // per-tensor shapes, list order
};

/// Walks a serialize_tensors() buffer, validating the same structural
/// invariants as deserialize_tensors (throws SerializationError on malformed
/// input), and returns value statistics for plausibility screening.
TensorScan scan_tensors(const ByteBuffer& in);

/// The statistics scan_tensors reports, taken over already-decoded tensors:
/// summarize_tensors(deserialize_tensors(b)) equals scan_tensors(b) field
/// for field, sum_squares bit for bit (same values, same order, same
/// arithmetic). The FL server screens an update this way so it checks and
/// walks the payload once and hands the decoded tensors to the fold.
TensorScan summarize_tensors(const std::vector<Tensor>& tensors);

}  // namespace oasis::tensor
