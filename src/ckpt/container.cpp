#include "ckpt/container.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32c.h"

namespace oasis::ckpt {
namespace {

using common::crc32c;
using Reason = CheckpointError::Reason;
using Bytes = std::span<const std::uint8_t>;

constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
constexpr std::size_t kFooterBytes = sizeof(std::uint32_t);
constexpr std::size_t kMaxNameLen = 255;
// A directory claiming more sections than this is damage, not data: even the
// richest snapshot (model + optimizer + rng + obs + meta per subsystem) is
// tens of sections, and the cap keeps a hostile count from driving a large
// reserve before per-entry bounds checks run.
constexpr std::uint32_t kMaxSections = 4096;
// The smallest directory entry: a 1-byte name plus its length, offset, size
// and CRC fields. Bounds the section count by the bytes left.
constexpr std::size_t kMinEntryBits =
    8 * (sizeof(std::uint32_t) + 1 + 2 * sizeof(std::uint64_t) +
         sizeof(std::uint32_t));

// Directory reads happen after the footer CRC has validated the whole file,
// so a short read here means the directory *structure* lies about its own
// extent — malformed, not truncated.
common::ByteReader directory_reader(Bytes bytes) {
  return common::ByteReader(bytes, [](const std::string& what) {
    throw CheckpointError(Reason::kMalformedDirectory, "directory " + what);
  });
}

}  // namespace

void SnapshotBuilder::add(const std::string& name, ByteBuffer payload) {
  OASIS_CHECK_MSG(!name.empty() && name.size() <= kMaxNameLen,
                  "section name must be 1..255 bytes: '" << name << "'");
  for (const auto& [existing, bytes] : sections_) {
    OASIS_CHECK_MSG(existing != name,
                    "duplicate checkpoint section '" << name << "'");
  }
  sections_.emplace_back(name, std::move(payload));
}

ByteBuffer SnapshotBuilder::finish() const {
  // Directory size is knowable up front, which gives absolute payload
  // offsets without a second pass.
  std::size_t dir_bytes = 0;
  std::size_t payload_bytes = 0;
  for (const auto& [name, payload] : sections_) {
    dir_bytes += sizeof(std::uint32_t) + name.size() + 2 * sizeof(std::uint64_t) +
                 sizeof(std::uint32_t);
    payload_bytes += payload.size();
  }
  common::ByteWriter w;
  w.reserve(kHeaderBytes + dir_bytes + payload_bytes + kFooterBytes);
  w.append(kMagic, sizeof(kMagic));
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  std::uint64_t payload_off = kHeaderBytes + dir_bytes;
  for (const auto& [name, payload] : sections_) {
    w.u32(static_cast<std::uint32_t>(name.size()));
    w.append(name.data(), name.size());
    w.u64(payload_off);
    w.u64(payload.size());
    w.u32(crc32c(payload.data(), payload.size()));
    payload_off += payload.size();
  }
  for (const auto& [name, payload] : sections_) {
    w.append(payload.data(), payload.size());
  }
  w.u32(crc32c(w.bytes().data(), w.size()));
  return w.take();
}

Snapshot Snapshot::parse(ByteBuffer bytes) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    throw CheckpointError(Reason::kTruncated,
                          "file too small for header + footer (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  // Header and directory are read from the body; the footer follows it.
  const std::size_t body = bytes.size() - kFooterBytes;
  common::ByteReader r = directory_reader(Bytes(bytes).first(body));
  if (std::memcmp(r.take(sizeof(kMagic)).data(), kMagic, sizeof(kMagic)) !=
      0) {
    throw CheckpointError(Reason::kBadMagic, "not an oasis.ckpt container");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw CheckpointError(Reason::kBadVersion,
                          "container version " + std::to_string(version) +
                              ", expected " + std::to_string(kVersion));
  }

  // Whole-file integrity first: after this check every subsequent failure is
  // the writer's fault (a structural bug), not the disk's.
  if (directory_reader(Bytes(bytes).last(kFooterBytes)).u32() !=
      crc32c(bytes.data(), body)) {
    throw CheckpointError(Reason::kFooterChecksum,
                          "whole-file CRC32C mismatch");
  }

  const std::size_t section_count = r.count<std::uint32_t>(kMinEntryBits);
  if (section_count > kMaxSections) {
    throw CheckpointError(Reason::kMalformedDirectory,
                          "implausible section count " +
                              std::to_string(section_count));
  }

  // Directory entries and payloads share [kHeaderBytes, body); the directory
  // is walked with a cursor, payload ranges are bounds-checked individually
  // and required to tile the payload region in order with no gaps/overlap.
  Snapshot snap;
  snap.sections_.reserve(section_count);
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      entries;
  std::vector<std::uint32_t> crcs;
  entries.reserve(section_count);
  crcs.reserve(section_count);
  for (std::size_t i = 0; i < section_count; ++i) {
    const std::uint32_t name_len = r.u32();
    if (name_len == 0 || name_len > kMaxNameLen) {
      throw CheckpointError(Reason::kMalformedDirectory,
                            "section name length " + std::to_string(name_len));
    }
    const auto name_bytes = r.take(name_len);
    std::string name(name_bytes.begin(), name_bytes.end());
    const std::uint64_t off = r.u64();
    const std::uint64_t size = r.u64();
    const std::uint32_t crc = r.u32();
    for (const auto& [existing, range] : entries) {
      if (existing == name) {
        throw CheckpointError(Reason::kMalformedDirectory,
                              "duplicate section '" + name + "'");
      }
    }
    entries.emplace_back(std::move(name), std::make_pair(off, size));
    crcs.push_back(crc);
  }

  // The reader now sits at the end of the directory = start of the payload
  // region. Payloads must tile [r.offset(), body) exactly.
  std::uint64_t expect_off = r.offset();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, range] = entries[i];
    const auto [off, size] = range;
    if (off != expect_off || size > body || off > body - size) {
      throw CheckpointError(Reason::kMalformedDirectory,
                            "section '" + name + "' payload out of bounds");
    }
    expect_off = off + size;
  }
  if (expect_off != body) {
    throw CheckpointError(Reason::kMalformedDirectory,
                          "payload region does not tile the file body");
  }

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, range] = entries[i];
    const auto [off, size] = range;
    if (crc32c(bytes.data() + off, size) != crcs[i]) {
      throw CheckpointError(Reason::kSectionChecksum,
                            "section '" + name + "' CRC32C mismatch");
    }
    snap.sections_.emplace_back(
        name, ByteBuffer(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                         bytes.begin() + static_cast<std::ptrdiff_t>(off + size)));
  }
  return snap;
}

bool Snapshot::has(const std::string& name) const {
  return std::any_of(sections_.begin(), sections_.end(),
                     [&](const auto& s) { return s.first == name; });
}

const ByteBuffer& Snapshot::section(const std::string& name) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) return payload;
  }
  throw CheckpointError(CheckpointError::Reason::kMissingSection,
                        "required section '" + name + "' absent");
}

std::vector<std::string> Snapshot::names() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) out.push_back(name);
  return out;
}

}  // namespace oasis::ckpt
