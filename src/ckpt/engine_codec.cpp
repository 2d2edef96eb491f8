#include "ckpt/engine_codec.h"

#include "nn/model_io.h"
#include "obs/obs.h"

namespace oasis::ckpt {

namespace {

ByteBuffer encode_obs(const obs::Registry& registry) {
  SectionWriter w;

  const auto counters = registry.counters();
  w.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    w.str(name);
    w.u64(value);
  }

  const auto gauges = registry.gauges();
  w.u32(static_cast<std::uint32_t>(gauges.size()));
  for (const auto& [name, value] : gauges) {
    w.str(name);
    w.f64(value);
  }

  const auto histograms = registry.histograms();
  w.u32(static_cast<std::uint32_t>(histograms.size()));
  for (const auto& [name, h] : histograms) {
    w.str(name);
    w.u64(h.count);
    w.f64(h.sum);
    w.f64(h.min);
    w.f64(h.max);
    w.u32(static_cast<std::uint32_t>(h.boundaries.size()));
    for (const double b : h.boundaries) w.f64(b);
    for (const std::uint64_t b : h.buckets) w.u64(b);
  }

  const auto spans = registry.spans();
  w.u32(static_cast<std::uint32_t>(spans.size()));
  for (const auto& [path, stats] : spans) {
    w.str(path);
    w.u64(stats.count);
  }

  return w.take();
}

/// Decodes an obs section fully, without touching any registry; the
/// returned closure resets the global registry to it, carrying the live
/// "ckpt.restore" tallies across (added on top of the snapshot's).
std::function<void()> decode_obs(const ByteBuffer& payload) {
  // Minimum encoded entry sizes: a u32 name length plus the fixed fields.
  constexpr std::size_t kNamedBits = 8 * (4 + 8);
  constexpr std::size_t kHistogramBits = 8 * (4 + 4 * 8 + 4 + 8);
  constexpr std::size_t kBoundaryBits = 8 * (8 + 8);  // + its bucket

  using Tallies = std::vector<std::pair<std::string, std::uint64_t>>;
  SectionReader r(payload, "obs");
  Tallies counters(r.count<std::uint32_t>(kNamedBits));
  for (auto& [name, value] : counters) {
    name = r.str();
    value = r.u64();
  }
  std::vector<std::pair<std::string, double>> gauges(
      r.count<std::uint32_t>(kNamedBits));
  for (auto& [name, value] : gauges) {
    name = r.str();
    value = r.f64();
  }
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> histograms(
      r.count<std::uint32_t>(kHistogramBits));
  for (auto& [name, h] : histograms) {
    name = r.str();
    h.count = r.u64();
    h.sum = r.f64();
    h.min = r.f64();
    h.max = r.f64();
    h.boundaries.resize(r.count<std::uint32_t>(kBoundaryBits));
    for (auto& b : h.boundaries) b = r.f64();
    h.buckets.resize(h.boundaries.size() + 1);
    for (auto& b : h.buckets) b = r.u64();
  }
  Tallies spans(r.count<std::uint32_t>(kNamedBits));
  for (auto& [path, count] : spans) {
    path = r.str();
    count = r.u64();
  }
  r.expect_end();

  return [counters = std::move(counters), gauges = std::move(gauges),
          histograms = std::move(histograms), spans = std::move(spans)] {
    obs::Registry& reg = obs::Registry::global();
    Tallies carried;
    for (const auto& [name, value] : reg.counters()) {
      if (value != 0 && name.rfind("ckpt.restore", 0) == 0) {
        carried.emplace_back(name, value);
      }
    }
    reg.reset();
    for (const auto& [name, value] : counters) reg.restore_counter(name, value);
    for (const auto& [name, value] : gauges) reg.restore_gauge(name, value);
    for (const auto& [name, h] : histograms) reg.restore_histogram(name, h);
    for (const auto& [path, count] : spans) reg.restore_span(path, count);
    for (const auto& [name, value] : carried) reg.counter(name).add(value);
  };
}

}  // namespace

ConfigEcho& ConfigEcho::echo(const char* field, int width,
                             std::uint64_t bits) {
  if (out_ != nullptr) {
    width == 1 ? out_->u8(static_cast<std::uint8_t>(bits)) : out_->u64(bits);
    return *this;
  }
  const std::uint64_t got = width == 1 ? in_->u8() : in_->u64();
  const auto as_f64 = [](std::uint64_t b) { return std::bit_cast<double>(b); };
  if (width == 0 ? as_f64(got) == as_f64(bits) : got == bits) return *this;
  const auto show = [&](std::uint64_t b) {
    return width == 0 ? std::to_string(as_f64(b)) : std::to_string(b);
  };
  throw CheckpointError(
      CheckpointError::Reason::kStateMismatch,
      std::string("snapshot belongs to a differently configured federation: ") +
          field + " is " + show(got) + " in the snapshot, " + show(bits) +
          " here");
}

SnapshotBuilder begin_snapshot(const SnapshotSchema& schema,
                               SectionWriter meta, nn::Module& model) {
  static obs::Counter& saves = obs::counter("ckpt.save_total");
  saves.add(1);
  SnapshotBuilder builder;
  builder.add(schema.meta, meta.take());
  builder.add("model", nn::serialize_state(model));
  return builder;
}

ByteBuffer finish_snapshot(const SnapshotSchema& schema,
                           SnapshotBuilder& builder) {
  if (schema.obs) builder.add("obs", encode_obs(obs::Registry::global()));
  return builder.finish();
}

SnapshotReader::SnapshotReader(const SnapshotSchema& schema,
                               const Snapshot& snap)
    : snap_(snap), meta_(snap.section(schema.meta), schema.meta) {
  if (schema.obs) apply_obs_ = decode_obs(snap.section("obs"));
}

void SnapshotReader::apply(nn::Module& model,
                           const std::function<void()>& apply_engine) {
  // The section passed its CRC, so a payload that does not load is an
  // architecture mismatch, not disk damage.
  try {
    nn::deserialize_state(model, snap_.section("model"));
  } catch (const Error& e) {
    throw CheckpointError(
        CheckpointError::Reason::kStateMismatch,
        std::string("model state does not fit the live architecture: ") +
            e.what());
  }
  apply_engine();
  if (apply_obs_) apply_obs_();
  obs::counter("ckpt.restore_total").add(1);
}

}  // namespace oasis::ckpt
