// Opt-in performance guards for the blocked GEMM kernel family.
//
// Skipped unless OASIS_PERF_GUARD=1: wall-clock assertions are inherently
// machine-sensitive, so they run as a dedicated ci.sh stage (`./ci.sh perf`)
// on quiet hardware rather than inside the default suite. The floors are
// deliberately loose so only a real regression — packing gone quadratic, a
// microkernel de-vectorized, dispatch falling through to the wrong family —
// trips them:
//   * per (dtype, ISA): blocked must beat the same-dtype naive oracle by
//     ≥1.5× on a 512³ multiply (observed margins 2.7–5.5×). Every ISA
//     available on the host is swept; AVX2/NEON floors self-skip where the
//     kernels cannot run.
//   * fp32 scale path: the scalar fp32 blocked kernel must beat the
//     scalar-f64 blocked baseline by ≥1.8× at 512³ (half the bytes, twice
//     the lanes; observed ~3.3–3.8×). This is the bandwidth claim the
//     training/serving paths rely on, pinned where an auto-vectorizing
//     build exists. The AVX2 fp32 kernel gets a looser ≥1.2× floor: on
//     AVX-512 hosts a -march=native scalar build out-runs the ymm kernels,
//     so 2× is only guaranteed against a same-width baseline.
//   * CRC32C: the dispatched common::crc32c (SSE4.2 `crc32`) must beat the
//     portable slice-by-4 table walk by ≥4× on a 25 MB buffer (observed
//     ~7.6×: one 8-byte instruction per 3-cycle latency against a table
//     walk under 1 GB/s). Self-skips where SSE4.2 is absent.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "runtime/parallel.h"
#include "tensor/gemm/gemm.h"

namespace oasis {
namespace {

using tensor::gemm::Isa;
using tensor::gemm::Variant;
using Clock = std::chrono::steady_clock;

bool guard_enabled() {
  const char* env = std::getenv("OASIS_PERF_GUARD");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

#define OASIS_REQUIRE_PERF_GUARD()                                 \
  do {                                                             \
    if (!guard_enabled()) {                                        \
      GTEST_SKIP() << "set OASIS_PERF_GUARD=1 to run wall-clock "  \
                      "guards";                                    \
    }                                                              \
  } while (0)

/// Restores the dispatched ISA and thread count after each guard.
struct PerfEnvGuard {
  Isa saved = tensor::gemm::active_isa();
  ~PerfEnvGuard() {
    tensor::gemm::set_isa(saved);
    runtime::set_num_threads(0);
  }
};

double best_of_3(const std::function<void()>& fn) {
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double> dt = Clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

template <typename T>
struct GemmFixture {
  index_t n;
  std::vector<T> a, b, c;
  explicit GemmFixture(index_t n_) : n(n_), a(n * n), b(n * n), c(n * n) {
    common::Rng rng(0xBE7Cu);
    for (auto& v : a) v = static_cast<T>(rng.uniform(-1.0, 1.0));
    for (auto& v : b) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  double time_naive() {
    return best_of_3([this] {
      std::fill(c.begin(), c.end(), T(0));
      tensor::gemm::naive(Variant::NN, n, n, n, a.data(), b.data(), c.data());
    });
  }
  double time_blocked() {
    return best_of_3([this] {
      std::fill(c.begin(), c.end(), T(0));
      tensor::gemm::blocked(Variant::NN, n, n, n, a.data(), b.data(),
                            c.data());
    });
  }
};

/// The per-(dtype, ISA) floor: blocked ≥1.5× the same-dtype naive oracle.
template <typename T>
void expect_blocked_beats_naive(Isa isa, const char* dtype) {
  PerfEnvGuard guard;
  tensor::gemm::set_isa(isa);
  runtime::set_num_threads(0);  // hardware default, as in production runs
  GemmFixture<T> fx(512);
  const double naive_s = fx.time_naive();
  const double blocked_s = fx.time_blocked();
  const double speedup = naive_s / blocked_s;
  ::testing::Test::RecordProperty("naive_seconds", std::to_string(naive_s));
  ::testing::Test::RecordProperty("blocked_seconds",
                                  std::to_string(blocked_s));
  ::testing::Test::RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.5)
      << dtype << "/" << tensor::gemm::isa_name(isa)
      << " blocked GEMM regressed: naive " << naive_s << "s vs blocked "
      << blocked_s << "s";
}

class PerfGuardIsa : public ::testing::TestWithParam<Isa> {};

TEST_P(PerfGuardIsa, BlockedBeatsNaiveOn512CubeF64) {
  OASIS_REQUIRE_PERF_GUARD();
  expect_blocked_beats_naive<real>(GetParam(), "f64");
}

TEST_P(PerfGuardIsa, BlockedBeatsNaiveOn512CubeF32) {
  OASIS_REQUIRE_PERF_GUARD();
  expect_blocked_beats_naive<real32>(GetParam(), "f32");
}

INSTANTIATE_TEST_SUITE_P(
    Isas, PerfGuardIsa,
    ::testing::ValuesIn(tensor::gemm::available_isas()),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(tensor::gemm::isa_name(info.param));
    });

// Unavailable ISAs cannot be timed on this host; record the self-skip
// explicitly so a CI log shows WHY an ISA's floor did not run.
TEST(PerfGuard, UnavailableIsaFloorsSelfSkip) {
  OASIS_REQUIRE_PERF_GUARD();
  std::string skipped;
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (!tensor::gemm::isa_available(isa)) {
      skipped += skipped.empty() ? "" : ",";
      skipped += tensor::gemm::isa_name(isa);
    }
  }
  if (!skipped.empty()) {
    GTEST_SKIP() << "ISA floors not runnable on this host: " << skipped;
  }
}

/// The fp32 bandwidth floor: scalar f32 blocked vs scalar f64 blocked at
/// 512³. Half the bytes and twice the lanes must buy ≥1.8× (observed
/// 3.3–3.8× on the AVX-512 reference host, ≥2× anywhere the build
/// auto-vectorizes).
TEST(PerfGuard, ScalarFp32BeatsScalarFp64On512Cube) {
  OASIS_REQUIRE_PERF_GUARD();
  PerfEnvGuard guard;
  runtime::set_num_threads(1);
  tensor::gemm::set_isa(Isa::kScalar);
  GemmFixture<real> f64(512);
  GemmFixture<real32> f32(512);
  const double f64_s = f64.time_blocked();
  const double f32_s = f32.time_blocked();
  const double speedup = f64_s / f32_s;
  RecordProperty("scalar_f64_seconds", std::to_string(f64_s));
  RecordProperty("scalar_f32_seconds", std::to_string(f32_s));
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.8)
      << "fp32 scale path regressed: scalar f64 " << f64_s
      << "s vs scalar f32 " << f32_s << "s";
}

TEST(PerfGuard, Avx2Fp32BeatsScalarFp64On512Cube) {
  OASIS_REQUIRE_PERF_GUARD();
  if (!tensor::gemm::isa_available(Isa::kAvx2)) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this host";
  }
  PerfEnvGuard guard;
  runtime::set_num_threads(1);
  tensor::gemm::set_isa(Isa::kScalar);
  GemmFixture<real> f64(512);
  const double f64_s = f64.time_blocked();
  tensor::gemm::set_isa(Isa::kAvx2);
  GemmFixture<real32> f32(512);
  const double f32_s = f32.time_blocked();
  const double speedup = f64_s / f32_s;
  RecordProperty("scalar_f64_seconds", std::to_string(f64_s));
  RecordProperty("avx2_f32_seconds", std::to_string(f32_s));
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.2)
      << "AVX2 fp32 kernel regressed: scalar f64 " << f64_s
      << "s vs avx2 f32 " << f32_s << "s";
}

/// The CRC floor: every update and dispatched model is checksummed at least
/// twice per round, so falling back to the table walk would show up as a
/// ~1.5× slower sharded round long before anything else noticed.
TEST(PerfGuard, HardwareCrc32cBeatsPortable) {
  OASIS_REQUIRE_PERF_GUARD();
  if (!common::detail::crc32c_hardware()) {
    GTEST_SKIP() << "SSE4.2 crc32 unavailable on this host: crc32c() is "
                    "the portable table walk";
  }
  std::vector<std::uint8_t> bytes(25u << 20);
  common::Rng rng(0xC3Cu);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  std::uint32_t hw_crc = 0, portable_crc = 0;
  const double hw_s = best_of_3(
      [&] { hw_crc = common::crc32c(bytes.data(), bytes.size()); });
  const double portable_s = best_of_3([&] {
    portable_crc =
        common::detail::crc32c_portable(bytes.data(), bytes.size());
  });
  ASSERT_EQ(hw_crc, portable_crc);
  const double speedup = portable_s / hw_s;
  RecordProperty("hardware_gb_per_s",
                 std::to_string(bytes.size() / hw_s / 1e9));
  RecordProperty("portable_gb_per_s",
                 std::to_string(bytes.size() / portable_s / 1e9));
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 4.0) << "hardware CRC32C regressed: portable "
                          << portable_s << "s vs hardware " << hw_s << "s";
}

}  // namespace
}  // namespace oasis
