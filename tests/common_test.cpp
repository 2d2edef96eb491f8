// Tests for the common utilities: CLI parsing, logging levels, error
// macros, stopwatch, the shared byte reader/writer, CRC32C; plus serialization
// robustness (fuzz) and experiment determinism properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/cli.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/experiment.h"
#include "data/synthetic.h"
#include "tensor/serialize.h"

namespace oasis {
namespace {

TEST(Cli, ParsesAllValueForms) {
  common::CliParser cli("prog", "test");
  cli.add_flag("alpha", "a value", "1");
  cli.add_flag("beta", "another", "x");
  cli.add_bool("gamma", "a switch");
  const char* argv[] = {"prog", "--alpha", "42", "--beta=hello", "--gamma"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get("beta"), "hello");
  EXPECT_TRUE(cli.get_bool("gamma"));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  common::CliParser cli("prog", "test");
  cli.add_flag("rate", "r", "0.5");
  cli.add_bool("quick", "q");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_DOUBLE_EQ(cli.get_real("rate"), 0.5);
  EXPECT_FALSE(cli.get_bool("quick"));
}

TEST(Cli, RejectsUnknownAndMalformed) {
  common::CliParser cli("prog", "test");
  cli.add_flag("known", "k", "1");
  {
    const char* argv[] = {"prog", "--unknown", "3"};
    EXPECT_THROW(cli.parse(3, argv), ConfigError);
  }
  {
    const char* argv[] = {"prog", "positional"};
    EXPECT_THROW(cli.parse(2, argv), ConfigError);
  }
  {
    const char* argv[] = {"prog", "--known"};
    EXPECT_THROW(cli.parse(2, argv), ConfigError);  // missing value
  }
}

TEST(Cli, TypeErrorsAreReported) {
  common::CliParser cli("prog", "test");
  cli.add_flag("n", "count", "not-a-number");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW((void)cli.get_int("n"), ConfigError);
  EXPECT_THROW((void)cli.get_real("n"), ConfigError);
  EXPECT_THROW((void)cli.get("unregistered"), Error);
}

TEST(Cli, IntegerParsingRejectsTrailingGarbageAndOverflow) {
  common::CliParser cli("prog", "test");
  cli.add_flag("n", "count", "0");
  const auto set = [&](const char* v) {
    const std::string arg = std::string("--n=") + v;
    const char* argv[] = {"prog", arg.c_str()};
    cli.parse(2, argv);
  };
  // std::stoll would have accepted all of these prefixes silently.
  for (const char* bad : {"12x", "1e3", "0x10", "3.5", " 7", "7 ", "--", ""}) {
    set(bad);
    EXPECT_THROW((void)cli.get_int("n"), ConfigError) << "input: " << bad;
  }
  set("9223372036854775808");  // INT64_MAX + 1
  EXPECT_THROW((void)cli.get_int("n"), ConfigError);
  set("-9223372036854775809");  // INT64_MIN - 1
  EXPECT_THROW((void)cli.get_int("n"), ConfigError);
  set("9223372036854775807");
  EXPECT_EQ(cli.get_int("n"), INT64_MAX);
  set("-42");
  EXPECT_EQ(cli.get_int("n"), -42);
}

TEST(Cli, UnsignedParsingRejectsNegativeValues) {
  common::CliParser cli("prog", "test");
  cli.add_flag("every", "interval", "0");
  const auto set = [&](const char* v) {
    const std::string arg = std::string("--every=") + v;
    const char* argv[] = {"prog", arg.c_str()};
    cli.parse(2, argv);
  };
  // strtoull would wrap "-1" to 2^64-1 — the classic silent catastrophe for
  // a count flag like --checkpoint-every.
  for (const char* bad : {"-1", "-0", "+3", "5x", "", "18446744073709551616"}) {
    set(bad);
    EXPECT_THROW((void)cli.get_uint("every"), ConfigError) << "input: " << bad;
  }
  set("18446744073709551615");  // UINT64_MAX parses
  EXPECT_EQ(cli.get_uint("every"), UINT64_MAX);
  set("0");
  EXPECT_EQ(cli.get_uint("every"), 0u);
}

TEST(Cli, UintRangeEnforcesInclusiveBounds) {
  // The sharded engine's --shard-size / --population go through
  // get_uint_range: a zero shard size or an overflowing population must die
  // with a typed ConfigError at the flag boundary, never reach the engine.
  common::CliParser cli("prog", "test");
  cli.add_flag("shard-size", "clients per shard", "256");
  cli.add_flag("population", "virtual clients", "0");
  {
    const char* argv[] = {"prog", "--shard-size", "0"};
    cli.parse(3, argv);
    EXPECT_THROW((void)cli.get_uint_range("shard-size", 1, 1'000'000),
                 ConfigError);
  }
  {
    const char* argv[] = {"prog", "--shard-size", "1000001"};
    cli.parse(3, argv);
    EXPECT_THROW((void)cli.get_uint_range("shard-size", 1, 1'000'000),
                 ConfigError);
  }
  {
    // Overflows int64 entirely → the strict get_uint parse throws first.
    const char* argv[] = {"prog", "--population", "99999999999999999999"};
    cli.parse(3, argv);
    EXPECT_THROW((void)cli.get_uint_range("population", 0, 100'000'000),
                 ConfigError);
  }
  {
    const char* argv[] = {"prog", "--shard-size", "1", "--population",
                          "100000000"};
    cli.parse(5, argv);
    EXPECT_EQ(cli.get_uint_range("shard-size", 1, 1'000'000), 1u);
    EXPECT_EQ(cli.get_uint_range("population", 0, 100'000'000), 100'000'000u);
  }
  {
    // Bounds are inclusive on both ends.
    const char* argv[] = {"prog", "--shard-size", "1000000"};
    cli.parse(3, argv);
    EXPECT_EQ(cli.get_uint_range("shard-size", 1, 1'000'000), 1'000'000u);
  }
}

TEST(Cli, ParseHostPortAcceptsValidSpecs) {
  const common::HostPort a = common::parse_host_port("localhost:7400");
  EXPECT_EQ(a.host, "localhost");
  EXPECT_EQ(a.port, 7400);
  const common::HostPort b = common::parse_host_port("10.0.0.2:1");
  EXPECT_EQ(b.host, "10.0.0.2");
  EXPECT_EQ(b.port, 1);
  const common::HostPort c = common::parse_host_port("example.org:65535");
  EXPECT_EQ(c.port, 65535);
}

TEST(Cli, ParseHostPortRejectsMalformedSpecs) {
  // The --connect retry loop reports these once, up front, instead of
  // burning its reconnect budget against a target that can never resolve.
  EXPECT_THROW((void)common::parse_host_port("no-colon"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port(":7400"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:7400x"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:0"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:65536"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:99999999999999999999"),
               ConfigError);
  EXPECT_THROW((void)common::parse_host_port(""), ConfigError);
}

TEST(Cli, RealParsingRejectsTrailingGarbageAndOverflow) {
  common::CliParser cli("prog", "test");
  cli.add_flag("rate", "r", "0");
  const auto set = [&](const char* v) {
    const std::string arg = std::string("--rate=") + v;
    const char* argv[] = {"prog", arg.c_str()};
    cli.parse(2, argv);
  };
  for (const char* bad : {"0.5abc", "1.2.3", "", "1e999"}) {
    set(bad);
    EXPECT_THROW((void)cli.get_real("rate"), ConfigError) << "input: " << bad;
  }
  set("-2.5e-3");
  EXPECT_DOUBLE_EQ(cli.get_real("rate"), -2.5e-3);
}

TEST(Cli, BoolAcceptsExplicitValues) {
  common::CliParser cli("prog", "test");
  cli.add_bool("flag", "f");
  const char* argv[] = {"prog", "--flag=false"};
  cli.parse(2, argv);
  EXPECT_FALSE(cli.get_bool("flag"));
}

TEST(Cli, DuplicateRegistrationThrows) {
  common::CliParser cli("prog", "test");
  cli.add_flag("x", "", "1");
  EXPECT_THROW(cli.add_flag("x", "", "2"), Error);
  EXPECT_THROW(cli.add_bool("x", ""), Error);
}

TEST(Logging, ParseLevels) {
  using common::LogLevel;
  EXPECT_EQ(common::parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(common::parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(common::parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(common::parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(common::parse_log_level("off"), LogLevel::kOff);
  EXPECT_THROW(common::parse_log_level("loud"), ConfigError);
}

TEST(Logging, ThresholdRoundTrip) {
  const auto saved = common::log_threshold();
  common::set_log_threshold(common::LogLevel::kError);
  EXPECT_EQ(common::log_threshold(), common::LogLevel::kError);
  OASIS_LOG_INFO << "suppressed line (must not crash)";
  common::set_log_threshold(saved);
}

TEST(ErrorMacros, CheckThrowsWithLocation) {
  try {
    OASIS_CHECK_MSG(1 == 2, "custom message " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

// --- Shared byte reader/writer -----------------------------------------------

/// The caller-supplied error a test reader raises; nothing else may escape.
class ReaderFailure : public Error {
 public:
  explicit ReaderFailure(const std::string& what) : Error(what) {}
};

common::ByteReader test_reader(std::span<const std::uint8_t> bytes) {
  return common::ByteReader(
      bytes, [](const std::string& what) { throw ReaderFailure(what); });
}

/// One row per field kind: how it is written and how it is read back.
struct Field {
  const char* kind;
  std::function<void(common::ByteWriter&)> write;
  std::function<void(common::ByteReader&)> read;  // EXPECTs the value
};

const std::vector<Field>& mixed_fields() {
  static const std::vector<Field> fields = {
      {"u8", [](common::ByteWriter& w) { w.u8(0xA5); },
       [](common::ByteReader& r) { EXPECT_EQ(r.u8(), 0xA5u); }},
      {"u32", [](common::ByteWriter& w) { w.u32(0xDEADBEEF); },
       [](common::ByteReader& r) { EXPECT_EQ(r.u32(), 0xDEADBEEFu); }},
      {"u64", [](common::ByteWriter& w) { w.u64(0x0123456789ABCDEFull); },
       [](common::ByteReader& r) { EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull); }},
      {"f64", [](common::ByteWriter& w) { w.f64(-2.5); },
       [](common::ByteReader& r) { EXPECT_EQ(r.f64(), -2.5); }},
      {"count",
       [](common::ByteWriter& w) {
         w.u32(3);
         for (std::uint64_t v : {10, 11, 12}) w.u64(v);
       },
       [](common::ByteReader& r) {
         ASSERT_EQ(r.count<std::uint32_t>(64), 3u);
         for (std::uint64_t v : {10, 11, 12}) EXPECT_EQ(r.u64(), v);
       }},
      // A length-checked tail, so a cut inside it is a failure too.
      {"rest",
       [](common::ByteWriter& w) {
         w.u64(5);
         w.append("abcde", 5);
       },
       [](common::ByteReader& r) {
         const std::uint64_t n = r.u64();
         const auto rest = r.rest();
         if (rest.size() != n) r.fail("short tail");
         EXPECT_EQ(std::string(rest.begin(), rest.end()), "abcde");
         EXPECT_EQ(r.remaining(), 0u);
       }},
  };
  return fields;
}

common::ByteBuffer write_fields(const std::vector<Field>& fields) {
  common::ByteWriter w;
  for (const auto& f : fields) f.write(w);
  return w.take();
}

void read_fields(const std::vector<Field>& fields,
                 std::span<const std::uint8_t> bytes) {
  common::ByteReader r = test_reader(bytes);
  for (const auto& f : fields) f.read(r);
  r.expect_end();
}

TEST(ByteReader, MixedStreamRoundTripsAndEveryFailureIsTheCallersError) {
  const auto& fields = mixed_fields();
  const common::ByteBuffer bytes = write_fields(fields);
  // The writer's output round-trips field by field...
  EXPECT_NO_THROW(read_fields(fields, bytes));
  // ...and each field also round-trips on its own.
  for (const auto& f : fields) {
    EXPECT_NO_THROW(read_fields({f}, write_fields({f}))) << f.kind;
  }
  // Fixed-width fields are little-endian.
  common::ByteWriter le;
  le.u32(0x01020304);
  EXPECT_EQ(le.take(), (common::ByteBuffer{4, 3, 2, 1}));

  // Every truncation point throws the caller's error, and no other, from
  // the field the cut lands in; the fields before the cut read back.
  std::vector<std::size_t> ends;  // offset just past each field
  common::ByteWriter w;
  for (const auto& f : fields) {
    f.write(w);
    ends.push_back(w.size());
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    common::ByteReader r = test_reader(std::span(bytes).first(len));
    std::size_t i = 0;
    for (; ends[i] <= len; ++i) fields[i].read(r);
    try {
      fields[i].read(r);
      ADD_FAILURE() << "cut at " << len << " inside " << fields[i].kind
                    << " accepted";
    } catch (const ReaderFailure&) {
    } catch (...) {
      ADD_FAILURE() << "cut at " << len << " threw another error";
    }
  }

  // expect_end() refuses trailing bytes.
  common::ByteBuffer padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(read_fields(fields, padded), ReaderFailure);

  // A reader without a Fail still refuses, with the base error.
  common::ByteReader bare{std::span(bytes).first(3), nullptr};
  EXPECT_THROW((void)bare.u64(), Error);
}

TEST(ByteReader, CountRefusesAnOverrunBeforeAnythingIsSized) {
  struct Case {
    const char* name;
    std::uint64_t count;
    std::size_t element_bits;
    std::size_t bytes_behind;
    bool fits;
  };
  for (const Case& c : {
           Case{"exact", 3, 64, 24, true},
           Case{"one over", 4, 64, 24, false},
           Case{"bits", 17, 1, 2, false},
           Case{"bits exact", 16, 1, 2, true},
           Case{"empty list", 0, 64, 0, true},
           Case{"wraps a byte product", ~std::uint64_t{0}, 64, 8, false},
           Case{"wraps a bit count", ~std::uint64_t{0}, 1, 1, false},
       }) {
    common::ByteWriter w;
    w.u64(c.count);
    const common::ByteBuffer zeros(c.bytes_behind, 0);
    w.append(zeros.data(), zeros.size());
    const common::ByteBuffer bytes = w.take();
    common::ByteReader r = test_reader(bytes);
    if (c.fits) {
      EXPECT_EQ(r.count(c.element_bits), c.count) << c.name;
    } else {
      EXPECT_THROW((void)r.count(c.element_bits), ReaderFailure) << c.name;
    }
  }
}

// --- CRC32C -----------------------------------------------------------------

std::uint32_t crc_of(const std::vector<std::uint8_t>& bytes) {
  return common::crc32c(bytes.data(), bytes.size());
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32c, KnownAnswers) {
  // The standard check value, then the four 32-byte vectors of
  // RFC 3720 §B.4 (iSCSI), read as little-endian u32s.
  const std::string check = "123456789";
  EXPECT_EQ(common::crc32c(check.data(), check.size()), 0xE3069283u);
  std::vector<std::uint8_t> ascending(32), descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc_of(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crc_of(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
  EXPECT_EQ(crc_of(ascending), 0x46DD794Eu);
  EXPECT_EQ(crc_of(descending), 0x113FDB5Cu);
  EXPECT_EQ(common::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, DispatchedMatchesPortableAtEveryLengthAndAlignment) {
  // Lengths 0..1024 cover the hardware path's 8-byte body with every tail
  // length; starts 0..7 cover every misalignment of its 8-byte loads.
  // Without SSE4.2 both calls are the portable walk and this is trivial.
  constexpr std::size_t kMaxLen = 1024;
  constexpr std::size_t kMaxAlign = 8;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto bytes = random_bytes(kMaxLen + kMaxAlign, 1000 + seed);
    const auto crc_seed = static_cast<std::uint32_t>(seed * 0x9E3779B9u);
    for (std::size_t align = 0; align < kMaxAlign; ++align) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        const std::uint8_t* p = bytes.data() + align;
        ASSERT_EQ(common::crc32c(p, len, crc_seed),
                  common::detail::crc32c_portable(p, len, crc_seed))
            << "seed " << seed << " align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc32c, ChainedPiecesEqualOneCall) {
  const auto bytes = random_bytes(4099, 7);
  const std::uint32_t whole = crc_of(bytes);
  EXPECT_EQ(whole,
            common::detail::crc32c_portable(bytes.data(), bytes.size()));
  for (const std::size_t piece : {1u, 3u, 8u, 13u, 64u, 1000u, 4098u}) {
    std::uint32_t crc = 0;
    for (std::size_t off = 0; off < bytes.size(); off += piece) {
      const std::size_t n = std::min(piece, bytes.size() - off);
      crc = common::crc32c(bytes.data() + off, n, crc);
    }
    EXPECT_EQ(crc, whole) << "pieces of " << piece;
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  common::Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i);
  (void)sink;
  const double elapsed = sw.seconds();
  EXPECT_GT(elapsed, 0.0);
  // millis() and seconds() measure the same clock.
  EXPECT_GE(sw.millis(), elapsed * 1e3);
  sw.restart();
  EXPECT_LT(sw.seconds(), elapsed + 0.5);
}

// Serialization fuzz: corrupting a valid buffer at any prefix length must
// raise SerializationError (never crash or return garbage silently).
class SerializationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SerializationFuzz, TruncationAlwaysThrows) {
  common::Rng rng(GetParam());
  std::vector<tensor::Tensor> tensors;
  tensors.push_back(tensor::Tensor::randn({3, 4}, rng));
  tensors.push_back(tensor::Tensor::randn({7}, rng));
  const tensor::ByteBuffer buf = tensor::serialize_tensors(tensors);
  // Truncate at a pseudo-random interior point.
  const auto cut = 1 + static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(buf.size()) - 2));
  tensor::ByteBuffer truncated(buf.begin(),
                               buf.begin() + static_cast<std::ptrdiff_t>(cut));
  EXPECT_THROW(tensor::deserialize_tensors(truncated), Error);
}

INSTANTIATE_TEST_SUITE_P(Cuts, SerializationFuzz, ::testing::Range(1, 17));

TEST(Determinism, AttackExperimentIsAPureFunctionOfItsSeed) {
  data::SynthConfig cfg;
  cfg.num_classes = 6;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = 4;
  cfg.test_per_class = 0;
  const auto victim = data::generate(cfg).train;
  cfg.seed ^= 0x11;
  const auto aux = data::generate(cfg).train;

  core::AttackExperimentConfig exp;
  exp.attack = core::AttackKind::kRtf;
  exp.batch_size = 4;
  exp.neurons = 50;
  exp.num_batches = 2;
  exp.transforms = {augment::TransformKind::kMinorRotation};
  exp.seed = 1234;
  const auto a = core::run_attack_experiment(victim, aux, exp);
  const auto b = core::run_attack_experiment(victim, aux, exp);
  ASSERT_EQ(a.per_image_psnr.size(), b.per_image_psnr.size());
  for (std::size_t i = 0; i < a.per_image_psnr.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.per_image_psnr[i], b.per_image_psnr[i]);
  }
  exp.seed = 4321;
  const auto c = core::run_attack_experiment(victim, aux, exp);
  bool any_different = false;
  for (std::size_t i = 0; i < a.per_image_psnr.size(); ++i) {
    if (a.per_image_psnr[i] != c.per_image_psnr[i]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace oasis
