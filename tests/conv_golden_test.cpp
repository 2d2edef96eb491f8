// Conv2d golden fixture: 64-bit digests of every tensor a convolution
// produces, compared against tests/fixtures/golden_conv.json.
//
// golden_round.json is recorded on an MLP, and the kernel differential
// tests only compare the naive and blocked GEMMs inside whichever Conv2d is
// built. This fixture pins Conv2d's own bits: the logits and parameter
// gradients of a MiniConvNet over two SGD steps, the forward output, input
// gradient and (accumulated) parameter gradients of standalone layers at
// stride 2 / pad 0, 5×5 / pad 2 and 1×1, and the update bytes an OASIS
// client uploads from a MiniConvNet. Any reorganisation of the conv
// arithmetic (column layout, GEMM orientation, chunking) must keep every
// output element's FMA chain, so the digests may not move.
//
// The digests must match at 1 and 8 threads, under the naive oracle GEMM
// and under every forced OASIS_GEMM_ISA (ci.sh kernel stage).
//
// Regenerate after an intentional numerics change with
//   OASIS_GOLDEN_REGEN=1 ./build/tests/conv_golden_test
// and commit the rewritten fixture.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/oasis.h"
#include "data/dataset.h"
#include "fl/client.h"
#include "fl/server.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "runtime/parallel.h"
#include "tensor/gemm/gemm.h"

namespace oasis {
namespace {

constexpr const char* kFixturePath = OASIS_FIXTURE_DIR "/golden_conv.json";

using Digests = std::map<std::string, std::uint64_t>;

/// FNV-1a over raw bytes, continuing from `h`.
std::uint64_t fnv1a(const void* p, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Digest of the shape and the raw bytes of the values: a change of any
/// bit, including the sign of a zero, moves it.
std::uint64_t digest(const tensor::Tensor& t) {
  const tensor::Shape& shape = t.shape();
  return fnv1a(t.data().data(), t.size() * sizeof(real),
               fnv1a(shape.data(), shape.size() * sizeof(index_t)));
}

tensor::Tensor random_tensor(const tensor::Shape& shape, common::Rng& rng) {
  tensor::Tensor t(shape);
  for (auto& v : t.data()) v = rng.uniform(-1.0, 1.0);
  return t;
}

/// Two plain SGD steps of a width-8 MiniConvNet on {3,24,24} images,
/// batch 64, each on a fresh random batch.
void convnet_digests(Digests& out) {
  common::Rng model_rng(0xC0117E7u);
  auto net = nn::make_mini_convnet({3, 24, 24}, 10, model_rng, /*width=*/8);
  common::Rng data_rng(0xBA7C4u);
  const nn::SoftmaxCrossEntropy loss_fn;
  for (int step = 0; step < 2; ++step) {
    tensor::Tensor x({64, 3, 24, 24});
    for (auto& v : x.data()) v = data_rng.uniform(0.0, 1.0);
    std::vector<index_t> labels(64);
    for (auto& y : labels) y = static_cast<index_t>(data_rng.uniform_int(0, 9));
    net->zero_grad();
    const tensor::Tensor logits = net->forward(x, /*training=*/true);
    net->backward(loss_fn.compute(logits, labels).grad_logits);
    const std::string prefix = "convnet.step" + std::to_string(step) + ".";
    out[prefix + "logits"] = digest(logits);
    const auto params = net->parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      out[prefix + "grad" + std::to_string(i)] = digest(params[i]->grad);
      params[i]->value.add_scaled_(params[i]->grad, -0.05);
    }
  }
}

struct ConvCase {
  const char* name;
  index_t in_ch, out_ch, kernel, stride, pad, extent;
  index_t batch0, batch1;  // two passes: a re-sized input, grads accumulate
};

/// Forward + backward twice through one standalone Conv2d. The second pass
/// uses a different batch size and accumulates onto the first pass's
/// parameter gradients.
void conv_digests(const ConvCase& c, Digests& out) {
  common::Rng rng(0x5EED0u + c.kernel * 31 + c.stride);
  nn::Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, rng);
  for (const index_t batch : {c.batch0, c.batch1}) {
    const tensor::Tensor x =
        random_tensor({batch, c.in_ch, c.extent, c.extent}, rng);
    const tensor::Tensor y = conv.forward(x, /*training=*/true);
    const tensor::Tensor gy = random_tensor(y.shape(), rng);
    const tensor::Tensor gx = conv.backward(gy);
    const std::string prefix =
        std::string(c.name) + ".b" + std::to_string(batch) + ".";
    out[prefix + "y"] = digest(y);
    out[prefix + "grad_x"] = digest(gx);
    out[prefix + "grad_w"] = digest(conv.weight().grad);
    out[prefix + "grad_b"] = digest(conv.bias().grad);
  }
}

/// Two rounds of one OASIS (major rotation) client training a width-8
/// MiniConvNet: the gradient bytes Client::handle_round uploads. The images
/// are plain uniform draws: the synthetic generator's trigonometry may
/// differ in the last bit between build types, the quarter turns cannot.
void client_digests(Digests& out) {
  common::Rng data_rng(0xC11E27u);
  data::InMemoryDataset shard(10, {3, 24, 24});
  for (index_t i = 0; i < 40; ++i) {
    tensor::Tensor image({3, 24, 24});
    for (auto& v : image.data()) v = data_rng.uniform(0.0, 1.0);
    shard.push_back({std::move(image), i % 10});
  }
  const fl::ModelFactory factory = [] {
    common::Rng rng(0xC0117E7u);
    return nn::make_mini_convnet({3, 24, 24}, 10, rng, /*width=*/8);
  };
  fl::Client client(/*id=*/0, shard, factory, /*batch_size=*/16,
                    core::make_preprocessor(
                        {augment::TransformKind::kMajorRotation}),
                    common::Rng(0xC1u));
  fl::Server server(factory(), /*learning_rate=*/0.1);
  for (int round = 0; round < 2; ++round) {
    server.begin_round();
    const std::vector<fl::ClientUpdateMessage> updates{
        client.handle_round(server.dispatch_to(0))};
    out["client.round" + std::to_string(round) + ".update"] =
        fnv1a(updates[0].gradients.data(), updates[0].gradients.size());
    server.finish_round(updates);
  }
}

Digests run_all() {
  Digests d;
  convnet_digests(d);
  client_digests(d);
  // Batches are chosen so each layer runs several sample chunks with a
  // ragged last one; out_ch 5 leaves partial GEMM tiles.
  for (const ConvCase& c : {ConvCase{"conv_s2p0", 3, 5, 3, 2, 0, 33, 20, 3},
                            ConvCase{"conv_k5p2", 4, 16, 5, 1, 2, 20, 3, 2},
                            ConvCase{"conv_k1", 6, 8, 1, 1, 0, 30, 30, 5}}) {
    conv_digests(c, d);
  }
  return d;
}

std::string format_fixture(const Digests& d) {
  std::string s = "{\n  \"schema\": \"oasis.golden_conv/v1\"";
  for (const auto& [key, value] : d) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), ",\n  \"%s\": \"%016llx\"", key.c_str(),
                  static_cast<unsigned long long>(value));
    s += buf;
  }
  return s + "\n}\n";
}

std::string read_fixture() {
  std::ifstream in(kFixturePath);
  EXPECT_TRUE(in) << "missing fixture " << kFixturePath
                  << " — run with OASIS_GOLDEN_REGEN=1 to create it";
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Restores the process-wide kernel knobs a test flips.
struct KnobGuard {
  bool naive = tensor::gemm::naive_active();
  ~KnobGuard() {
    runtime::set_num_threads(0);
    tensor::gemm::set_naive(naive);
  }
};

void expect_matches_fixture(const std::string& where) {
  const std::string expected = read_fixture();
  ASSERT_NE(expected.find("oasis.golden_conv/v1"), std::string::npos);
  const std::string actual = format_fixture(run_all());
  EXPECT_EQ(actual, expected) << where << " (active ISA "
                              << tensor::gemm::isa_name(
                                     tensor::gemm::active_isa())
                              << ")";
}

TEST(ConvGolden, MatchesFixtureAtOneAndEightThreads) {
  KnobGuard guard;
  if (std::getenv("OASIS_GOLDEN_REGEN")) {
    runtime::set_num_threads(1);
    std::ofstream out(kFixturePath);
    ASSERT_TRUE(out) << "cannot write " << kFixturePath;
    out << format_fixture(run_all());
    GTEST_SKIP() << "fixture regenerated at " << kFixturePath;
  }
  for (const int threads : {1, 8}) {
    runtime::set_num_threads(threads);
    expect_matches_fixture(std::to_string(threads) + " threads");
  }
}

TEST(ConvGolden, MatchesFixtureUnderNaiveGemm) {
  KnobGuard guard;
  tensor::gemm::set_naive(true);
  for (const int threads : {1, 8}) {
    runtime::set_num_threads(threads);
    expect_matches_fixture("naive GEMM, " + std::to_string(threads) +
                           " threads");
  }
}

}  // namespace
}  // namespace oasis
