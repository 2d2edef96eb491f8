// Tests for the baseline defenses (the DP mechanism as a clip+noise stack,
// pruning as a defense stage), the client applying its stack before upload,
// and implant detection.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/cah.h"
#include "attack/detection.h"
#include "attack/rtf.h"
#include "core/baselines.h"
#include "core/experiment.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "nn/model_io.h"
#include "nn/models.h"

namespace oasis::core {
namespace {

std::vector<tensor::Tensor> toy_grads() {
  return {tensor::Tensor({2, 2}, {3.0, -4.0, 0.0, 0.0}),
          tensor::Tensor({2}, {0.0, 12.0})};
}

/// The stack's tensor-level form at round 0, client 0.
std::vector<tensor::Tensor> defend(const std::string& spec,
                                   std::vector<tensor::Tensor> grads) {
  fl::parse_defense_stack(spec)->apply(grads, fl::DefenseContext{});
  return grads;
}

/// TopKPruning through fl::Defense::apply; the rng is never drawn.
std::vector<tensor::Tensor> prune(const TopKPruning& stage,
                                  std::vector<tensor::Tensor> grads,
                                  common::Rng& rng) {
  const common::Rng::State before = rng.state();
  stage.apply(grads, rng, fl::DefenseContext{});
  EXPECT_EQ(rng.state().words, before.words);
  EXPECT_EQ(rng.state().has_spare, before.has_spare);
  return grads;
}

// The Gaussian mechanism is the stack "clip:C,noise:σ·C".
TEST(DpMechanism, ClipsGlobalNormWithoutNoise) {
  // Global norm = sqrt(9+16+144) = 13 → scale 0.5.
  const auto out = defend("clip:6.5", toy_grads());
  EXPECT_DOUBLE_EQ(out[0][0], 1.5);
  EXPECT_DOUBLE_EQ(out[0][1], -2.0);
  EXPECT_DOUBLE_EQ(out[1][1], 6.0);
}

TEST(DpMechanism, LeavesSmallUpdatesUnclipped) {
  const auto out = defend("clip:100", toy_grads());
  EXPECT_DOUBLE_EQ(out[0][0], 3.0);
  EXPECT_DOUBLE_EQ(out[1][1], 12.0);
}

TEST(DpMechanism, NoiseHasCalibratedScale) {
  // C = 2, σ = 0.5 → noise stddev σ·C = 1. Zero gradients: the output is
  // pure noise.
  const auto out = defend("clip:2,noise:1", {tensor::Tensor({10000})});
  real sq = 0.0;
  for (const auto v : out[0].data()) sq += v * v;
  const real stddev = std::sqrt(sq / 10000.0);
  EXPECT_NEAR(stddev, 1.0, 0.05);
}

TEST(DpMechanism, RejectsBadParameters) {
  EXPECT_THROW(fl::parse_defense_stack("clip:0,noise:1"), ConfigError);
  EXPECT_THROW(fl::parse_defense_stack("clip:1,noise:-0.1"), ConfigError);
}

TEST(TopKPruning, KeepsExactlyTheLargestEntries) {
  common::Rng rng(4);
  const auto out =
      prune(TopKPruning(0.5), {tensor::Tensor({4}, {0.1, -5.0, 2.0, -0.2})},
            rng);
  EXPECT_DOUBLE_EQ(out[0][0], 0.0);
  EXPECT_DOUBLE_EQ(out[0][1], -5.0);
  EXPECT_DOUBLE_EQ(out[0][2], 2.0);
  EXPECT_DOUBLE_EQ(out[0][3], 0.0);
}

TEST(TopKPruning, KeepAllIsIdentity) {
  common::Rng rng(5);
  const auto grads = toy_grads();
  const auto out = prune(TopKPruning(1.0), grads, rng);
  EXPECT_TRUE(out[0] == grads[0]);
  EXPECT_TRUE(out[1] == grads[1]);
}

TEST(TopKPruning, SparsityMatchesFraction) {
  common::Rng rng(6);
  std::vector<tensor::Tensor> grads{tensor::Tensor::randn({1000}, rng)};
  const auto out = prune(TopKPruning(0.1), grads, rng);
  index_t nonzero = 0;
  for (const auto v : out[0].data()) {
    if (v != 0.0) ++nonzero;
  }
  EXPECT_NEAR(static_cast<real>(nonzero), 100.0, 5.0);
  EXPECT_THROW(TopKPruning(0.0), Error);
  EXPECT_THROW(TopKPruning(1.5), Error);
}

TEST(ClientDefense, ClientAppliesItBeforeUpload) {
  data::SynthConfig cfg;
  cfg.num_classes = 4;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = 2;
  cfg.test_per_class = 0;
  auto dataset = data::generate(cfg).train;
  const fl::ModelFactory factory = [] {
    common::Rng rng(9);
    return nn::make_mlp({3, 8, 8}, {8}, 4, rng);
  };
  fl::Client client(0, dataset, factory, 4,
                    std::make_shared<fl::IdentityPreprocessor>(),
                    common::Rng(10));
  // A tiny clip and no noise: every uploaded update must have tiny global
  // norm.
  const auto clip = fl::parse_defense_stack("clip:0.001");
  auto model = factory();
  fl::GlobalModelMessage msg;
  msg.model_state = nn::serialize_state(*model);
  const auto update = client.handle_round(msg, clip.get());
  const auto grads = tensor::deserialize_tensors(update.gradients);
  real sq = 0.0;
  for (const auto& g : grads) {
    for (const auto v : g.data()) sq += v * v;
  }
  EXPECT_NEAR(std::sqrt(sq), 1e-3, 1e-9);
}

TEST(Baselines, DpNoiseBlindsRtfButOasisKeepsGradientsExact) {
  data::SynthConfig cfg;
  cfg.num_classes = 10;
  cfg.height = cfg.width = 12;
  cfg.train_per_class = 3;
  cfg.test_per_class = 0;
  auto victim = data::generate(cfg).train;
  cfg.seed ^= 77;
  auto aux = data::generate(cfg).train;

  AttackExperimentConfig exp;
  exp.attack = AttackKind::kRtf;
  exp.batch_size = 4;
  exp.neurons = 100;
  exp.num_batches = 2;
  exp.seed = 5;
  const auto undefended = run_attack_experiment(victim, aux, exp);
  exp.defense = fl::parse_defense_stack("clip:1,noise:0.01");
  const auto dp = run_attack_experiment(victim, aux, exp);
  EXPECT_GT(undefended.mean_psnr(), 80.0);
  EXPECT_LT(dp.mean_psnr(), 30.0);
}

TEST(Detection, RtfImplantIsConspicuous) {
  data::SynthConfig cfg;
  cfg.num_classes = 6;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = 4;
  cfg.test_per_class = 0;
  auto aux = data::generate(cfg).train;
  const nn::ImageSpec spec{3, 10, 10};
  common::Rng rng(11);

  auto honest = nn::make_attack_host(spec, 40, 6, rng);
  const auto honest_report = attack::inspect_first_dense(*honest);
  EXPECT_FALSE(honest_report.suspicious());
  EXPECT_LT(honest_report.row_duplication, 0.01);

  attack::RtfAttack rtf(spec, 40, aux);
  auto rtf_host = nn::make_attack_host(spec, 40, 6, rng);
  rtf.implant(*rtf_host);
  const auto rtf_report = attack::inspect_first_dense(*rtf_host);
  EXPECT_TRUE(rtf_report.suspicious());
  EXPECT_DOUBLE_EQ(rtf_report.row_duplication, 1.0);
  EXPECT_GT(rtf_report.bias_monotonicity, 0.95);
}

TEST(Detection, CahImplantEvadesTheScreens) {
  data::SynthConfig cfg;
  cfg.num_classes = 6;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = 4;
  cfg.test_per_class = 0;
  auto aux = data::generate(cfg).train;
  const nn::ImageSpec spec{3, 10, 10};
  common::Rng rng(12);
  attack::CahAttack cah(spec, 40, 0.2, aux);
  auto host = nn::make_attack_host(spec, 40, 6, rng);
  cah.implant(*host);
  const auto report = attack::inspect_first_dense(*host);
  EXPECT_FALSE(report.suspicious());
  EXPECT_LT(report.row_duplication, 0.01);
  EXPECT_LT(report.bias_monotonicity, 0.8);
}

}  // namespace
}  // namespace oasis::core
