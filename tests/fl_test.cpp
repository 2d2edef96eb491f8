// FL simulator tests: message round trips, FedAvg arithmetic, client
// gradient correctness, honest/malicious server behaviour, full rounds.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "fl/aggregation.h"
#include "fl/client.h"
#include "fl/server.h"
#include "fl/simulation.h"
#include "nn/dense.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace oasis::fl {
namespace {

data::InMemoryDataset tiny_dataset(index_t n, index_t classes,
                                   std::uint64_t seed) {
  data::SynthConfig cfg;
  cfg.num_classes = classes;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = n;
  cfg.test_per_class = 0;
  cfg.seed = seed;
  return data::generate(cfg).train;
}

ModelFactory tiny_factory(std::uint64_t seed) {
  return [seed] {
    common::Rng rng(seed);
    return nn::make_mlp({3, 8, 8}, {16}, 4, rng);
  };
}

TEST(Aggregation, UnweightedMeanOfTwoUpdates) {
  ClientUpdateMessage a, b;
  a.num_examples = 1;
  b.num_examples = 1;
  a.gradients = tensor::serialize_tensors({tensor::Tensor({2}, {2.0, 4.0})});
  b.gradients = tensor::serialize_tensors({tensor::Tensor({2}, {4.0, 8.0})});
  const std::vector<ClientUpdateMessage> updates{a, b};
  const auto avg = fedavg_unweighted(updates);
  ASSERT_EQ(avg.size(), 1u);
  EXPECT_DOUBLE_EQ(avg[0][0], 3.0);
  EXPECT_DOUBLE_EQ(avg[0][1], 6.0);
}

TEST(Aggregation, ExampleWeightedMean) {
  ClientUpdateMessage a, b;
  a.num_examples = 3;
  b.num_examples = 1;
  a.gradients = tensor::serialize_tensors({tensor::Tensor({1}, {4.0})});
  b.gradients = tensor::serialize_tensors({tensor::Tensor({1}, {8.0})});
  const std::vector<ClientUpdateMessage> updates{a, b};
  const auto avg = fedavg(updates);
  EXPECT_DOUBLE_EQ(avg[0][0], (3.0 * 4.0 + 8.0) / 4.0);
}

TEST(Aggregation, RejectsEmptyAndMismatched) {
  const std::vector<ClientUpdateMessage> none;
  EXPECT_THROW(fedavg(none), Error);

  ClientUpdateMessage a, b;
  a.num_examples = b.num_examples = 1;
  a.gradients = tensor::serialize_tensors({tensor::Tensor({2})});
  b.gradients =
      tensor::serialize_tensors({tensor::Tensor({2}), tensor::Tensor({2})});
  const std::vector<ClientUpdateMessage> bad{a, b};
  EXPECT_THROW(fedavg(bad), Error);
}

TEST(Client, UpdateMatchesDirectGradientComputation) {
  // A client round must produce exactly the gradients of one forward/backward
  // on its sampled batch — verified by replaying with the same RNG.
  auto dataset = tiny_dataset(6, 4, 11);
  Client client(7, dataset, tiny_factory(5), 4,
                std::make_shared<IdentityPreprocessor>(), common::Rng(42));

  auto global = tiny_factory(99)();  // a different global model state
  GlobalModelMessage msg;
  msg.round = 3;
  msg.model_state = nn::serialize_state(*global);
  const ClientUpdateMessage update = client.handle_round(msg);
  EXPECT_EQ(update.round, 3u);
  EXPECT_EQ(update.client_id, 7u);
  EXPECT_EQ(update.num_examples, 4u);

  // Replay manually.
  auto replica = tiny_factory(5)();
  nn::deserialize_state(*replica, msg.model_state);
  const data::Batch& batch = client.last_raw_batch();
  replica->zero_grad();
  nn::SoftmaxCrossEntropy loss_fn;
  const auto logits = replica->forward(batch.images, true);
  const auto loss = loss_fn.compute(logits, batch.labels);
  replica->backward(loss.grad_logits);
  const auto expected = nn::snapshot_gradients(*replica);
  const auto actual = tensor::deserialize_tensors(update.gradients);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(actual[i], expected[i]));
  }
  EXPECT_NEAR(client.last_loss(), loss.loss, 1e-12);
}

// handle_round trains with backward_params, which computes no input
// gradient for the model's lowest parameterized layer. Its upload must be
// byte-equal to a replay of the same step through the full backward, for
// every model family the engines federate.
TEST(Client, BackwardParamsUpdateBytesMatchFullBackwardReplay) {
  const nn::ImageSpec spec{3, 8, 8};
  const auto dataset = tiny_dataset(6, 4, 23);
  const std::vector<std::pair<std::string, ModelFactory>> families{
      {"mlp",
       [&] {
         common::Rng rng(31);
         return nn::make_mlp(spec, {16}, 4, rng);
       }},
      {"mini_convnet",
       [&] {
         common::Rng rng(32);
         return nn::make_mini_convnet(spec, 4, rng, /*width=*/4);
       }},
      {"linear",
       [&] {
         common::Rng rng(33);
         return nn::make_linear_model(spec, 4, rng);
       }},
      {"attack_host", [&] {
         common::Rng rng(34);
         return nn::make_attack_host(spec, 24, 4, rng);
       }}};
  for (const auto& [name, factory] : families) {
    SCOPED_TRACE(name);
    Client client(2, dataset, factory, /*batch_size=*/5,
                  std::make_shared<IdentityPreprocessor>(), common::Rng(808));
    Server server(factory(), 0.1);
    for (std::uint64_t round = 0; round < 2; ++round) {
      server.begin_round();
      const GlobalModelMessage msg = server.dispatch_to(2);
      const std::vector<ClientUpdateMessage> updates{client.handle_round(msg)};

      auto replica = factory();
      nn::deserialize_state(*replica, msg.model_state);
      const data::Batch& batch = client.last_raw_batch();
      replica->zero_grad();
      const auto logits = replica->forward(batch.images, true);
      replica->backward(
          nn::SoftmaxCrossEntropy().compute(logits, batch.labels).grad_logits);
      EXPECT_EQ(updates[0].gradients,
                tensor::serialize_tensors(nn::snapshot_gradients(*replica)))
          << "round " << round;
      server.finish_round(updates);
    }
  }
}

TEST(Client, UniqueLabelSamplingYieldsDistinctLabels) {
  auto dataset = tiny_dataset(5, 4, 12);
  Client client(0, dataset, tiny_factory(6), 4,
                std::make_shared<IdentityPreprocessor>(), common::Rng(1),
                BatchSampling::kUniqueLabels);
  auto global = tiny_factory(6)();
  GlobalModelMessage msg;
  msg.model_state = nn::serialize_state(*global);
  for (int round = 0; round < 5; ++round) {
    client.handle_round(msg);
    auto labels = client.last_raw_batch().labels;
    std::sort(labels.begin(), labels.end());
    EXPECT_TRUE(std::adjacent_find(labels.begin(), labels.end()) ==
                labels.end());
  }
}

TEST(Client, RejectsOversizedBatch) {
  auto dataset = tiny_dataset(1, 4, 13);  // 4 examples total
  EXPECT_THROW(Client(0, dataset, tiny_factory(6), 10,
                      std::make_shared<IdentityPreprocessor>(),
                      common::Rng(1)),
               Error);
}

TEST(Server, AppliesAveragedGradients) {
  auto model = tiny_factory(21)();
  const auto before = nn::snapshot_state(*model);
  Server server(std::move(model), /*learning_rate=*/0.5);

  // One fake update: gradient = all ones for every parameter.
  auto ref = tiny_factory(21)();
  std::vector<tensor::Tensor> ones;
  for (auto* p : ref->parameters()) {
    ones.push_back(tensor::Tensor::full(p->value.shape(), 1.0));
  }
  ClientUpdateMessage update;
  update.num_examples = 2;
  update.gradients = tensor::serialize_tensors(ones);
  const std::vector<ClientUpdateMessage> updates{update};
  server.finish_round(updates);
  EXPECT_EQ(server.round(), 1u);

  const auto after = nn::snapshot_state(server.global_model());
  const auto params = server.global_model().parameters().size();
  for (std::size_t i = 0; i < params; ++i) {
    tensor::Tensor expected = before[i];
    expected += tensor::Tensor::full(before[i].shape(), -0.5);
    EXPECT_TRUE(tensor::allclose(after[i], expected));
  }
}

TEST(MaliciousServer, ManipulatesDispatchAndCapturesUpdates) {
  // The manipulator pins the first Dense bias to a sentinel; the dispatched
  // state must carry it, and all updates must be captured.
  auto manipulator = [](nn::Sequential& m) {
    auto* dense = dynamic_cast<nn::Dense*>(&m.at(1));
    ASSERT_NE(dense, nullptr);
    dense->bias().value.fill(-123.0);
  };
  MaliciousServer server(tiny_factory(31)(), 0.1, manipulator);
  const GlobalModelMessage msg = server.begin_round();

  auto replica = tiny_factory(31)();
  nn::deserialize_state(*replica, msg.model_state);
  auto* dense = dynamic_cast<nn::Dense*>(&replica->at(1));
  ASSERT_NE(dense, nullptr);
  EXPECT_DOUBLE_EQ(dense->bias().value[0], -123.0);

  auto dataset = tiny_dataset(4, 4, 14);
  Client client(0, dataset, tiny_factory(31), 2,
                std::make_shared<IdentityPreprocessor>(), common::Rng(2));
  const std::vector<ClientUpdateMessage> updates{client.handle_round(msg)};
  server.finish_round(updates);
  EXPECT_EQ(server.captured().size(), 1u);
  EXPECT_EQ(server.captured()[0].client_id, 0u);
}

TEST(MaliciousServer, KeepsExactlyTheLastRoundsUpdates) {
  // Three rounds with two clients. After each, captured() holds that round's
  // updates and nothing older, byte-equal to what the clients sent and in
  // delivery order, also when the round was aborted for want of a quorum.
  MaliciousServer server(tiny_factory(32)(), 0.1, [](nn::Sequential&) {});
  const auto shards = tiny_dataset(4, 4, 15).shard(2);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::uint64_t id = 0; id < 2; ++id) {
    clients.push_back(std::make_unique<Client>(
        id, shards[id], tiny_factory(32), 2,
        std::make_shared<IdentityPreprocessor>(), common::Rng(40 + id)));
  }
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const bool aborted = round == 1;
    const GlobalModelMessage msg = server.begin_round();
    std::vector<ClientUpdateMessage> updates;
    for (const std::size_t c : aborted ? std::vector<std::size_t>{1, 0}
                                       : std::vector<std::size_t>{0, 1}) {
      updates.push_back(clients[c]->handle_round(msg));
    }
    if (aborted) {
      EXPECT_THROW(server.finish_round(updates, /*min_valid=*/3),
                   QuorumError);
    } else {
      EXPECT_TRUE(server.finish_round(updates).applied);
    }
    ASSERT_EQ(server.captured().size(), updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const ClientUpdateMessage& got = server.captured()[i];
      EXPECT_EQ(got.round, msg.round);
      EXPECT_EQ(got.round, updates[i].round);
      EXPECT_EQ(got.client_id, updates[i].client_id);
      EXPECT_EQ(got.num_examples, updates[i].num_examples);
      EXPECT_EQ(got.gradients, updates[i].gradients);
    }
  }
}

TEST(Simulation, RunsRoundsAndSelectsClients) {
  auto dataset = tiny_dataset(6, 4, 15);
  const auto shards = dataset.shard(3);
  std::vector<std::unique_ptr<Client>> clients;
  for (index_t i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, shards[i], tiny_factory(41), 3,
        std::make_shared<IdentityPreprocessor>(), common::Rng(100 + i)));
  }
  auto server = std::make_unique<Server>(tiny_factory(41)(), 0.05);
  Simulation sim(std::move(server), std::move(clients),
                 SimulationConfig{/*clients_per_round=*/2, /*seed=*/3});
  const auto ids = sim.run_round();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(sim.server().round(), 1u);
  index_t rounds_seen = 0;
  sim.run(3, [&](index_t) { ++rounds_seen; });
  EXPECT_EQ(rounds_seen, 3u);
  EXPECT_EQ(sim.server().round(), 4u);
}

TEST(Simulation, FederatedTrainingReducesLoss) {
  // End-to-end: three honest clients training a shared model must reduce the
  // average local loss over rounds.
  auto dataset = tiny_dataset(12, 4, 16);
  const auto shards = dataset.shard(3);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client*> raw;
  for (index_t i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, shards[i], tiny_factory(51), 8,
        std::make_shared<IdentityPreprocessor>(), common::Rng(200 + i)));
    raw.push_back(clients.back().get());
  }
  auto server = std::make_unique<Server>(tiny_factory(51)(), 0.25);
  Simulation sim(std::move(server), std::move(clients), SimulationConfig{});

  real early = 0.0, late = 0.0;
  const int rounds = 200;
  for (int r = 0; r < rounds; ++r) {
    sim.run_round();
    real avg = 0.0;
    for (auto* c : raw) avg += c->last_loss();
    avg /= 3.0;
    if (r < 10) early += avg;
    if (r >= rounds - 10) late += avg;
  }
  EXPECT_LT(late, early * 0.8);
}

TEST(Simulation, ValidatesConfiguration) {
  auto dataset = tiny_dataset(2, 4, 17);
  std::vector<std::unique_ptr<Client>> clients;
  clients.push_back(std::make_unique<Client>(
      0, dataset, tiny_factory(61), 2,
      std::make_shared<IdentityPreprocessor>(), common::Rng(1)));
  auto server = std::make_unique<Server>(tiny_factory(61)(), 0.1);
  EXPECT_THROW(Simulation(std::move(server), std::move(clients),
                          SimulationConfig{/*clients_per_round=*/5}),
               Error);

  // A quorum outside [0, 1] is a ConfigError at construction, as in the
  // sharded and socket engines — not a failure at the first round.
  for (const real quorum : {1.5, -0.1}) {
    std::vector<std::unique_ptr<Client>> one;
    one.push_back(std::make_unique<Client>(
        0, dataset, tiny_factory(61), 2,
        std::make_shared<IdentityPreprocessor>(), common::Rng(1)));
    SimulationConfig cfg;
    cfg.quorum_fraction = quorum;
    EXPECT_THROW(
        Simulation(std::make_unique<Server>(tiny_factory(61)(), 0.1),
                   std::move(one), cfg),
        ConfigError)
        << "quorum_fraction " << quorum;
  }
}

TEST(Client, SingleLocalStepPseudoGradientEqualsRawGradient) {
  // With steps=1, raw-gradient mode and pseudo-gradient mode must agree:
  // (w − (w − lr·g)) / lr == g. Verified by running two identical clients.
  auto dataset = tiny_dataset(6, 4, 19);
  Client raw(0, dataset, tiny_factory(81), 4,
             std::make_shared<IdentityPreprocessor>(), common::Rng(5));
  Client pseudo(0, dataset, tiny_factory(81), 4,
                std::make_shared<IdentityPreprocessor>(), common::Rng(5));
  pseudo.set_local_training(1, 0.05);
  // steps == 1 keeps the raw path even in local-training mode… unless lr>0
  // switches modes; either way the uploaded tensors must match numerically.
  auto global = tiny_factory(81)();
  GlobalModelMessage msg;
  msg.model_state = nn::serialize_state(*global);
  const auto a = tensor::deserialize_tensors(raw.handle_round(msg).gradients);
  const auto b =
      tensor::deserialize_tensors(pseudo.handle_round(msg).gradients);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(a[i], b[i], 1e-9, 1e-12));
  }
}

TEST(Client, MultiStepLocalTrainingReducesLocalLoss) {
  auto dataset = tiny_dataset(16, 4, 20);
  Client client(0, dataset, tiny_factory(91), 16,
                std::make_shared<IdentityPreprocessor>(), common::Rng(6));
  client.set_local_training(/*steps=*/20, /*lr=*/0.2);
  auto global = tiny_factory(91)();
  GlobalModelMessage msg;
  msg.model_state = nn::serialize_state(*global);
  const auto update = client.handle_round(msg);
  // num_examples counts every local step's batch.
  EXPECT_EQ(update.num_examples, 20u * 16u);
  // The pseudo-gradient applied at lr reproduces the locally-trained model,
  // whose loss must beat the dispatched model's initial loss.
  const real after = client.last_loss();
  Client fresh(1, dataset, tiny_factory(91), 16,
               std::make_shared<IdentityPreprocessor>(), common::Rng(6));
  fresh.handle_round(msg);
  const real before = fresh.last_loss();
  EXPECT_LT(after, before * 0.9);
}

TEST(Client, MultiStepFederationConverges) {
  auto dataset = tiny_dataset(12, 4, 21);
  const auto shards = dataset.shard(2);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client*> raw;
  for (index_t i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, shards[i], tiny_factory(95), 8,
        std::make_shared<IdentityPreprocessor>(), common::Rng(300 + i)));
    clients.back()->set_local_training(5, 0.2);
    raw.push_back(clients.back().get());
  }
  // Server lr equals the client lr so the averaged pseudo-gradients recreate
  // the average of the locally-trained models (classic FedAvg).
  auto server = std::make_unique<Server>(tiny_factory(95)(), 0.2);
  Simulation sim(std::move(server), std::move(clients), SimulationConfig{});
  real early = 0.0, late = 0.0;
  for (int r = 0; r < 40; ++r) {
    sim.run_round();
    const real avg = (raw[0]->last_loss() + raw[1]->last_loss()) / 2.0;
    if (r < 5) early += avg;
    if (r >= 35) late += avg;
  }
  EXPECT_LT(late, early * 0.8);
}

ClientUpdateMessage fake_update(std::uint64_t client_id, real value,
                                std::uint64_t round = 0) {
  auto ref = tiny_factory(21)();
  std::vector<tensor::Tensor> grads;
  for (auto* p : ref->parameters()) {
    grads.push_back(tensor::Tensor::full(p->value.shape(), value));
  }
  ClientUpdateMessage u;
  u.round = round;
  u.client_id = client_id;
  u.num_examples = 1;
  u.gradients = tensor::serialize_tensors(grads);
  return u;
}

TEST(Aggregation, EmptyUpdateSetRaisesTypedError) {
  const std::vector<ClientUpdateMessage> none;
  EXPECT_THROW(fedavg(none), AggregationError);
  EXPECT_THROW(fedavg_unweighted(none), AggregationError);
}

TEST(Validation, RejectsEachFaultClassAndAggregatesTheRest) {
  auto model = tiny_factory(21)();
  const auto before = nn::snapshot_state(*model);
  Server server(std::move(model), /*learning_rate=*/0.5);
  ValidationConfig vc;
  vc.max_grad_norm = 100.0;
  server.set_validation(vc);

  std::vector<ClientUpdateMessage> updates;
  updates.push_back(fake_update(0, 1.0));            // the only valid one
  updates.push_back(fake_update(1, 1.0, /*round=*/5));  // stale round id
  updates.push_back(fake_update(0, 1.0));            // duplicate client 0
  updates.push_back(fake_update(2, 1.0));
  updates.back().gradients.resize(updates.back().gradients.size() / 2 + 3);
  updates.push_back(
      fake_update(3, std::numeric_limits<real>::quiet_NaN()));
  updates.push_back(fake_update(4, 1e9));            // norm outside the band
  updates.push_back(fake_update(5, 1.0));
  updates.back().num_examples = 0;
  updates.push_back(fake_update(6, 1.0));
  updates.back().gradients =
      tensor::serialize_tensors({tensor::Tensor({2}, {1.0, 2.0})});
  // Structural damage with a fixed-up CRC: the count header claims 2^32
  // tensors but the trailer matches, so this must reach (and fail) the
  // structural walk rather than the checksum screen.
  updates.push_back(fake_update(7, 1.0));
  updates.back().gradients[0] = 0xFF;
  updates.back().gradients[4] = 0xFF;
  tensor::reseal_tensors(updates.back().gradients);

  const RoundOutcome outcome = server.finish_round(updates);
  ASSERT_EQ(outcome.reasons.size(), 9u);
  EXPECT_EQ(outcome.reasons[0], RejectReason::kAccepted);
  EXPECT_EQ(outcome.reasons[1], RejectReason::kWrongRound);
  EXPECT_EQ(outcome.reasons[2], RejectReason::kDuplicate);
  // Truncation damages the payload in flight: caught by the CRC trailer
  // check, which runs before any structural parsing.
  EXPECT_EQ(outcome.reasons[3], RejectReason::kChecksumMismatch);
  EXPECT_EQ(outcome.reasons[4], RejectReason::kNonFinite);
  EXPECT_EQ(outcome.reasons[5], RejectReason::kNormTooLarge);
  EXPECT_EQ(outcome.reasons[6], RejectReason::kZeroExamples);
  EXPECT_EQ(outcome.reasons[7], RejectReason::kShapeMismatch);
  EXPECT_EQ(outcome.reasons[8], RejectReason::kMalformed);
  EXPECT_EQ(outcome.accepted, 1u);
  EXPECT_EQ(outcome.rejected, 8u);
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(server.round(), 1u);

  // The model advanced by exactly the single valid all-ones update.
  const auto after = nn::snapshot_state(server.global_model());
  for (std::size_t i = 0; i < before.size(); ++i) {
    tensor::Tensor expected = before[i];
    expected += tensor::Tensor::full(before[i].shape(), -0.5);
    EXPECT_TRUE(tensor::allclose(after[i], expected));
  }
}

TEST(Validation, AllRejectedSkipsTheSgdStep) {
  auto model = tiny_factory(21)();
  const auto before = nn::snapshot_state(*model);
  Server server(std::move(model), 0.5);
  std::vector<ClientUpdateMessage> updates{fake_update(0, 1.0, /*round=*/9)};
  const RoundOutcome outcome = server.finish_round(updates);
  EXPECT_EQ(outcome.accepted, 0u);
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ(server.round(), 1u);  // protocol still advances
  const auto after = nn::snapshot_state(server.global_model());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(after[i], before[i]));
  }
  // Same for a fully empty round.
  const std::vector<ClientUpdateMessage> none;
  EXPECT_FALSE(server.finish_round(none).applied);
}

TEST(Validation, UnmetQuorumThrowsBeforeTouchingTheModel) {
  auto model = tiny_factory(21)();
  const auto before = nn::snapshot_state(*model);
  Server server(std::move(model), 0.5);
  std::vector<ClientUpdateMessage> updates{fake_update(0, 1.0)};
  EXPECT_THROW(server.finish_round(updates, /*min_valid=*/2), QuorumError);
  EXPECT_EQ(server.round(), 0u);
  const auto after = nn::snapshot_state(server.global_model());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(after[i], before[i]));
  }
  // Quorum of 1 with one valid update commits.
  EXPECT_TRUE(server.finish_round(updates, /*min_valid=*/1).applied);
}

/// The payload verdict the screen gave before it decoded updates once: a
/// byte walk with scan_tensors, then the shape, finiteness and norm screens
/// on the scan. The decode-once screen is checked against this reference.
RejectReason scan_verdict(const tensor::ByteBuffer& payload,
                          const std::vector<tensor::Shape>& expected,
                          real max_grad_norm) {
  try {
    const tensor::TensorScan scan = tensor::scan_tensors(payload);
    if (scan.shapes != expected) return RejectReason::kShapeMismatch;
    if (!scan.all_finite) return RejectReason::kNonFinite;
    if (max_grad_norm > 0.0 && std::sqrt(scan.sum_squares) > max_grad_norm) {
      return RejectReason::kNormTooLarge;
    }
    return RejectReason::kAccepted;
  } catch (const ChecksumError&) {
    return RejectReason::kChecksumMismatch;
  } catch (const SerializationError&) {
    return RejectReason::kMalformed;
  }
}

/// Hostile payloads for a model with parameter `shapes`: the honest
/// payload, every truncation, every single-bit flip both resealed (so it
/// reaches the structural and numeric screens) and not, a wrong shape, and
/// NaN/±Inf planted at the first, a middle and the last value.
std::vector<tensor::ByteBuffer> hostile_corpus(
    const std::vector<tensor::Shape>& shapes, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<tensor::Tensor> honest;
  for (const auto& shape : shapes) {
    honest.push_back(tensor::Tensor::randn(shape, rng));
  }
  const tensor::ByteBuffer base = tensor::serialize_tensors(honest);
  std::vector<tensor::ByteBuffer> corpus{base};
  for (std::size_t len = 0; len < base.size(); ++len) {
    corpus.emplace_back(base.begin(), base.begin() + len);
  }
  for (std::size_t bit = 0; bit < 8 * base.size(); ++bit) {
    tensor::ByteBuffer flipped = base;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    corpus.push_back(flipped);
    tensor::reseal_tensors(flipped);
    corpus.push_back(std::move(flipped));
  }
  std::vector<tensor::Tensor> reshaped = honest;
  reshaped.back() = tensor::Tensor::randn({reshaped.back().size() + 1}, rng);
  corpus.push_back(tensor::serialize_tensors(reshaped));
  for (const real poison : {std::numeric_limits<real>::quiet_NaN(),
                            std::numeric_limits<real>::infinity(),
                            -std::numeric_limits<real>::infinity()}) {
    for (const std::size_t t : {std::size_t{0}, honest.size() - 1}) {
      auto poisoned = honest;
      const auto values = poisoned[t].data();
      for (const std::size_t i : {std::size_t{0}, values.size() / 2,
                                  values.size() - 1}) {
        const real saved = values[i];
        values[i] = poison;
        corpus.push_back(tensor::serialize_tensors(poisoned));
        values[i] = saved;
      }
    }
  }
  return corpus;
}

TEST(Validation, DecodeOnceScreenMatchesTheScanReferenceOnHostilePayloads) {
  // The counter each rejected payload verdict bumps besides
  // fl.validate.rejected.
  const std::map<RejectReason, std::string> reject_counter = {
      {RejectReason::kMalformed, "fl.validate.reject.malformed"},
      {RejectReason::kShapeMismatch, "fl.validate.reject.shape"},
      {RejectReason::kNonFinite, "fl.validate.reject.non_finite"},
      {RejectReason::kNormTooLarge, "fl.validate.reject.norm"},
      {RejectReason::kChecksumMismatch, "fl.validate.reject.checksum"}};
  const auto validate_counters = [] {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : obs::Registry::global().counters()) {
      if (value != 0 && name.rfind("fl.validate.", 0) == 0) out[name] = value;
    }
    return out;
  };

  common::Rng rng(5);
  Server server(nn::make_mlp({1, 2, 2}, {3}, 2, rng), 0.1);
  const std::vector<tensor::Shape> shapes =
      server.begin_screen().expected_shapes;
  const auto corpus = hostile_corpus(shapes, 6);
  const real norm =
      std::sqrt(tensor::scan_tensors(corpus.front()).sum_squares);

  // Norm screen off, at the honest payload's norm (accepted), and one ulp
  // below it (the norm is one ulp above the bound: rejected).
  std::map<RejectReason, std::size_t> seen;
  for (const real max_grad_norm :
       {0.0, norm, std::nextafter(norm, real{0})}) {
    server.set_validation(ValidationConfig{max_grad_norm});
    UpdateScreen screen = server.begin_screen();
    auto expected = validate_counters();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      ClientUpdateMessage update;
      update.client_id = i;
      update.num_examples = 1;
      update.gradients = corpus[i];
      const RejectReason want = scan_verdict(corpus[i], shapes, max_grad_norm);
      AcceptedUpdate accepted;
      ASSERT_EQ(server.screen_update(update, screen, accepted), want)
          << "payload " << i << ", max_grad_norm " << max_grad_norm;
      ++seen[want];
      if (want == RejectReason::kAccepted) {
        ++expected["fl.validate.accepted"];
        EXPECT_EQ(accepted.client_id, i);
        EXPECT_EQ(tensor::serialize_tensors(accepted.gradients), corpus[i]);
      } else {
        ++expected["fl.validate.rejected"];
        ++expected[reject_counter.at(want)];
        EXPECT_TRUE(accepted.gradients.empty());
      }
    }
    EXPECT_EQ(validate_counters(), expected)
        << "max_grad_norm " << max_grad_norm;
  }
  // The corpus reaches every payload verdict.
  for (const RejectReason reason :
       {RejectReason::kAccepted, RejectReason::kMalformed,
        RejectReason::kShapeMismatch, RejectReason::kNonFinite,
        RejectReason::kNormTooLarge, RejectReason::kChecksumMismatch}) {
    EXPECT_GT(seen[reason], 0u) << to_string(reason);
  }
}

TEST(Simulation, RejectsDuplicateClientIds) {
  auto dataset = tiny_dataset(4, 4, 23);
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<Client>(
        /*id=*/7, dataset, tiny_factory(61), 2,
        std::make_shared<IdentityPreprocessor>(), common::Rng(1)));
  }
  auto server = std::make_unique<Server>(tiny_factory(61)(), 0.1);
  EXPECT_THROW(
      Simulation(std::move(server), std::move(clients), SimulationConfig{}),
      Error);
}

TEST(Messages, MalformedModelPayloadThrows) {
  auto dataset = tiny_dataset(2, 4, 18);
  Client client(0, dataset, tiny_factory(71), 2,
                std::make_shared<IdentityPreprocessor>(), common::Rng(1));
  GlobalModelMessage msg;
  msg.model_state = {1, 2, 3};  // garbage
  EXPECT_THROW(client.handle_round(msg), SerializationError);
}

}  // namespace
}  // namespace oasis::fl
