// A federated client round decomposed into its public per-layer calls.
//
// TracedClient performs exactly the work of fl::Client::handle_round for a
// single-step, uniformly sampling, softmax-cross-entropy client — load the
// dispatched state, sample and gather the batch, run the preprocessor (OASIS
// augmentation), forward and backward layer by layer, snapshot and
// serialize the gradients — and records one span per call. Given the same
// rng seed it uploads the same bytes as fl::Client, which is what the traced
// runs' model-bytes fidelity checks rely on.
#pragma once

#include <memory>
#include <string>

#include "data/dataset.h"
#include "fl/client.h"
#include "harness.h"
#include "nn/loss.h"

namespace perfbench {

class TracedClient {
 public:
  /// `span_model` selects the layer span names: "" gives one span per layer
  /// ("nn.fwd.03.Conv2d"), a tag such as "nn.attack_host" gives one span for
  /// the whole forward and one for the whole backward pass.
  TracedClient(std::uint64_t id, oasis::data::InMemoryDataset local_data,
               const oasis::fl::ModelFactory& factory, oasis::index_t batch,
               oasis::fl::PreprocessorPtr preprocessor, std::uint64_t rng_seed,
               std::string span_model = "");

  /// One client round; spans go to `log` under `parent`.
  oasis::fl::ClientUpdateMessage round(const oasis::fl::GlobalModelMessage& msg,
                                       SpanLog& log, int parent, int tid);

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const oasis::data::Batch& last_raw_batch() const {
    return last_raw_;
  }
  [[nodiscard]] oasis::index_t last_training_batch() const {
    return last_training_;
  }

 private:
  std::uint64_t id_;
  oasis::data::InMemoryDataset data_;
  std::unique_ptr<oasis::nn::Sequential> model_;
  oasis::index_t batch_;
  oasis::fl::PreprocessorPtr preprocessor_;
  oasis::common::Rng rng_;
  std::string span_model_;
  oasis::nn::SoftmaxCrossEntropy loss_;
  oasis::data::Batch last_raw_;
  oasis::index_t last_training_ = 0;
};

/// "03.Conv2d": the per-layer part of nn span and metric names.
std::string layer_tag(oasis::index_t index, const std::string& layer_name);

}  // namespace perfbench
