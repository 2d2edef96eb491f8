#include "traced_client.h"

#include <cstdio>

#include "nn/model_io.h"

namespace perfbench {

using namespace oasis;

std::string layer_tag(index_t index, const std::string& layer_name) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02zu.", static_cast<std::size_t>(index));
  return buf + layer_name;
}

TracedClient::TracedClient(std::uint64_t id, data::InMemoryDataset local_data,
                           const fl::ModelFactory& factory, index_t batch,
                           fl::PreprocessorPtr preprocessor,
                           std::uint64_t rng_seed, std::string span_model)
    : id_(id),
      data_(std::move(local_data)),
      model_(factory()),
      batch_(batch),
      preprocessor_(std::move(preprocessor)),
      rng_(rng_seed),
      span_model_(std::move(span_model)) {}

fl::ClientUpdateMessage TracedClient::round(const fl::GlobalModelMessage& msg,
                                            SpanLog& log, int parent, int tid) {
  const std::uint64_t r = msg.round;
  const Scoped client(log, "fl.client.handle_round", parent, r, tid);
  const int p = client.id();
  log.time("fl.client.load_state", p, r,
           [&] { nn::deserialize_state(*model_, msg.model_state); }, tid);

  data::Batch training;
  log.time("fl.client.sample", p, r, [&] {
    const auto indices = rng_.sample_without_replacement(data_.size(), batch_);
    last_raw_ = data::gather(data_, indices);
  }, tid);
  log.time("augment.oasis", p, r,
           [&] { training = preprocessor_->process(last_raw_, rng_); }, tid);
  last_training_ = training.size();

  model_->zero_grad();
  tensor::Tensor h = training.images;
  const bool per_layer = span_model_.empty();
  {
    const int fwd = per_layer ? p : log.begin(span_model_ + ".fwd", p, r, tid);
    for (index_t i = 0; i < model_->size(); ++i) {
      nn::Module& m = model_->at(i);
      if (per_layer) {
        log.time("nn.fwd." + layer_tag(i, m.name()), p, r,
                 [&] { h = m.forward(h, /*training=*/true); }, tid);
      } else {
        h = m.forward(h, /*training=*/true);
      }
    }
    if (!per_layer) log.end(fwd);
  }
  nn::LossResult loss;
  log.time("nn.loss", p, r,
           [&] { loss = loss_.compute(h, training.labels); }, tid);
  {
    const int bwd = per_layer ? p : log.begin(span_model_ + ".bwd", p, r, tid);
    tensor::Tensor g = loss.grad_logits;
    for (index_t i = model_->size(); i-- > 0;) {
      nn::Module& m = model_->at(i);
      if (per_layer) {
        log.time("nn.bwd." + layer_tag(i, m.name()), p, r,
                 [&] { g = m.backward(g); }, tid);
      } else {
        g = m.backward(g);
      }
    }
    if (!per_layer) log.end(bwd);
  }

  fl::ClientUpdateMessage update;
  update.round = msg.round;
  update.client_id = id_;
  update.num_examples = training.size();
  std::vector<tensor::Tensor> gradients;
  log.time("fl.client.snapshot_gradients", p, r,
           [&] { gradients = nn::snapshot_gradients(*model_); }, tid);
  log.time("tensor.serialize", p, r, [&] {
    update.gradients = tensor::serialize_tensors(gradients);
  }, tid);
  return update;
}

}  // namespace perfbench
