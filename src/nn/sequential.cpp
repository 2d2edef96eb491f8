#include "nn/sequential.h"

namespace oasis::nn {

void Sequential::append(ModulePtr m) {
  OASIS_CHECK(m != nullptr);
  modules_.push_back(std::move(m));
}

void Sequential::insert(index_t index, ModulePtr m) {
  OASIS_CHECK(m != nullptr);
  OASIS_CHECK_MSG(index <= modules_.size(),
                  "insert at " << index << " of " << modules_.size());
  modules_.insert(modules_.begin() + static_cast<std::ptrdiff_t>(index),
                  std::move(m));
}

Module& Sequential::at(index_t index) {
  OASIS_CHECK_MSG(index < modules_.size(),
                  "module " << index << " of " << modules_.size());
  return *modules_[index];
}

const Module& Sequential::at(index_t index) const {
  OASIS_CHECK_MSG(index < modules_.size(),
                  "module " << index << " of " << modules_.size());
  return *modules_[index];
}

tensor::Tensor Sequential::forward(const tensor::Tensor& x, bool training) {
  tensor::Tensor h = x;
  for (auto& m : modules_) h = m->forward(h, training);
  return h;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_out) {
  tensor::Tensor g = grad_out;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::backward_params(const tensor::Tensor& grad_out) {
  index_t lowest = 0;
  while (lowest < modules_.size() && modules_[lowest]->parameters().empty()) {
    ++lowest;
  }
  if (lowest == modules_.size()) return;
  tensor::Tensor g = grad_out;
  for (index_t i = modules_.size() - 1; i > lowest; --i) {
    g = modules_[i]->backward(g);
  }
  modules_[lowest]->backward_params(g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& m : modules_) {
    for (auto* p : m->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<tensor::Tensor*> Sequential::buffers() {
  std::vector<tensor::Tensor*> bufs;
  for (auto& m : modules_) {
    for (auto* b : m->buffers()) bufs.push_back(b);
  }
  return bufs;
}

}  // namespace oasis::nn
