// Per-layer probes of the traced runs: calls into one layer's public entry
// point, with the shapes or payloads the workload's own rounds produce,
// timed from this directory's code.
#pragma once

#include <string>
#include <vector>

#include "fl/preprocessor.h"
#include "harness.h"
#include "nn/sequential.h"
#include "tensor/gemm/gemm.h"

namespace perfbench {

/// One GEMM call shape a model layer issues.
struct GemmShape {
  std::string name;  // metric stem, e.g. "tensor.gemm.03.Conv2d.fwd"
  oasis::tensor::gemm::Variant variant;
  oasis::index_t m, k, n;
};

/// The GEMM shape classes (fwd, bwd_w, bwd_in) that `model`'s Conv2d and
/// Dense layers produce on a training batch of shape `input` ([B, C, H, W]).
/// `layers` restricts the walk to those layer indices (empty = all).
std::vector<GemmShape> gemm_shapes(oasis::nn::Sequential& model,
                                   const oasis::tensor::Shape& input,
                                   const std::vector<oasis::index_t>& layers);

/// Times gemm::run on each shape (random operands) and reports
/// "<name>.gflops".
void probe_gemm(const std::vector<GemmShape>& shapes, std::uint64_t seed,
                Report& report);

/// Times the wire-payload layers on one real update payload: deserialize,
/// scan and CRC32C, plus serialize when `with_serialize` (workloads whose
/// traced rounds do not span it already). Reports tensor.deserialize.ms,
/// tensor.scan.ms, common.crc32c.gb_per_s, common.crc32c.ms_per_update and
/// tensor.serialize.ms.
void probe_payload(const oasis::tensor::ByteBuffer& gradients,
                   bool with_serialize, Report& report);

/// Times the OASIS preprocessor on one raw batch; reports augment.oasis.ms
/// and augment.expansion (images out / images in).
void probe_augment(const oasis::fl::BatchPreprocessor& preprocessor,
                   const oasis::data::Batch& batch, std::uint64_t seed,
                   Report& report);

/// Times im2col_into / col2im_add over every Conv2d of `model` for one
/// client update (`input` = the training batch shape). Reports
/// tensor.im2col.ms and tensor.col2im.ms (per update).
void probe_im2col(oasis::nn::Sequential& model, const oasis::tensor::Shape& input,
                  Report& report);

/// Reports "<span>.ms" as the mean duration of every span named `span`.
void report_span_mean(const SpanLog& log, const std::string& span,
                      Report& report);

}  // namespace perfbench
