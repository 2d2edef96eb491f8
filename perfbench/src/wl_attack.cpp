// attack_eval — the paper's Fig. 3/4 evaluation through
// core::run_attack_experiment.
//
// {RTF, CAH} × {undefended, OASIS major rotation} on 64×64 ImageNet
// stand-ins, victim batch B = 8, 256 attacked neurons. The attack implant,
// the reconstruction, best-match PSNR scoring, the 64×64 rotation warps and
// the 12288×256 malicious Dense do the work; no FL orchestration beyond one
// victim round and no network. A "round" is one attacked batch.
#include <algorithm>
#include <cstdlib>
#include <memory>

#include "attack/cah.h"
#include "attack/recon_eval.h"
#include "attack/rtf.h"
#include "core/experiment.h"
#include "core/oasis.h"
#include "data/synthetic.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "probes.h"
#include "traced_client.h"
#include "workloads.h"

namespace perfbench {

using namespace oasis;

namespace {

constexpr index_t kBatch = 8;
constexpr index_t kNeurons = 256;
constexpr index_t kClasses = 10;
/// Attacked batches per run_attack_experiment call.
constexpr index_t kBatchesPerCall = 8;

struct Inputs {
  data::InMemoryDataset victim{1, {}};
  data::InMemoryDataset aux{1, {}};
  std::uint64_t experiment_seed = 0;
};

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  data::SynthConfig cfg = data::synth_imagenet_config();
  cfg.train_per_class = 12;
  cfg.test_per_class = 0;
  cfg.seed = derive_seed(seed, 1);
  in->victim = data::generate(cfg).train;
  cfg.seed = derive_seed(seed, 2);
  in->aux = data::generate(cfg).train;
  in->experiment_seed = derive_seed(seed, 3) >> 16;
  return in;
}

nn::ImageSpec spec_of(const Inputs& in) {
  const auto& s = in.victim.image_shape();
  return {s[0], s[1], s[2]};
}

/// The four evaluated configurations, in run order.
std::vector<core::AttackExperimentConfig> configs(const Inputs& in) {
  std::vector<core::AttackExperimentConfig> out;
  for (const auto kind : {core::AttackKind::kRtf, core::AttackKind::kCah}) {
    for (const bool defended : {false, true}) {
      core::AttackExperimentConfig cfg;
      cfg.attack = kind;
      cfg.batch_size = kBatch;
      cfg.neurons = kNeurons;
      cfg.num_batches = kBatchesPerCall;
      cfg.classes = kClasses;
      cfg.seed = in.experiment_seed;
      if (defended) cfg.transforms = {augment::TransformKind::kMajorRotation};
      out.push_back(cfg);
    }
  }
  return out;
}

std::string label(const core::AttackExperimentConfig& cfg) {
  return core::to_string(cfg.attack) + (cfg.transforms.empty() ? "/WO" : "/MR");
}

/// The attacker-side calibration run_attack_experiment performs per call:
/// timed as part of set-up.
void calibrate(const Inputs& in) {
  const attack::RtfAttack rtf(spec_of(in), kNeurons, in.aux);
  const attack::CahAttack cah(spec_of(in), kNeurons, 1.0 / kBatch, in.aux);
  if (rtf.cutoffs().empty() || cah.neurons() != kNeurons) std::abort();
}

std::size_t host_upload_bytes(const Inputs& in) {
  return upload_bytes([spec = spec_of(in)] {
    common::Rng rng(1);
    return nn::make_attack_host(spec, kNeurons, kClasses, rng);
  });
}

void check_headline(const std::vector<std::vector<real>>& psnr,
                    const std::vector<core::AttackExperimentConfig>& cfgs,
                    Report& report, EndToEnd& e2e) {
  std::vector<double> defended;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const std::vector<double> v(psnr[i].begin(), psnr[i].end());
    report.note("psnr " + label(cfgs[i]) + " p25/p50/p75 " +
                std::to_string(quantile(v, 0.25)) + " / " +
                std::to_string(quantile(v, 0.5)) + " / " +
                std::to_string(quantile(v, 0.75)) + " dB over " +
                std::to_string(v.size()) + " images");
    if (!cfgs[i].transforms.empty()) {
      defended.insert(defended.end(), psnr[i].begin(), psnr[i].end());
    }
  }
  const double rtf_wo = median({psnr[0].begin(), psnr[0].end()});
  const double rtf_mr = median({psnr[1].begin(), psnr[1].end()});
  report.check("undefended RTF median PSNR >= 100 dB", rtf_wo >= 100.0,
               std::to_string(rtf_wo) + " dB");
  report.check("OASIS MR RTF median PSNR <= 30 dB", rtf_mr <= 30.0,
               std::to_string(rtf_mr) + " dB");
  e2e.oasis_psnr_db_p50 = median(defended);
  e2e.psnr_note = "OASIS MR vs RTF and CAH, n=" +
                  std::to_string(defended.size()) + " images";
}

void run_untraced(const Args& args, Report& report) {
  EndToEnd e2e;
  std::unique_ptr<Inputs> in;
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = now_ns();
    in = make_inputs(args.seed);
    calibrate(*in);
    e2e.setup_s.push_back(ns_to_ms(now_ns() - t0) / 1e3);
  }
  const auto cfgs = configs(*in);
  // Warm-up: one untimed call of the first configuration; its PSNRs are the
  // reference that configuration's timed calls must reproduce exactly.
  std::vector<std::vector<real>> reference(cfgs.size());
  reference[0] = core::run_attack_experiment(in->victim, in->aux, cfgs[0]).per_image_psnr;

  // Timed: whole cycles over the four configurations, at least one, and no
  // cycle that would end past the time budget.
  std::vector<double> call_ms;
  std::uint64_t compared = 0, mismatched = 0;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(args.seconds * 1e9);
  for (;;) {
    const std::uint64_t cycle_start = now_ns();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      auto psnr = core::run_attack_experiment(in->victim, in->aux, cfgs[i]).per_image_psnr;
      call_ms.push_back(ns_to_ms(now_ns() - t0));
      report.attempted(kBatchesPerCall);
      if (reference[i].empty()) {
        reference[i] = std::move(psnr);
      } else {
        ++compared;
        if (psnr != reference[i]) ++mismatched;
      }
    }
    const std::uint64_t now = now_ns();
    if (now - start + (now - cycle_start) > budget) break;
  }
  check_headline(reference, cfgs, report, e2e);
  report.check("repeated calls reproduce their configuration's PSNRs",
               mismatched == 0,
               std::to_string(mismatched) + " of " + std::to_string(compared) +
                   " repeated calls differ");
  // A round is one attacked batch: each call's time spread over its batches.
  for (const double m : call_ms) {
    e2e.busy_s += m / 1e3;
    e2e.round_ms.push_back(m / kBatchesPerCall);
  }
  e2e.updates = call_ms.size() * kBatchesPerCall;
  e2e.upload_bytes_per_update = static_cast<double>(host_upload_bytes(*in));
  e2e.accuracy_note = "not applicable: attack evaluation trains no classifier";
  emit_end_to_end(e2e, report);
}

void run_traced(const Args& args, Report& report) {
  const auto in = make_inputs(args.seed);
  const auto cfgs = configs(*in);
  const nn::ImageSpec spec = spec_of(*in);

  // Untraced baseline: whole run_attack_experiment calls.
  obs::set_kernel_metrics(false);
  obs::Registry::global().reset();
  std::vector<double> base_ms;
  std::vector<std::vector<real>> reference(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const std::uint64_t t0 = now_ns();
    reference[i] = core::run_attack_experiment(in->victim, in->aux, cfgs[i]).per_image_psnr;
    base_ms.push_back(ns_to_ms(now_ns() - t0) / kBatchesPerCall);
  }
  (void)report_obs_round_spans(report);

  // The same experiments from the public per-layer calls.
  obs::Registry::global().reset();
  obs::set_kernel_metrics(true);
  SpanLog log;
  std::vector<double> traced_ms;
  std::uint64_t round_id = 0;
  bool same = true;
  index_t batches = 0;
  fl::ClientUpdateMessage last_update;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto& cfg = cfgs[i];
    const std::uint64_t t0 = now_ns();
    const Scoped call(log, "bench.experiment." + label(cfg), -1, round_id);
    std::unique_ptr<attack::ActiveAttack> atk;
    log.time("attack.calibrate", call.id(), round_id, [&] {
      if (cfg.attack == core::AttackKind::kRtf) {
        atk = std::make_unique<attack::RtfAttack>(spec, cfg.neurons, in->aux);
      } else {
        atk = std::make_unique<attack::CahAttack>(
            spec, cfg.neurons, 1.0 / static_cast<real>(cfg.batch_size), in->aux,
            cfg.seed ^ 0xCA44);
      }
    });
    // Construction order matches run_attack_experiment: the shared model
    // rng draws the server's model first, then the victim's replica.
    common::Rng model_rng(cfg.seed ^ 0x5EED);
    const index_t n = cfg.neurons;
    const fl::ModelFactory factory = [spec, n, &model_rng] {
      return nn::make_attack_host(spec, n, kClasses, model_rng);
    };
    int parent = call.id();
    fl::MaliciousServer server(factory(), 1e-3, [&](nn::Sequential& model) {
      log.time("attack.implant", parent, round_id, [&] { atk->implant(model); });
    });
    TracedClient victim(0, in->victim, factory, cfg.batch_size,
                        core::make_preprocessor(cfg.transforms),
                        cfg.seed ^ 0xC11E, "nn.attack_host");
    std::vector<real> psnr;
    for (index_t b = 0; b < cfg.num_batches; ++b, ++round_id, ++batches) {
      const Scoped round(log, "bench.round", call.id(), round_id);
      parent = round.id();
      fl::GlobalModelMessage msg;
      log.time("fl.dispatch", parent, round_id, [&] {
        server.begin_round();
        msg = server.dispatch_to(0);
      });
      fl::ClientUpdateMessage update = victim.round(msg, log, parent, 0);
      log.time("fl.server.finish_round", parent, round_id, [&] {
        server.finish_round(std::span<const fl::ClientUpdateMessage>(&update, 1), 0);
      });
      std::vector<tensor::Tensor> candidates;
      log.time("attack.reconstruct", parent, round_id, [&] {
        candidates = atk->reconstruct(
            tensor::deserialize_tensors(server.captured().back().gradients));
      });
      std::vector<attack::ImageScore> scores;
      log.time("attack.best_match_psnr", parent, round_id, [&] {
        scores = attack::best_match_psnr(
            candidates, data::unstack_images(victim.last_raw_batch().images));
      });
      for (const auto& s : scores) psnr.push_back(s.best_psnr);
      last_update = std::move(update);
    }
    same = same && psnr == reference[i];
    traced_ms.push_back(ns_to_ms(now_ns() - t0) / kBatchesPerCall);
  }
  const std::uint64_t flops = obs_counter("kernel.gemm.flops");
  obs::set_kernel_metrics(false);
  report.check("traced experiments reproduce run_attack_experiment's PSNRs", same,
               std::to_string(cfgs.size()) + " configurations x " +
                   std::to_string(kBatchesPerCall) + " batches");
  report.attempted(batches);

  for (const char* span : {"attack.implant", "attack.reconstruct",
                           "attack.best_match_psnr", "nn.attack_host.fwd",
                           "nn.attack_host.bwd", "nn.loss", "fl.dispatch",
                           "fl.client.load_state", "fl.client.handle_round",
                           "tensor.serialize"}) {
    report_span_mean(log, span, report);
  }
  const std::uint64_t leaked = obs_counter("attack.rtf.bins_leaked");
  const std::uint64_t bins = obs_counter("attack.rtf.bins_total");
  report.metric("attack.rtf.bins_leaked_ratio",
                bins > 0 ? static_cast<double>(leaked) / static_cast<double>(bins) : 0.0,
                "ratio", std::to_string(leaked) + " leaked / " + std::to_string(bins) +
                             " bins (RTF, WO and MR)");
  const std::uint64_t valid = obs_counter("attack.recon.candidates_valid");
  const std::uint64_t dropped = obs_counter("attack.recon.candidates_dropped");
  report.metric("attack.recon.candidates_valid_ratio",
                valid + dropped > 0 ? static_cast<double>(valid) / static_cast<double>(valid + dropped) : 0.0,
                "ratio", std::to_string(valid) + " valid / " +
                             std::to_string(valid + dropped) + " candidates");
  report_flops_per_update(flops, batches, "attacked batches", report);
  report_overhead(traced_ms, base_ms, std::to_string(cfgs.size()) + " calls each, per batch", report);

  common::Rng rng(derive_seed(args.seed, 8));
  auto host = nn::make_attack_host(spec, kNeurons, kClasses, rng);
  const tensor::Shape batch_shape{kBatch * 4, spec.channels, spec.height, spec.width};
  probe_gemm(gemm_shapes(*host, batch_shape, {nn::kMaliciousDenseIndex}),
             derive_seed(args.seed, 9), report);
  probe_payload(last_update.gradients, false, report);
  std::vector<index_t> first(kBatch);
  for (index_t i = 0; i < kBatch; ++i) first[i] = i;
  probe_augment(*core::make_preprocessor({augment::TransformKind::kMajorRotation}),
                data::gather(in->victim, first), derive_seed(args.seed, 10), report);

  if (!args.trace_dir.empty()) {
    log.write_chrome_trace(args.trace_dir + "/attack_eval.trace.json");
  }
}

}  // namespace

void run_attack_eval(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_untraced(args, report);
  }
}

}  // namespace perfbench
