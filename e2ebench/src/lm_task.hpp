// The word-level LSTM language model shared by lm_sync and lm_serve: the
// Table 2 PTB-sub shapes on a ZipfText corpus.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "autograd/variable.hpp"
#include "data/zipf_text.hpp"
#include "nn/language_model.hpp"
#include "tensor/random.hpp"
#include "trace.hpp"
#include "tuner/yellowfin.hpp"

namespace e2e {

inline constexpr std::int64_t kLmBatch = 6;
inline constexpr std::int64_t kLmWindow = 12;  ///< tokens per training row (plus one target)
inline constexpr std::int64_t kLmSteps = 600;  ///< updates per episode
/// Smoothing window and target of the loss race: the target sits on the
/// steep part of the curve, about two thirds of the way down from the
/// initial ~4.4 nats towards the ~2.4 the model reaches in 1500 steps.
inline constexpr std::int64_t kLmSmooth = 50;
inline constexpr double kLmTarget = 2.65;

inline yf::nn::LanguageModelConfig lm_config() {
  yf::nn::LanguageModelConfig cfg;
  cfg.vocab = 80;
  cfg.embed_dim = 16;
  cfg.hidden = 16;
  cfg.layers = 2;
  return cfg;
}

struct LmTask {
  /// The corpus' language is fixed, so the loss floor (and with it the
  /// target) is the same for every seed; the seed picks the model init
  /// and the minibatch stream.
  explicit LmTask(std::uint64_t seed)
      : text([] {
          yf::data::ZipfTextConfig cfg;
          cfg.vocab = 80;
          cfg.seed = 17;
          return cfg;
        }()),
        init_rng(seed),
        model(lm_config(), init_rng),
        rng(seed + 2000) {}

  yf::data::ZipfText text;
  yf::tensor::Rng init_rng;
  yf::nn::LSTMLanguageModel model;
  yf::tensor::Rng rng;

  /// The benchmark's gradient function: sample, forward, backward; each
  /// call into a layer is one span when `tracer` is set.
  double grad(Tracer* tracer) {
    std::vector<std::int64_t> tokens;
    {
      Scope s(tracer, "data.sample");
      tokens = text.sample_batch(kLmBatch, kLmWindow + 1, rng);
    }
    yf::autograd::Variable loss;
    {
      Scope s(tracer, "nn.forward");
      loss = model.loss(tokens, kLmBatch, kLmWindow + 1);
    }
    {
      Scope s(tracer, "autograd.backward");
      loss.backward();
    }
    return loss.value().item();
  }

  /// One forward/backward on a batch outside the training stream, then
  /// zeroed gradients: warms allocator and caches without moving the
  /// trajectory.
  void warm_up(yf::optim::Optimizer& opt) {
    yf::tensor::Rng warm_rng(0xC0FFEE);
    const auto tokens = text.sample_batch(kLmBatch, kLmWindow + 1, warm_rng);
    model.loss(tokens, kLmBatch, kLmWindow + 1).backward();
    opt.zero_grad();
  }
};

/// One update exactly as train::train takes it (zero_grad, gradient,
/// Optimizer::step), with step() written out as its three stages so the
/// tuner's measurement and the optimizer's sweep are timed apart. Returns
/// the minibatch loss; a non-finite loss skips the update like the
/// trainer's divergence guard.
inline double lm_manual_step(LmTask& task, yf::tuner::YellowFin& opt, Tracer* tracer,
                             std::int64_t& clipped) {
  opt.zero_grad();
  const double loss = task.grad(tracer);
  if (!std::isfinite(loss)) return loss;
  yf::optim::ApplyPlan plan;
  {
    Scope s(tracer, "tuner.measure");
    plan = opt.begin_apply(opt.arena().grads());
  }
  {
    Scope s(tracer, "optim.sweep");
    opt.step_span(plan, 0, opt.arena().size());
    opt.end_apply(plan);
  }
  clipped += opt.last_step_clipped() ? 1 : 0;
  return loss;
}

}  // namespace e2e
