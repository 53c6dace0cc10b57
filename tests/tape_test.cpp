// GraphTape: replay reuse, truncation, and -- the load-bearing claim --
// bit-identical numerics between the tape path and the per-step heap
// graph for full model training (LM with BPTT, conv/batchnorm ResNet).
#include "autograd/tape.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "data/markov_text.hpp"
#include "data/synth_cifar.hpp"
#include "nn/language_model.hpp"
#include "nn/resnet.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/ops.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace nn = yf::nn;
namespace t = yf::tensor;

namespace {

ag::Variable leaf(std::vector<double> v, bool rg = true) {
  const auto n = static_cast<std::int64_t>(v.size());
  return ag::Variable(t::Tensor({n}, std::move(v)), rg);
}

}  // namespace

TEST(GraphTape, ReplaysCachedNodesWithStableBuffers) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({1, 2, 3});

  tape.begin_step();
  auto y1 = ag::sum(ag::mul(x, x));
  const double* value_addr = y1.value().data().data();
  const auto fresh_after_first = tape.fresh_nodes();
  EXPECT_EQ(fresh_after_first, 2);
  EXPECT_EQ(y1.value().item(), 14.0);

  x.value()[0] = 5.0;
  tape.begin_step();
  auto y2 = ag::sum(ag::mul(x, x));
  EXPECT_EQ(y2.value().item(), 25.0 + 4.0 + 9.0);
  // Same node, same buffer -- nothing was allocated fresh.
  EXPECT_EQ(y2.value().data().data(), value_addr);
  EXPECT_EQ(tape.fresh_nodes(), fresh_after_first);
  EXPECT_EQ(tape.replayed_nodes(), 2);
  EXPECT_EQ(y1.node().get(), y2.node().get());
}

TEST(GraphTape, BackwardMatchesHeapPathBitwise) {
  auto run = [](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({0.5, -1.25, 2.0});
    auto w = leaf({1.5, 0.25, -0.75});
    for (int step = 0; step < 3; ++step) {
      if (tape) tape->begin_step();
      x.zero_grad();
      w.zero_grad();
      auto h = ag::tanh(ag::mul(x, w));
      auto loss = ag::mean(ag::square(ag::add(h, w)));
      loss.backward();
    }
    return std::pair{x.grad().clone(), w.grad().clone()};
  };
  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(heap.first[i], taped.first[i]);
    EXPECT_EQ(heap.second[i], taped.second[i]);
  }
}

TEST(GraphTape, SharedParentAccumulationMatchesHeapPathBitwise) {
  // A wide fan-out onto one shared parent, with branch scales spread
  // across 16 orders of magnitude: the float rounding of x.grad depends
  // on the order the branches accumulate into it, so the replayed
  // traversal must visit them exactly as the heap path's does.
  auto run = [](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({0.1234567891234, -7.77e3, 3.3e-7});
    std::vector<double> grads;
    for (int step = 0; step < 3; ++step) {
      if (tape) tape->begin_step();
      x.zero_grad();
      auto acc = ag::mul_scalar(x, 1.0e8);
      for (int b = 1; b < 12; ++b) {
        const double scale = (b % 2 == 0 ? 1.0 : -1.0) * std::pow(10.0, 8 - 1.5 * b);
        acc = ag::add(acc, ag::tanh(ag::mul_scalar(x, scale)));
      }
      auto y = ag::sum(acc);
      y.backward();
      const auto g = x.grad().data();
      grads.insert(grads.end(), g.begin(), g.end());
    }
    return grads;
  };
  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  ASSERT_EQ(heap.size(), taped.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap[i], taped[i]) << "grad " << i;
  }
}

TEST(GraphTape, LeafGradsAccumulateAcrossBackwardsLikeHeapPath) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({2.0});
  tape.begin_step();
  auto y = ag::sum(ag::square(x));
  y.backward();
  y.backward();
  EXPECT_EQ(x.grad()[0], 8.0);  // 2 * d(x^2)/dx at 2
}

TEST(GraphTape, StructureChangeTruncatesAndRecovers) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({3.0});

  tape.begin_step();
  auto a = ag::sum(ag::add(x, x));
  a.backward();
  EXPECT_EQ(x.grad()[0], 2.0);

  // Different op at cursor 0: the cached tail is dropped and re-recorded.
  x.zero_grad();
  tape.begin_step();
  auto b = ag::sum(ag::mul(x, x));
  b.backward();
  EXPECT_EQ(b.value().item(), 9.0);
  EXPECT_EQ(x.grad()[0], 6.0);

  // Alternating structures stay correct and the workspace stops growing
  // once both variants have been seen.
  const auto cap = tape.workspace().capacity();
  for (int i = 0; i < 6; ++i) {
    x.zero_grad();
    tape.begin_step();
    if (i % 2 == 0) {
      ag::sum(ag::add(x, x)).backward();
      EXPECT_EQ(x.grad()[0], 2.0);
    } else {
      ag::sum(ag::mul(x, x)).backward();
      EXPECT_EQ(x.grad()[0], 6.0);
    }
  }
  EXPECT_EQ(tape.workspace().capacity(), cap);
}

TEST(GraphTape, StructureChangeMidRunMatchesHeapPathBitwise) {
  // Variant schedule: stable on A, one B step that diverges mid-graph
  // (square -> relu), back to A, then stable on B. Every truncation and
  // re-recording must leave the trace bit-identical to the heap path.
  const std::vector<int> schedule = {0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1};

  auto run = [&](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({2.0, -3.0, 0.25});
    std::vector<double> trace;
    for (const int variant : schedule) {
      if (tape) tape->begin_step();
      x.zero_grad();
      auto h = ag::tanh(ag::mul_scalar(x, 0.5));
      auto loss = variant == 0 ? ag::sum(ag::mul_scalar(ag::square(h), 2.0))
                               : ag::sum(ag::mul_scalar(ag::relu(h), 2.0));
      loss.backward();
      trace.push_back(loss.value().item());
      const auto g = x.grad().data();
      trace.insert(trace.end(), g.begin(), g.end());
    }
    return trace;
  };

  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  ASSERT_EQ(heap.size(), taped.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap[i], taped[i]) << "trace " << i;
  }
}

TEST(GraphTape, AttrChangeMidRunMatchesHeapPathBitwise) {
  // A mul_scalar whose attr changes mid-run: the replay mismatch truncates
  // at that node, and the re-recorded graph must use the new scalar.
  const std::vector<double> scales = {1.5, 1.5, 1.5, 1.5, -0.75, -0.75, -0.75, -0.75, -0.75};

  auto run = [&](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({0.5, -1.25, 2.0});
    std::vector<double> trace;
    for (const double s : scales) {
      if (tape) tape->begin_step();
      x.zero_grad();
      auto loss = ag::sum(ag::square(ag::tanh(ag::mul_scalar(x, s))));
      loss.backward();
      trace.push_back(loss.value().item());
      const auto g = x.grad().data();
      trace.insert(trace.end(), g.begin(), g.end());
    }
    return trace;
  };

  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  ASSERT_EQ(heap.size(), taped.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap[i], taped[i]) << "trace " << i;
  }
}

TEST(GraphTape, ZerosConstantStaysZeroAcrossSteps) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({1.0, 2.0});
  for (int step = 0; step < 3; ++step) {
    tape.begin_step();
    auto z = ag::zeros({2});
    EXPECT_FALSE(z.requires_grad());
    auto y = ag::sum(ag::add(x, z));
    y.backward();
    EXPECT_EQ(y.value().item(), 3.0);
    EXPECT_EQ(z.value()[0], 0.0);
    EXPECT_EQ(z.value()[1], 0.0);
    x.zero_grad();
  }
}

TEST(GraphTape, BackwardFromIntermediateNode) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({4.0});
  for (int step = 0; step < 2; ++step) {
    x.zero_grad();
    tape.begin_step();
    auto mid = ag::sum(ag::square(x));
    (void)ag::mul_scalar(mid, 10.0);  // recorded after mid, not backpropped
    mid.backward();
    EXPECT_EQ(x.grad()[0], 8.0);
  }
}

// -- Gradcheck on the tape path: every op battery re-verified while the
// -- graph is recorded (step 1) and replayed (every numeric probe).
namespace {

yf::autograd::GradcheckResult tape_gradcheck(
    const std::function<ag::Variable(const std::vector<ag::Variable>&)>& fn,
    std::vector<ag::Variable> inputs) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto stepped = [&tape, &fn](const std::vector<ag::Variable>& ins) {
    tape.begin_step();
    return fn(ins);
  };
  return ag::gradcheck(stepped, std::move(inputs));
}

}  // namespace

TEST(GraphTapeGradcheck, ElementwiseChain) {
  auto x = leaf({0.3, -0.7, 1.1, 0.0});
  auto y = leaf({0.9, 0.2, -0.4, 0.6});
  auto result = tape_gradcheck(
      [](const std::vector<ag::Variable>& in) {
        auto h = ag::sigmoid(ag::mul(in[0], in[1]));
        return ag::mean(ag::square(ag::sub(h, in[1])));
      },
      {x, y});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GraphTapeGradcheck, MatmulBiasSliceConcat) {
  t::Rng rng(3);
  auto a = ag::Variable(rng.normal_tensor({2, 3}), true);
  auto b = ag::Variable(rng.normal_tensor({3, 4}), true);
  auto bias = ag::Variable(rng.normal_tensor({4}), true);
  auto result = tape_gradcheck(
      [](const std::vector<ag::Variable>& in) {
        auto y = ag::add_row_broadcast(ag::matmul(in[0], in[1]), in[2]);
        auto left = ag::slice_cols(y, 0, 2);
        auto right = ag::slice_cols(y, 2, 4);
        auto joined = ag::concat_cols({right, left});
        return ag::mean(ag::mul(joined, joined));
      },
      {a, b, bias});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GraphTapeGradcheck, ReshapeTransposeSoftmaxXent) {
  t::Rng rng(4);
  auto logits = ag::Variable(rng.normal_tensor({3, 4}), true);
  const std::vector<std::int64_t> labels = {1, 3, 0};
  auto result = tape_gradcheck(
      [labels](const std::vector<ag::Variable>& in) {
        auto wide = ag::reshape(ag::transpose(in[0]), {3, 4});
        return ag::softmax_cross_entropy(wide, labels);
      },
      {logits});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GraphTapeGradcheck, EmbeddingLookup) {
  t::Rng rng(5);
  auto table = ag::Variable(rng.normal_tensor({5, 3}), true);
  const std::vector<std::int64_t> idx = {4, 0, 4, 2};
  auto result = tape_gradcheck(
      [idx](const std::vector<ag::Variable>& in) {
        return ag::mean(ag::square(ag::embedding(in[0], idx)));
      },
      {table});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GraphTapeGradcheck, ConvBatchNormPool) {
  t::Rng rng(6);
  auto x = ag::Variable(rng.normal_tensor({2, 2, 4, 4}), true);
  auto w = ag::Variable(rng.normal_tensor({3, 2, 3, 3}, 0.0, 0.5), true);
  auto b = ag::Variable(rng.normal_tensor({3}), true);
  auto gamma = ag::Variable(t::Tensor::ones({3}), true);
  auto beta = ag::Variable(t::Tensor::zeros({3}), true);
  auto result = tape_gradcheck(
      [](const std::vector<ag::Variable>& in) {
        auto y = ag::conv2d(in[0], in[1], in[2], 1, 1);
        y = ag::batch_norm2d(y, in[3], in[4]);
        y = ag::avg_pool2x2(ag::relu(y));
        return ag::mean(ag::square(ag::global_avg_pool(y)));
      },
      {x, w, b, gamma, beta});
  EXPECT_TRUE(result.ok) << result.detail;
}

// -- Whole-model identity: tape trajectory == heap trajectory, bitwise. ----

TEST(GraphTapeModels, LmTrainingTrajectoryIsBitIdenticalToHeapPath) {
  const std::int64_t batch = 4, seq_plus1 = 7, steps = 6;
  yf::data::MarkovTextConfig dcfg;
  dcfg.vocab = 12;
  dcfg.branching = 2;
  yf::data::MarkovText dataset(dcfg);
  t::Rng data_rng(11);
  std::vector<std::vector<std::int64_t>> batches;
  for (std::int64_t s = 0; s < steps; ++s) {
    batches.push_back(dataset.sample_batch(batch, seq_plus1, data_rng));
  }

  auto run = [&](ag::GraphTape* tape) {
    nn::LanguageModelConfig cfg;
    cfg.vocab = 12;
    cfg.embed_dim = 6;
    cfg.hidden = 8;
    cfg.layers = 2;
    t::Rng model_rng(1);
    nn::LSTMLanguageModel model(cfg, model_rng);
    yf::tuner::YellowFin opt(model.parameters());
    ag::TapeScope scope(tape);
    std::vector<double> losses;
    for (std::int64_t s = 0; s < steps; ++s) {
      if (tape) tape->begin_step();
      opt.zero_grad();
      auto loss = model.loss(batches[static_cast<std::size_t>(s)], batch, seq_plus1);
      loss.backward();
      opt.step();
      losses.push_back(loss.value().item());
    }
    auto final_params = yf::nn::flatten_values(opt.params());
    return std::pair{losses, final_params};
  };

  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  for (std::int64_t s = 0; s < steps; ++s) {
    EXPECT_EQ(heap.first[static_cast<std::size_t>(s)], taped.first[static_cast<std::size_t>(s)])
        << "loss diverged at step " << s;
  }
  ASSERT_EQ(heap.second.size(), taped.second.size());
  for (std::int64_t i = 0; i < heap.second.size(); ++i) {
    EXPECT_EQ(heap.second[i], taped.second[i]) << "parameter " << i;
  }
  // The whole run replayed from the warm-up recording.
  EXPECT_EQ(tape.steps(), steps);
  EXPECT_GT(tape.replayed_nodes(), 0);
}

TEST(GraphTapeModels, ResNetTrainingTrajectoryIsBitIdenticalToHeapPath) {
  const std::int64_t steps = 3;
  yf::data::SynthCifarConfig dcfg;
  dcfg.classes = 3;
  dcfg.height = 8;
  dcfg.width = 8;
  yf::data::SynthCifar dataset(dcfg);
  t::Rng data_rng(21);
  std::vector<yf::data::ImageBatch> batches;
  for (std::int64_t s = 0; s < steps; ++s) batches.push_back(dataset.sample(4, data_rng));

  auto run = [&](ag::GraphTape* tape) {
    nn::MiniResNetConfig cfg;
    cfg.base_channels = 4;
    cfg.blocks_per_stage = 1;
    cfg.num_classes = 3;
    cfg.with_batchnorm = true;
    t::Rng model_rng(2);
    nn::MiniResNet model(cfg, model_rng);
    yf::optim::MomentumSGD opt(model.parameters(), 0.05, 0.9);
    ag::TapeScope scope(tape);
    // One persistent input leaf: its buffer is refilled per step, the way
    // a zero-allocation input pipeline feeds the tape.
    ag::Variable images(batches[0].images.clone());
    std::vector<double> losses;
    for (std::int64_t s = 0; s < steps; ++s) {
      if (tape) tape->begin_step();
      const auto& b = batches[static_cast<std::size_t>(s)];
      t::copy_into(images.value(), b.images);
      opt.zero_grad();
      auto loss = ag::softmax_cross_entropy(model.forward(images), b.labels);
      loss.backward();
      opt.step();
      losses.push_back(loss.value().item());
    }
    return std::pair{losses, yf::nn::flatten_values(opt.params())};
  };

  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  for (std::int64_t s = 0; s < steps; ++s) {
    EXPECT_EQ(heap.first[static_cast<std::size_t>(s)], taped.first[static_cast<std::size_t>(s)]);
  }
  for (std::int64_t i = 0; i < heap.second.size(); ++i) {
    EXPECT_EQ(heap.second[i], taped.second[i]) << "parameter " << i;
  }
}
