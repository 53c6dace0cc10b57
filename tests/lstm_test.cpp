#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"

namespace ag = yf::autograd;
namespace nn = yf::nn;
namespace t = yf::tensor;

namespace {

/// Hand-rolled scalar LSTM cell reference (batch 1, hidden 1, input 1).
struct ScalarLstmRef {
  // Weight layout mirrors LSTMCell: [i, f, g, o] gates.
  double wxi, wxf, wxg, wxo;
  double whi, whf, whg, who;
  double bi, bf, bg, bo;
  std::pair<double, double> step(double x, double h, double c) const {
    auto sig = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
    const double i = sig(wxi * x + whi * h + bi);
    const double f = sig(wxf * x + whf * h + bf);
    const double g = std::tanh(wxg * x + whg * h + bg);
    const double o = sig(wxo * x + who * h + bo);
    const double c_next = f * c + i * g;
    const double h_next = o * std::tanh(c_next);
    return {h_next, c_next};
  }
};

/// The cell as it was built before the fused op: 17 elementwise autograd
/// nodes (2 matmuls, 2 adds, 4 column slices, 4 activations, 5 ops for
/// the c/h update). Reference for autograd::lstm_cell.
nn::LSTMState composed_step(const nn::LSTMCell& cell, const ag::Variable& x,
                            const nn::LSTMState& prev) {
  const auto hid = cell.hidden_size();
  auto z = ag::add(ag::matmul(x, cell.w_x), ag::matmul(prev.h, cell.w_h));
  z = ag::add_row_broadcast(z, cell.b);
  auto i = ag::sigmoid(ag::slice_cols(z, 0, hid));
  auto f = ag::sigmoid(ag::slice_cols(z, hid, 2 * hid));
  auto g = ag::tanh(ag::slice_cols(z, 2 * hid, 3 * hid));
  auto o = ag::sigmoid(ag::slice_cols(z, 3 * hid, 4 * hid));
  nn::LSTMState next;
  next.c = ag::add(ag::mul(f, prev.c), ag::mul(i, g));
  next.h = ag::mul(o, ag::tanh(next.c));
  return next;
}

/// |a - b| <= rel * max(|a|, |b|) for every element.
void expect_rel_close(const t::Tensor& a, const t::Tensor& b, double rel, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t k = 0; k < a.size(); ++k) {
    EXPECT_LE(std::abs(a[k] - b[k]), rel * std::max(std::abs(a[k]), std::abs(b[k])))
        << what << " at " << k << ": " << a[k] << " vs " << b[k];
  }
}

}  // namespace

TEST(LstmCell, ForgetBiasInitializedToOne) {
  t::Rng rng(1);
  nn::LSTMCell cell(3, 4, rng);
  for (std::int64_t j = 0; j < 4; ++j) EXPECT_EQ(cell.b.value()[j], 0.0);        // input gate
  for (std::int64_t j = 4; j < 8; ++j) EXPECT_EQ(cell.b.value()[j], 1.0);        // forget gate
  for (std::int64_t j = 8; j < 16; ++j) EXPECT_EQ(cell.b.value()[j], 0.0);       // cell, output
}

TEST(LstmCell, MatchesScalarReference) {
  t::Rng rng(2);
  nn::LSTMCell cell(1, 1, rng);
  // Copy the random weights into the reference implementation.
  ScalarLstmRef ref;
  ref.wxi = cell.w_x.value()[0];
  ref.wxf = cell.w_x.value()[1];
  ref.wxg = cell.w_x.value()[2];
  ref.wxo = cell.w_x.value()[3];
  ref.whi = cell.w_h.value()[0];
  ref.whf = cell.w_h.value()[1];
  ref.whg = cell.w_h.value()[2];
  ref.who = cell.w_h.value()[3];
  ref.bi = cell.b.value()[0];
  ref.bf = cell.b.value()[1];
  ref.bg = cell.b.value()[2];
  ref.bo = cell.b.value()[3];

  double h = 0.0, c = 0.0;
  auto state = cell.zero_state(1);
  for (double x : {0.3, -0.7, 1.2}) {
    auto xt = ag::Variable(t::Tensor({1, 1}, {x}));
    state = cell.forward(xt, state);
    std::tie(h, c) = ref.step(x, h, c);
    EXPECT_NEAR(state.h.value().item(), h, 1e-12);
    EXPECT_NEAR(state.c.value().item(), c, 1e-12);
  }
}

TEST(LstmCell, StateShapes) {
  t::Rng rng(3);
  nn::LSTMCell cell(5, 7, rng);
  auto st = cell.zero_state(4);
  EXPECT_EQ(st.h.value().shape(), (t::Shape{4, 7}));
  auto x = ag::Variable(rng.normal_tensor({4, 5}));
  auto next = cell.forward(x, st);
  EXPECT_EQ(next.h.value().shape(), (t::Shape{4, 7}));
  EXPECT_EQ(next.c.value().shape(), (t::Shape{4, 7}));
}

TEST(Lstm, StackOutputsOnePerStep) {
  t::Rng rng(4);
  nn::LSTM lstm(3, 6, 2, rng);
  std::vector<ag::Variable> steps;
  for (int i = 0; i < 5; ++i) steps.push_back(ag::Variable(rng.normal_tensor({2, 3})));
  auto outs = lstm.forward(steps, nullptr);
  ASSERT_EQ(outs.size(), 5u);
  for (const auto& o : outs) EXPECT_EQ(o.value().shape(), (t::Shape{2, 6}));
}

TEST(Lstm, StatesCarryAcrossCalls) {
  t::Rng rng(5);
  nn::LSTM lstm(2, 4, 1, rng);
  auto x0 = ag::Variable(rng.normal_tensor({1, 2}));
  auto x1 = ag::Variable(rng.normal_tensor({1, 2}));

  // One two-step call must equal two one-step calls with threaded state.
  auto joint = lstm.forward({x0, x1}, nullptr);
  auto states = lstm.zero_states(1);
  lstm.forward({x0}, &states);
  auto split = lstm.forward({x1}, &states);
  EXPECT_TRUE(t::allclose(joint[1].value(), split[0].value(), 1e-12, 1e-12));
}

TEST(Lstm, GradcheckThroughTwoSteps) {
  t::Rng rng(6);
  nn::LSTMCell cell(2, 2, rng);
  auto x0 = ag::Variable(rng.normal_tensor({1, 2}), true);
  auto x1 = ag::Variable(rng.normal_tensor({1, 2}), true);
  std::vector<ag::Variable> inputs = {x0, x1, cell.w_x, cell.w_h, cell.b};
  auto fn = [&cell](const std::vector<ag::Variable>& in) {
    auto st = cell.zero_state(1);
    st = cell.forward(in[0], st);
    st = cell.forward(in[1], st);
    return ag::mean(ag::square(st.h));
  };
  const auto result = ag::gradcheck(fn, inputs, 1e-5, 1e-6, 1e-3);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Lstm, BpttGradientsReachEarlySteps) {
  t::Rng rng(7);
  nn::LSTM lstm(2, 4, 1, rng);
  auto x0 = ag::Variable(rng.normal_tensor({1, 2}), true);
  std::vector<ag::Variable> steps = {x0};
  for (int i = 0; i < 7; ++i) steps.push_back(ag::Variable(rng.normal_tensor({1, 2})));
  auto outs = lstm.forward(steps, nullptr);
  ag::mean(ag::square(outs.back())).backward();
  double gnorm = 0.0;
  for (double g : x0.grad().data()) gnorm += g * g;
  EXPECT_GT(gnorm, 0.0) << "gradient should flow back through 8 unrolled steps";
}

TEST(Lstm, InitScaleScalesWeights) {
  t::Rng rng_a(8);
  t::Rng rng_b(8);
  nn::LSTMCell small(3, 3, rng_a, 1.0);
  nn::LSTMCell big(3, 3, rng_b, 3.0);
  double n_small = 0.0, n_big = 0.0;
  for (double v : small.w_h.value().data()) n_small += v * v;
  for (double v : big.w_h.value().data()) n_big += v * v;
  EXPECT_NEAR(n_big / n_small, 9.0, 1e-9);
}

TEST(LstmCell, FusedCellMatchesComposedCell) {
  // Three steps through two stacked cells, batch 3: forward values must be
  // bit-identical to the composed cell, and every gradient (inputs and
  // parameters) within 1e-12 relative of it.
  t::Rng rng(9);
  nn::LSTMCell lower(4, 5, rng);
  nn::LSTMCell upper(5, 5, rng);
  const std::int64_t batch = 3, steps = 3;
  std::vector<ag::Variable> xs;
  for (std::int64_t s = 0; s < steps; ++s) {
    xs.push_back(ag::Variable(rng.normal_tensor({batch, 4}), true));
  }
  const auto probe = ag::Variable(rng.normal_tensor({batch, 5}));

  struct Run {
    std::vector<t::Tensor> h, c, grads;
  };
  auto run = [&](bool fused) {
    Run r;
    for (auto& x : xs) x.zero_grad();
    std::vector<ag::Variable> params;
    for (const auto* cell : {&lower, &upper}) {
      for (auto p : {cell->w_x, cell->w_h, cell->b}) {
        p.zero_grad();
        params.push_back(p);
      }
    }
    auto step = [fused](const nn::LSTMCell& cell, const ag::Variable& x,
                        const nn::LSTMState& prev) {
      return fused ? cell.forward(x, prev) : composed_step(cell, x, prev);
    };
    auto s0 = lower.zero_state(batch);
    auto s1 = upper.zero_state(batch);
    ag::Variable loss;
    for (const auto& x : xs) {
      s0 = step(lower, x, s0);
      s1 = step(upper, s0.h, s1);
      r.h.push_back(s1.h.value().clone());
      r.c.push_back(s1.c.value().clone());
      // Read both h and c of every step so dh and dc both carry
      // gradient from outside the recurrence.
      auto term = ag::add(ag::sum(ag::mul(s1.h, probe)), ag::mean(ag::square(s1.c)));
      loss = loss.defined() ? ag::add(loss, term) : term;
    }
    loss.backward();
    for (const auto& x : xs) r.grads.push_back(x.grad().clone());
    for (const auto& p : params) r.grads.push_back(p.grad().clone());
    return r;
  };

  const Run fused = run(true);
  const Run composed = run(false);
  for (std::int64_t s = 0; s < steps; ++s) {
    for (std::int64_t k = 0; k < fused.h[s].size(); ++k) {
      EXPECT_EQ(fused.h[s][k], composed.h[s][k]) << "h, step " << s << ", element " << k;
      EXPECT_EQ(fused.c[s][k], composed.c[s][k]) << "c, step " << s << ", element " << k;
    }
  }
  ASSERT_EQ(fused.grads.size(), composed.grads.size());
  for (std::size_t k = 0; k < fused.grads.size(); ++k) {
    ASSERT_GT(fused.grads[k].size(), 0) << "gradient " << k << " never materialized";
    expect_rel_close(fused.grads[k], composed.grads[k], 1e-12, "gradient");
  }
}
