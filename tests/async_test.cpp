#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "async/async_simulator.hpp"
#include "async/staleness_queue.hpp"
#include "async/total_momentum.hpp"
#include "optim/momentum_sgd.hpp"
#include "sim/noisy_quadratic.hpp"

namespace async = yf::async;
namespace ag = yf::autograd;
namespace t = yf::tensor;

TEST(StalenessQueue, ZeroStalenessIsPassThrough) {
  async::StalenessQueue<int> q(0);
  EXPECT_EQ(q.push(7).value(), 7);
  EXPECT_EQ(q.push(8).value(), 8);
}

TEST(StalenessQueue, DelaysByExactlyTau) {
  async::StalenessQueue<int> q(3);
  EXPECT_FALSE(q.push(0).has_value());
  EXPECT_FALSE(q.push(1).has_value());
  EXPECT_FALSE(q.push(2).has_value());
  EXPECT_EQ(q.push(3).value(), 0);  // value pushed 3 steps ago
  EXPECT_EQ(q.push(4).value(), 1);
  EXPECT_EQ(q.pending(), 3u);
}

TEST(StalenessQueue, RejectsNegativeStaleness) {
  EXPECT_THROW(async::StalenessQueue<int>(-1), std::invalid_argument);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(async::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(async::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(async::median({5.0}), 5.0);
  EXPECT_THROW(async::median({}), std::invalid_argument);
}

TEST(TotalMomentum, NoEstimateUntilHistoryFills) {
  async::TotalMomentumEstimator est(2);
  const t::Tensor x({2}, {1.0, 2.0});
  const t::Tensor g({2}, {0.1, 0.1});
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(est.estimate().has_value());
    est.record(x, g, 0.1);
  }
  // tau + 3 = 5 records needed.
  est.record(x, g, 0.1);
  // All-identical iterates: denominators are 0 -> still no estimate.
  EXPECT_FALSE(est.estimate().has_value());
}

TEST(TotalMomentum, RecoversAlgorithmicMomentumSynchronously) {
  // Run exact momentum GD on a quadratic; with tau = 0 the estimator must
  // read back exactly the algorithmic momentum.
  const double mu = 0.6, alpha = 0.05, h = 1.3;
  async::TotalMomentumEstimator est(0);
  t::Tensor x({3}, {1.0, -2.0, 0.7});
  t::Tensor x_prev = x.clone();
  for (int step = 0; step < 10; ++step) {
    t::Tensor g({3});
    for (int j = 0; j < 3; ++j) g[j] = h * x[j];
    est.record(x, g, alpha);
    t::Tensor x_next = x.clone();
    for (int j = 0; j < 3; ++j) x_next[j] = x[j] - alpha * g[j] + mu * (x[j] - x_prev[j]);
    x_prev = x;
    x = x_next;
    if (auto e = est.estimate()) {
      EXPECT_NEAR(*e, mu, 1e-9) << "step " << step;
    }
  }
  EXPECT_TRUE(est.estimate().has_value());
}

TEST(TotalMomentum, SmoothedTracksEstimates) {
  async::TotalMomentumEstimator est(0);
  t::Tensor x({2}, {1.0, 1.0});
  t::Tensor x_prev = x.clone();
  const double mu = 0.4, alpha = 0.1;
  for (int step = 0; step < 30; ++step) {
    t::Tensor g({2});
    for (int j = 0; j < 2; ++j) g[j] = x[j];
    est.record(x, g, alpha);
    t::Tensor x_next = x.clone();
    for (int j = 0; j < 2; ++j) x_next[j] = x[j] - alpha * g[j] + mu * (x[j] - x_prev[j]);
    x_prev = x;
    x = x_next;
    est.smoothed(0.5);
  }
  EXPECT_NEAR(est.smoothed(0.5), mu, 1e-6);
}

namespace {

/// Quadratic bowl task on a Variable parameter, for AsyncTrainer tests.
struct BowlTask {
  ag::Variable x;
  double h;
  double noise;
  t::Rng rng{31};
  BowlTask(std::int64_t dim, double curvature, double noise_std)
      : x(t::Tensor({dim}), true), h(curvature), noise(noise_std) {
    x.value().fill(3.0);
  }
  double grad() {
    auto& g = x.node()->ensure_grad();
    double loss = 0.0;
    for (std::int64_t j = 0; j < g.size(); ++j) {
      loss += 0.5 * h * x.value()[j] * x.value()[j];
      g[j] = h * x.value()[j] + noise * rng.normal();
    }
    return loss;
  }
};

}  // namespace

TEST(AsyncTrainer, RequiresOptimizer) {
  EXPECT_THROW(async::AsyncTrainer(nullptr, [] { return 0.0; }, {}), std::invalid_argument);
}

TEST(AsyncTrainer, ClosedLoopRequiresYellowFin) {
  BowlTask task(2, 1.0, 0.0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(
      std::vector<ag::Variable>{task.x}, 0.01, 0.9);
  async::AsyncTrainerOptions opts;
  opts.closed_loop = true;
  EXPECT_THROW(async::AsyncTrainer(opt, [&] { return task.grad(); }, opts),
               std::invalid_argument);
}

TEST(AsyncTrainer, PipelineFillsBeforeUpdating) {
  BowlTask task(2, 1.0, 0.0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(
      std::vector<ag::Variable>{task.x}, 0.01, 0.0);
  async::AsyncTrainerOptions opts;
  opts.staleness = 4;
  async::AsyncTrainer trainer(opt, [&] { return task.grad(); }, opts);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(trainer.step().applied_update);
    EXPECT_EQ(task.x.value()[0], 3.0);  // untouched while filling
  }
  EXPECT_TRUE(trainer.step().applied_update);
  EXPECT_NE(task.x.value()[0], 3.0);
}

TEST(AsyncTrainer, StaleGradientIsApplied) {
  // With staleness 1 and a deterministic gradient, the first applied
  // update must use the gradient from the *initial* iterate.
  BowlTask task(1, 2.0, 0.0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(
      std::vector<ag::Variable>{task.x}, 0.1, 0.0);
  async::AsyncTrainerOptions opts;
  opts.staleness = 1;
  async::AsyncTrainer trainer(opt, [&] { return task.grad(); }, opts);
  trainer.step();  // queue fill: grad at x = 3 -> g = 6
  trainer.step();  // applies g = 6: x = 3 - 0.1*6 = 2.4
  EXPECT_NEAR(task.x.value()[0], 2.4, 1e-12);
  trainer.step();  // applies grad computed at x = 3 again? no: at 3 (2nd fill step) -> 2.4 - 0.6
  EXPECT_NEAR(task.x.value()[0], 1.8, 1e-12);
}

TEST(AsyncTrainer, MeasuresAsynchronyInducedMomentum) {
  // Momentum SGD with mu = 0 under staleness: measured total momentum must
  // be significantly above 0 (asynchrony begets momentum).
  BowlTask task(30, 1.0, 0.01);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(
      std::vector<ag::Variable>{task.x}, 0.05, 0.0);
  async::AsyncTrainerOptions opts;
  opts.staleness = 8;
  async::AsyncTrainer trainer(opt, [&] { return task.grad(); }, opts);
  // Individual mu_hat_T estimates are noisy (the red dots of Fig. 4); the
  // paper reads the running average, so test the mean over many steps.
  double sum = 0.0;
  int estimates = 0;
  for (int i = 0; i < 500; ++i) {
    const auto stats = trainer.step();
    if (stats.mu_hat_total && i > 100) {
      sum += *stats.mu_hat_total;
      ++estimates;
    }
  }
  ASSERT_GT(estimates, 100);
  EXPECT_GT(sum / estimates, 0.05);
}
