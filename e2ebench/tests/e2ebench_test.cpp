// Unit tests of the benchmark's own arithmetic: the host correction, the
// percentile rule, span self time, the smoothed-loss target crossing, the
// open-loop due-time accounting and the thread budget.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "mapped.hpp"
#include "metrics.hpp"
#include "probe.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using e2e::OpenLoopRecord;
using e2e::Span;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

// -- Host correction ----------------------------------------------------------

TEST(HostCorrection, ScalesTimesAndRatesByReferenceOverMedianProbe) {
  // Median of {10, 12, 30, 11, 50} us is 12 us: this host runs at 10/12 of
  // the reference speed, so its times shrink and its rates grow.
  const auto c = e2e::host_correction({10'000, 12'000, 30'000, 11'000, 50'000}, 10'000.0);
  EXPECT_EQ(c.median_probe_ns, 12'000.0);
  EXPECT_DOUBLE_EQ(c.factor, 10.0 / 12.0);
  EXPECT_DOUBLE_EQ(c.time(1.2), 1.0);
  EXPECT_DOUBLE_EQ(c.rate(100.0), 120.0);
  // Nearest-rank median of an even sample is the lower middle value.
  EXPECT_EQ(e2e::host_correction({4, 1, 3, 2}, 1.0).median_probe_ns, 2.0);
  EXPECT_THROW(e2e::host_correction({}, 1.0), std::invalid_argument);
  EXPECT_THROW(e2e::host_correction({1}, 0.0), std::invalid_argument);
}

TEST(HostCorrection, EachEpisodeIsScaledByItsOwnProbes) {
  // finish_episode takes its correction from the episode's probe samples.
  const auto t = e2e::finish_episode(0.5, 0, {1'000'000'000}, {3.0}, 1, 1, 1.0,
                                     std::vector<std::int64_t>{28'000, 20'000, 30'000});
  EXPECT_EQ(t.host.median_probe_ns, 28'000.0);
  EXPECT_DOUBLE_EQ(t.host.factor, e2e::kReferenceProbeNs / 28'000.0);

  // Three episodes, 100 updates each: on a host at half, full and double
  // the reference speed they run at 100, 220 and 400 updates/s. Corrected
  // one by one they read 200, 220 and 200; the median is 200, where the
  // median raw rate (220) scaled by the median probe (reference) is 220.
  auto episode = [](double train_s, double probe_ns) {
    e2e::EpisodeTiming e;
    e.setup_s = 0.01;
    e.train_s = train_s;
    e.updates = 100;
    e.iters_to_target = 50;
    e.time_to_target_s = train_s / 2;
    e.final_loss = 1.0;
    e.host = e2e::host_correction({static_cast<std::int64_t>(probe_ns)});
    return e;
  };
  const double ref = e2e::kReferenceProbeNs;
  const std::vector<e2e::EpisodeTiming> episodes = {
      episode(1.0, 2 * ref), episode(100.0 / 220.0, ref), episode(0.25, ref / 2)};
  e2e::Report report;
  report.probe_ns.assign({static_cast<std::int64_t>(ref)});
  const std::vector<double> raw = {1.0, 2.0, 3.0}, corrected = {0.5, 2.0, 6.0};
  e2e::report_e2e(report, episodes, raw, corrected, "op");
  auto metric = [&](const std::string& name) {
    for (const auto& m : report.e2e) {
      if (m.name == name) return m;
    }
    ADD_FAILURE() << "no metric " << name;
    return e2e::Metric{};
  };
  EXPECT_DOUBLE_EQ(metric("train_steps_per_s").value, 200.0);
  EXPECT_DOUBLE_EQ(*metric("train_steps_per_s").raw, 220.0);
  EXPECT_DOUBLE_EQ(metric("setup_s").value, 0.01);  // 0.005, 0.01 and 0.02
  EXPECT_DOUBLE_EQ(metric("time_to_target_s").value, 0.25);  // 0.25, 0.227.. and 0.25
  EXPECT_DOUBLE_EQ(metric("op_p50_ms").value, 2.0);
  EXPECT_DOUBLE_EQ(*metric("op_p50_ms").raw, 2.0);
  EXPECT_TRUE(report.failures.empty());
}

TEST(HostCorrection, ProbeSampleIsTwiceTheHalvesGeometricMean) {
  EXPECT_EQ(e2e::probe_sample_ns(7000, 7000), 14'000);
  EXPECT_EQ(e2e::probe_sample_ns(4000, 9000), 12'000);
  // One half 1.5x faster and the other 1.5x slower: the host reads as
  // unchanged, where the sum of the halves (4000 + 10500 against 6000 +
  // 7000) would read it 12% slower.
  EXPECT_EQ(e2e::probe_sample_ns(6000 / 1.5, 7000 * 1.5), e2e::probe_sample_ns(6000, 7000));
}

TEST(HostCorrection, ProbeTimeIsLeftOutOfTheClock) {
  e2e::ProbeClock clock;
  e2e::Prober prober(&clock);
  const std::int64_t wall0 = e2e::now_ns();
  const std::int64_t t0 = clock.now();
  prober.run();
  prober.run();
  const std::int64_t t1 = clock.now();
  const std::int64_t wall1 = e2e::now_ns();
  ASSERT_EQ(prober.samples_ns().size(), 2u);
  EXPECT_GT(prober.total_ns(), 0);
  EXPECT_EQ(clock.excluded_ns(), prober.total_ns());
  // The clock advanced by the wall interval minus both probes.
  EXPECT_LE(t1 - t0, (wall1 - wall0) - prober.total_ns());
  EXPECT_GE(t1 - t0, 0);
}

TEST(HostCorrection, SharedClockSplitsAProbeAmongItsThreads) {
  e2e::ProbeClock clock(2);
  clock.exclude(1000);
  EXPECT_EQ(clock.excluded_ns(), 500);
  clock.exclude(1000);
  EXPECT_EQ(clock.excluded_ns(), 1000);
}

TEST(HostCorrection, ProbeRunsAtMostOncePerHundredProbeLengths) {
  e2e::Prober prober;
  EXPECT_TRUE(prober.maybe_run());  // the first is always due
  EXPECT_FALSE(prober.maybe_run());  // 100 probe lengths have not passed
  EXPECT_EQ(prober.samples_ns().size(), 1u);
  EXPECT_EQ(e2e::probe_chains(), e2e::probe_chains());  // fixed work
  EXPECT_EQ(e2e::probe_walk(), e2e::probe_walk());
}

// -- Percentile rule ----------------------------------------------------------

TEST(PercentileRule, NearestRankQuantiles) {
  const auto v = one_to(100);
  EXPECT_EQ(e2e::quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(e2e::quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(e2e::quantile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(e2e::quantile_sorted({7.0}, 0.99), 7.0);
}

TEST(PercentileRule, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(e2e::samples_beyond(1000, 0.99), 10);
  EXPECT_EQ(e2e::samples_beyond(999, 0.99), 9);
  EXPECT_EQ(e2e::tail_level(1000), 0.99);
  EXPECT_EQ(e2e::tail_level(999), 0.9);
  EXPECT_EQ(e2e::tail_level(10000), 0.999);
  EXPECT_EQ(e2e::tail_level(100000), 0.9999);
  EXPECT_EQ(e2e::tail_level(20), 0.5);
  EXPECT_EQ(e2e::tail_level(19), 0.0);
}

TEST(PercentileRule, SummaryReportsCountAndTail) {
  auto v = one_to(1000);
  std::swap(v[0], v[999]);  // order must not matter
  const auto s = e2e::summarize(v);
  EXPECT_EQ(s.n, 1000);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.max, 1000.0);
  EXPECT_EQ(e2e::summarize({}).n, 0);
}

// -- Run-wide storage ---------------------------------------------------------

TEST(MappedVector, GrowsPastMallocsMmapThresholdWithoutMalloc) {
  // 512 KiB, reallocated on the way: a std::vector would hold an mmapped
  // malloc block here and would have freed smaller ones.
  const struct mallinfo2 before = mallinfo2();
  e2e::MappedVector<double> v;
  for (int i = 0; i < (1 << 16); ++i) v.push_back(i);
  const struct mallinfo2 during = mallinfo2();
  EXPECT_EQ(during.hblks, before.hblks);
  EXPECT_EQ(during.hblkhd, before.hblkhd);
  EXPECT_EQ(during.uordblks, before.uordblks);
  EXPECT_EQ(v[12345], 12345.0);
}

// -- Self time ----------------------------------------------------------------

Span span(std::int64_t start, std::int64_t end, std::int32_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsMergedClippedChildren) {
  // Children overlap ([10,30] and [20,50] cover 40 together) and one runs
  // past its parent ([90,120] counts only up to 100): 100 - 40 - 10 = 50.
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0), span(20, 50, 0),
                                   span(90, 120, 0)};
  const auto self = e2e::self_times_ns(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
}

TEST(SelfTime, GrandchildrenCountOnlyAgainstTheirParent) {
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 60, 0), span(20, 40, 1)};
  const auto self = e2e::self_times_ns(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);
}

TEST(SelfTime, TracerNestsAndSharesIds) {
  e2e::Tracer tracer(16);
  {
    e2e::Scope step(&tracer, "train.step");
    e2e::Scope fwd(&tracer, "nn.forward");
  }
  { e2e::Scope req(&tracer, "serve.request"); }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(std::string(spans[1].name), "nn.forward");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].id, spans[0].id);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_NE(spans[2].id, spans[0].id);
  const auto self = e2e::self_times_ns(spans);
  EXPECT_EQ(self[0], (spans[0].end_ns - spans[0].start_ns) - (spans[1].end_ns - spans[1].start_ns));

  e2e::MappedVector<Span> all = spans;
  e2e::append_spans(all, spans);
  EXPECT_EQ(all[4].parent, 3);  // re-indexed into the merged list
}

TEST(SelfTime, ClosingOutOfOrderThrows) {
  e2e::Tracer tracer(4);
  const auto outer = tracer.begin("a");
  const auto inner = tracer.begin("b");
  EXPECT_THROW(tracer.end(outer), std::logic_error);
  tracer.end(inner);
  tracer.end(outer);
}

// -- Target crossing ----------------------------------------------------------

TEST(TargetCrossing, CountsUpdatesOfTheFirstFullWindowAtOrBelowTarget) {
  const std::vector<double> losses = {5, 4, 3, 2, 1, 1};
  // Full-window means (window 2): 4.5 after 2 updates, 3.5, 2.5, 1.5, 1.0.
  EXPECT_EQ(e2e::updates_to_target(losses, 2, 2.5), 4);
  EXPECT_EQ(e2e::updates_to_target(losses, 2, 4.5), 2);
  EXPECT_EQ(e2e::updates_to_target(losses, 1, 3.0), 3);
  EXPECT_FALSE(e2e::updates_to_target(losses, 2, 0.5).has_value());
}

TEST(TargetCrossing, PartialWindowsDoNotCount) {
  // A lucky first minibatch is below target, but no full window is.
  EXPECT_FALSE(e2e::updates_to_target({0.1, 5, 5, 5}, 3, 1.0).has_value());
  EXPECT_FALSE(e2e::updates_to_target({0.1, 0.1}, 3, 1.0).has_value());
}

TEST(TargetCrossing, RaceRunsPastTheFixedLengthButRateAndFinalLossDoNot) {
  // Two fixed updates, one second apart, then two race updates; the
  // window-1 target 1.0 is first reached by the fourth update.
  const std::vector<std::int64_t> end_ns = {1'000'000'000, 2'000'000'000, 3'000'000'000,
                                            4'000'000'000};
  const std::vector<double> losses = {3.0, 2.0, 1.5, 1.0};
  const std::vector<std::int64_t> probes = {static_cast<std::int64_t>(e2e::kReferenceProbeNs)};
  const auto t = e2e::finish_episode(0.1, 0, end_ns, losses, 2, 1, 1.0, probes);
  EXPECT_EQ(t.updates, 2);
  EXPECT_DOUBLE_EQ(t.train_s, 2.0);
  EXPECT_DOUBLE_EQ(t.final_loss, 2.5);  // the fixed part's two losses
  EXPECT_EQ(t.iters_to_target, 4.0);
  EXPECT_DOUBLE_EQ(t.time_to_target_s, 4.0);
  // Within the fixed part alone the target is missed.
  const auto missed = e2e::finish_episode(0.1, 0, {1'000'000'000, 2'000'000'000}, {3.0, 2.0}, 2,
                                          1, 1.0, probes);
  EXPECT_TRUE(std::isinf(missed.iters_to_target));
  EXPECT_THROW(e2e::finish_episode(0.1, 0, end_ns, losses, 5, 1, 1.0, probes),
               std::invalid_argument);
}

TEST(TargetCrossing, FinalWindowMean) {
  EXPECT_DOUBLE_EQ(e2e::final_window_mean({9, 1, 2, 3}, 3), 2.0);
  EXPECT_DOUBLE_EQ(e2e::final_window_mean({4, 2}, 10), 3.0);
}

// -- Open-loop accounting -----------------------------------------------------

TEST(OpenLoop, SendersInterleaveOneSchedule) {
  // 2000 req/s over two senders: one slot every 0.5 ms, sender s owns
  // slots s, s + 2, ...
  EXPECT_EQ(e2e::due_time_ns(1000, 2000.0, 2, 0, 0), 1000);
  EXPECT_EQ(e2e::due_time_ns(1000, 2000.0, 2, 1, 0), 1000 + 500'000);
  EXPECT_EQ(e2e::due_time_ns(0, 2000.0, 2, 1, 3), 3'500'000);
  EXPECT_EQ(e2e::due_time_ns(0, 1000.0, 1, 0, 5), 5'000'000);
}

TEST(OpenLoop, LatencyCountsFromDueTimeSoStallsChargeLaterRequests) {
  // One blocking sender, a request due every 1 ms, a server that stalls
  // 5 ms on the first request and then answers in 0.1 ms.
  std::vector<OpenLoopRecord> records;
  std::int64_t free_at = 0;
  for (int i = 0; i < 5; ++i) {
    OpenLoopRecord r;
    r.due_ns = e2e::due_time_ns(0, 1000.0, 1, 0, i);
    r.sent_ns = std::max(r.due_ns, free_at);
    r.done_ns = r.sent_ns + (i == 0 ? 5'000'000 : 100'000);
    free_at = r.done_ns;
    records.push_back(r);
  }
  EXPECT_DOUBLE_EQ(e2e::latency_ms(records[0]), 5.0);
  // Due at 1 ms, sent at 5 ms when the sender was free, done at 5.1 ms.
  EXPECT_DOUBLE_EQ(e2e::lateness_ms(records[1]), 4.0);
  EXPECT_DOUBLE_EQ(e2e::latency_ms(records[1]), 4.1);
  // Timed from the send instead, it would read 0.1 ms and hide the stall.
  EXPECT_DOUBLE_EQ(1e-6 * static_cast<double>(records[1].done_ns - records[1].sent_ns), 0.1);
  EXPECT_DOUBLE_EQ(e2e::latency_ms(records[4]), 1.4);
}

TEST(OpenLoop, BacklogGrowthComparesFirstAndLastQuarter) {
  std::vector<OpenLoopRecord> steady, growing;
  for (int i = 0; i < 40; ++i) {
    const std::int64_t due = i * 1'000'000;
    steady.push_back({due, due + 50'000, due + 300'000});
    growing.push_back({due, due + i * 200'000, due + i * 200'000 + 300'000});
  }
  EXPECT_FALSE(e2e::backlog_grew(steady, 1.0));
  EXPECT_TRUE(e2e::backlog_grew(growing, 1.0));
  EXPECT_FALSE(e2e::backlog_grew({}, 1.0));
}

// -- Thread budget ------------------------------------------------------------

TEST(ThreadBudget, CountsPoolFanOutOnlyWhenItDispatches) {
  EXPECT_EQ(e2e::thread_budget(1, 3), 4);  // trainer + 3 pool chunks
  EXPECT_EQ(e2e::thread_budget(1, 4), 5);  // the default pool on 4 CPUs
  EXPECT_EQ(e2e::thread_budget(3, 1), 3);  // a fan-out of 1 runs inline
  EXPECT_EQ(e2e::thread_budget(4, 0), 4);
}

TEST(ThreadBudget, RefusesAWorkloadConfiguredAboveNproc) {
  for (const char* name : {"lm_sync", "cnn_async", "lm_serve"}) {
    const auto* spec = e2e::find_workload(name);
    ASSERT_NE(spec, nullptr) << name;
    // As configured, every workload fits the 4-CPU reference machine.
    EXPECT_EQ(e2e::check_thread_budget(*spec, spec->pool_threads, 4), "") << name;
    // The default pool of 4 fits none of them beside their own threads.
    EXPECT_NE(e2e::check_thread_budget(*spec, 4, 4), "") << name;
  }
  EXPECT_NE(e2e::check_thread_budget(*e2e::find_workload("lm_serve"), 1, 3), "");
  EXPECT_EQ(e2e::find_workload("nope"), nullptr);
}

TEST(Json, NumbersKeepEveryDigit) {
  for (const double v : {0.1, 1.0 / 3.0, 1234.5678901234567, 6.02e23}) {
    EXPECT_EQ(std::strtod(e2e::json_number(v).c_str(), nullptr), v);
  }
  EXPECT_THROW(e2e::json_number(1.0 / 0.0), std::invalid_argument);
}

}  // namespace
