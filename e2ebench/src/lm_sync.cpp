// lm_sync: the Table 2 LSTM setting on the library's default training
// path -- train::train, one thread, default YellowFinOptions. Training is
// deterministic: a trajectory seed fixes the whole loss curve.
#include <memory>

#include "lm_task.hpp"
#include "metrics.hpp"
#include "train/trainer.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

struct LmEpisode {
  EpisodeTiming timing;
  std::vector<double> losses;
  std::vector<double> step_ms;
  std::int64_t clipped = 0;
  std::int64_t params = 0;
  HeapCounters heap;
};

/// `manual` replaces train::train by lm_manual_step (the traced loop, and
/// the bit-identity check of an untraced run). The probe runs at the top of
/// a step, before the step's clock reading, so it is in no step's time.
LmEpisode run_episode(std::uint64_t seed, bool manual, Tracer* tracer, Report& report) {
  LmEpisode ep;
  const std::size_t probes0 = report.probe_ns.size();
  ProbeClock clock;
  Prober prober(&clock, 2 * kLmSteps);
  const std::int64_t setup0 = clock.now();
  LmTask task(seed);
  // Default options on purpose: the benches' quick-mode override (beta
  // 0.995, 50-step slow start) destabilizes longer runs (README.md).
  yf::tuner::YellowFin opt(task.model.parameters());
  task.warm_up(opt);
  ep.params = opt.arena().size();

  std::vector<std::int64_t> starts;
  starts.reserve(kLmSteps);
  const HeapCounters heap0 = HeapCounters::now();
  const std::int64_t t0 = clock.now();
  if (manual) {
    ep.losses.reserve(kLmSteps);
    for (std::int64_t it = 0; it < kLmSteps; ++it) {
      prober.maybe_run();
      Scope step(tracer, "train.step");
      starts.push_back(clock.now());
      ep.losses.push_back(lm_manual_step(task, opt, tracer, ep.clipped));
    }
  } else {
    yf::train::TrainOptions topts;
    topts.iterations = kLmSteps;
    const auto result = yf::train::train(
        opt,
        [&] {
          prober.maybe_run();
          starts.push_back(clock.now());
          return task.grad(nullptr);
        },
        topts);
    report.check(!result.diverged, "lm_sync: train::train diverged");
    ep.losses = result.losses;
  }
  const std::int64_t end = clock.now();
  ep.heap = HeapCounters::now() - heap0;
  report.add_probes(prober);

  std::vector<std::int64_t> update_end(starts.begin() + 1, starts.end());
  update_end.push_back(end);
  for (std::size_t i = 0; i < update_end.size(); ++i) {
    ep.step_ms.push_back(1e-6 * static_cast<double>(update_end[i] - starts[i]));
  }
  // Set-up ends when the first update has been applied.
  const double setup_s = 1e-9 * static_cast<double>(update_end.front() - setup0);
  ep.timing = finish_episode(setup_s, t0, update_end, ep.losses,
                             static_cast<std::int64_t>(ep.losses.size()), kLmSmooth, kLmTarget,
                             std::span<const std::int64_t>(report.probe_ns).subspan(probes0));
  ep.timing.minor_faults = ep.heap.minor_faults;
  return ep;
}

}  // namespace

Report run_lm_sync(const RunConfig& cfg) {
  Report report;
  const std::int64_t run0 = now_ns();
  std::vector<EpisodeTiming> untraced, traced;
  MappedVector<double> step_ms, step_ref_ms;  // raw and host-corrected
  std::vector<double> first, previous;  // curves of the first and the last untraced episode
  std::int64_t params = 0;
  MappedVector<Span> spans;
  std::int64_t traced_steps = 0, clipped = 0, untraced_steps = 0;
  HeapCounters traced_heap, untraced_heap;

  for (int ep = 0; ep < 2 || seconds_since(run0) < cfg.seconds; ++ep) {
    const bool traced_ep = cfg.trace && ep % 2 == 1;
    std::unique_ptr<Tracer> tracer;
    if (traced_ep) tracer = std::make_unique<Tracer>(8 * kLmSteps);
    LmEpisode e =
        run_episode(episode_seed(cfg.seed, ep, traced_ep), traced_ep, tracer.get(), report);
    count_updates(report, e.losses);
    if (traced_ep) {
      report.check(e.losses == previous,
                   "lm_sync: traced split-stage loop diverges from train::train on the same "
                   "trajectory (bit-identity)");
      traced.push_back(e.timing);
      traced_steps += kLmSteps;
      clipped += e.clipped;
      traced_heap += e.heap;
      append_spans(spans, tracer->spans());
    } else {
      if (first.empty()) first = e.losses;
      params = e.params;
      previous = e.losses;
      untraced.push_back(e.timing);
      untraced_steps += kLmSteps;
      untraced_heap += e.heap;
      step_ms.insert(step_ms.end(), e.step_ms.begin(), e.step_ms.end());
      for (const double ms : e.step_ms) step_ref_ms.push_back(e.timing.host.time(ms));
    }
  }
  if (!cfg.trace) {
    // The traced loop must be the same computation as train::train.
    const LmEpisode check = run_episode(episode_seed(cfg.seed, 0, false), true, nullptr, report);
    report.check(check.losses == first,
                 "lm_sync: split-stage loop diverges from train::train (bit-identity)");
  }

  report_e2e(report, untraced, step_ms, step_ref_ms, "train step");
  report.notes.push_back("model parameters: " + std::to_string(params));
  report.notes.push_back("minor page faults per update (untraced, glibc default allocator): " +
                         std::to_string(static_cast<double>(untraced_heap.minor_faults) /
                                        static_cast<double>(untraced_steps)));
  if (cfg.trace) {
    report_layer_times(report, spans);
    report_heap(report, traced_heap, traced_steps);
    report.layer_metric("tuner.clip_ratio", "ratio",
                        static_cast<double>(clipped) / static_cast<double>(traced_steps));
    report_overhead(report, untraced, traced, spans.size());
    if (!cfg.trace_path.empty()) write_chrome_json(cfg.trace_path, spans);
  }
  return report;
}

}  // namespace e2e
