#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/alloc_count.hpp"
#include "metrics.hpp"

namespace e2e {

namespace {

// Pool sizes keep every workload inside 4 CPUs (README.md, "Thread
// budget"). lm_sync's trainer plus a 3-way pool fan-out make 4; the default
// pool (4) would make 5, although its tensors are all below the parallel
// grain. cnn_async: 2 socket workers plus the master's apply. lm_serve: the
// trainer, the serve worker and 2 open-loop senders.
constexpr WorkloadSpec kWorkloads[] = {
    {"lm_sync", run_lm_sync, 3, 1},
    {"cnn_async", run_cnn_async, 1, 3},
    {"lm_serve", run_lm_serve, 1, 4},
};

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int thread_budget(int compute_threads, std::size_t pool_fanout) {
  return compute_threads + (pool_fanout >= 2 ? static_cast<int>(pool_fanout) : 0);
}

std::string check_thread_budget(const WorkloadSpec& spec, std::size_t pool_fanout, int nproc) {
  const int budget = thread_budget(spec.compute_threads, pool_fanout);
  if (budget <= nproc) return "";
  return std::string(spec.name) + " needs " + std::to_string(budget) +
         " threads that compute at once (" + std::to_string(spec.compute_threads) +
         " of its own + pool fan-out " + std::to_string(pool_fanout) + ") but only " +
         std::to_string(nproc) + " CPUs are available";
}

cpu_set_t pin_this_thread(int slot, int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("pin_this_thread: sched_getaffinity failed");
  }
  const int n = CPU_COUNT(&allowed);
  cpu_set_t pin;
  CPU_ZERO(&pin);
  for (int cpu = 0, index = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    const int offset = ((index++ - slot) % n + n) % n;  // position after `slot`
    if (offset < count) CPU_SET(cpu, &pin);
  }
  if (sched_setaffinity(0, sizeof(pin), &pin) != 0) {
    throw std::runtime_error("pin_this_thread: sched_setaffinity failed");
  }
  return allowed;
}

PinThread::~PinThread() { sched_setaffinity(0, sizeof(previous_), &previous_); }

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries a parent's peak across fork+exec
  // into ru_maxrss, so under a Python launcher it would report Python's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
}

double seconds_since(std::int64_t t0_ns) { return 1e-9 * static_cast<double>(now_ns() - t0_ns); }

EpisodeTiming finish_episode(double setup_s, std::int64_t t0_ns,
                             const std::vector<std::int64_t>& update_end_ns,
                             const std::vector<double>& losses, std::int64_t fixed_updates,
                             std::int64_t window, double target,
                             std::span<const std::int64_t> probe_ns) {
  if (update_end_ns.size() != losses.size() || fixed_updates < 1 ||
      fixed_updates > static_cast<std::int64_t>(losses.size())) {
    throw std::invalid_argument("finish_episode: fixed_updates must be in [1, updates], and "
                                "every update needs its end time");
  }
  EpisodeTiming t;
  t.host = host_correction({probe_ns.begin(), probe_ns.end()});
  t.setup_s = setup_s;
  t.updates = fixed_updates;
  const std::int64_t fixed_end_ns = update_end_ns[static_cast<std::size_t>(fixed_updates - 1)];
  t.train_s = 1e-9 * static_cast<double>(fixed_end_ns - t0_ns);
  t.final_loss = final_window_mean({losses.begin(), losses.begin() + fixed_updates}, kFinalWindow);
  if (const auto reached = updates_to_target(losses, window, target)) {
    t.iters_to_target = static_cast<double>(*reached);
    t.time_to_target_s =
        1e-9 * static_cast<double>(update_end_ns[static_cast<std::size_t>(*reached - 1)] - t0_ns);
  }
  return t;
}

void count_updates(Report& report, const std::vector<double>& losses) {
  report.attempted += static_cast<std::int64_t>(losses.size());
  bool finite = true;
  for (const double l : losses) {
    finite = finite && std::isfinite(l);
    // train::train pads a diverged run with its bound (1e9 by default).
    if (!std::isfinite(l) || l >= 1e9) ++report.failed;
  }
  report.check(finite, "a training loss is NaN or infinite");
}

void report_e2e(Report& report, const std::vector<EpisodeTiming>& episodes,
                std::span<const double> op_raw_ms, std::span<const double> op_corrected_ms,
                const char* op_name) {
  const HostCorrection host = report.correction();
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& e : episodes) v.push_back(field(e));
    return median(v);
  };
  auto rate = [](const EpisodeTiming& e) { return static_cast<double>(e.updates) / e.train_s; };
  const double setup = med([](const EpisodeTiming& e) { return e.setup_s; });
  const double steps = med(rate);
  const double to_target = med([](const EpisodeTiming& e) { return e.time_to_target_s; });
  const double iters = med([](const EpisodeTiming& e) { return e.iters_to_target; });
  const Summary lat = summarize({op_raw_ms.begin(), op_raw_ms.end()});
  const Summary ref = summarize({op_corrected_ms.begin(), op_corrected_ms.end()});

  report.e2e_metric("setup_s", "s", med([](const EpisodeTiming& e) {
                      return e.host.time(e.setup_s);
                    }),
                    setup);
  report.e2e_metric("train_steps_per_s", "1/s",
                    med([&](const EpisodeTiming& e) { return e.host.rate(rate(e)); }), steps);
  report.e2e_metric("time_to_target_s", "s", med([](const EpisodeTiming& e) {
                      return e.host.time(e.time_to_target_s);
                    }),
                    to_target);
  report.e2e_metric("iters_to_target", "count", iters);
  report.e2e_metric("final_loss", "nats", med([](const EpisodeTiming& e) { return e.final_loss; }));
  report.e2e_metric("op_p50_ms", "ms", ref.p50, lat.p50);
  report.e2e_metric("peak_rss_mb", "MiB", peak_rss_mb());

  std::int64_t missed = 0;
  for (const auto& e : episodes) missed += std::isinf(e.iters_to_target) ? 1 : 0;
  report.attempted += static_cast<std::int64_t>(episodes.size());
  report.failed += missed;
  report.check(std::isfinite(iters), "the median episode never reached its loss target (" +
                                         std::to_string(missed) + " of " +
                                         std::to_string(episodes.size()) + " episodes missed)");

  char line[320];
  std::snprintf(line, sizeof(line),
                "%s latency (host-corrected): p50 %.4f ms, p%g %.4f ms, max %.4f ms, n=%lld; "
                "raw p50 %.4f ms, p%g %.4f ms, mean %.4f ms",
                op_name, ref.p50, 100.0 * ref.tail_q, ref.tail, ref.max,
                static_cast<long long>(ref.n), lat.p50, 100.0 * lat.tail_q, lat.tail,
                std::accumulate(op_raw_ms.begin(), op_raw_ms.end(), 0.0) /
                    static_cast<double>(std::max<std::size_t>(1, op_raw_ms.size())));
  report.notes.emplace_back(line);
  std::vector<double> factors;
  for (const auto& e : episodes) factors.push_back(e.host.factor);
  std::sort(factors.begin(), factors.end());
  const double run_ns = 1e9 * [&] {
    double s = 0.0;
    for (const auto& e : episodes) s += e.setup_s + e.train_s;
    return s;
  }();
  std::snprintf(line, sizeof(line),
                "host probe: median %.3f us over %zu samples (reference %.3f us, run factor "
                "%.4f, episode factors %.4f-%.4f); probe time summed over the timed threads: "
                "%.2f%% of the untraced episodes' time",
                1e-3 * host.median_probe_ns, report.probe_ns.size(), 1e-3 * kReferenceProbeNs,
                host.factor, factors.front(), factors.back(),
                run_ns > 0.0 ? 100.0 * report.probe_total_ns / run_ns : 0.0);
  report.notes.emplace_back(line);
  std::snprintf(line, sizeof(line), "%lld of %zu untraced episodes did not reach the loss target",
                static_cast<long long>(missed), episodes.size());
  report.notes.emplace_back(line);
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const EpisodeTiming& e = episodes[i];
    std::snprintf(line, sizeof(line),
                  "episode %zu: setup %.4f s, %lld updates in %.3f s (%.1f/s), target after %.0f "
                  "updates / %.3f s, final loss %.4f (raw times), %.1f minor faults per update, "
                  "probe %.3f us",
                  i, e.setup_s, static_cast<long long>(e.updates), e.train_s,
                  static_cast<double>(e.updates) / e.train_s, e.iters_to_target,
                  e.time_to_target_s, e.final_loss,
                  static_cast<double>(e.minor_faults) / static_cast<double>(e.updates),
                  1e-3 * e.host.median_probe_ns);
    report.notes.emplace_back(line);
  }
}

void report_layer_times(Report& report, std::span<const Span> spans) {
  const auto by_name = self_ms_by_name(spans);
  auto add = [&](const char* metric, const char* unit, const char* span, double scale) {
    const auto it = by_name.find(span);
    if (it == by_name.end()) return;
    report.layer_metric(metric, unit, scale * median(it->second));
  };
  add("data.sample_ms", "ms", "data.sample", 1.0);
  add("nn.forward_ms", "ms", "nn.forward", 1.0);
  add("autograd.backward_ms", "ms", "autograd.backward", 1.0);
  add("tuner.measure_ms", "ms", "tuner.measure", 1.0);
  add("optim.sweep_ms", "ms", "optim.sweep", 1.0);
  add("train.step_other_ms", "ms", "train.step", 1.0);
  add("dist.pull_ms", "ms", "dist.pull", 1.0);
  add("dist.push_ms", "ms", "dist.push", 1.0);
  add("serve.publish_us", "us", "serve.publish", 1e3);
}

HeapCounters HeapCounters::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {yf::core::heap_alloc_count(), static_cast<std::int64_t>(ru.ru_minflt)};
}

void report_heap(Report& report, const HeapCounters& total, std::int64_t updates) {
  const auto n = static_cast<double>(updates);
  report.layer_metric("core.allocs_per_update", "count", static_cast<double>(total.allocs) / n);
  report.layer_metric("core.faults_per_update", "count",
                      static_cast<double>(total.minor_faults) / n);
}

void report_overhead(Report& report, const std::vector<EpisodeTiming>& untraced,
                     const std::vector<EpisodeTiming>& traced, std::size_t span_count) {
  auto rate = [](const std::vector<EpisodeTiming>& eps) {
    std::vector<double> v;
    for (const auto& e : eps) v.push_back(static_cast<double>(e.updates) / e.train_s);
    return median(v);
  };
  const double plain = rate(untraced), with_spans = rate(traced);
  report.layer_metric("trace.overhead_pct", "%", 100.0 * (1.0 - with_spans / plain));
  report.layer_metric("host.probe_us", "us", 1e-3 * report.correction().median_probe_ns);
  char line[200];
  std::snprintf(line, sizeof(line),
                "tracing overhead: %.2f updates/s untraced vs %.2f traced (%zu vs %zu episodes, "
                "%zu spans)",
                plain, with_spans, untraced.size(), traced.size(), span_count);
  report.notes.emplace_back(line);
}

}  // namespace e2e
