// The three benchmark workloads and what they report.
//
// A run repeats whole episodes -- build the model, data and servers from
// the seed, warm up, train to a fixed length -- until the run's time is
// used, and reports medians over episodes (setup, rate, time to target)
// or over every pooled sample (latencies). In a traced run the episodes
// alternate between untraced and traced; the untraced ones give the
// end-to-end numbers, the traced ones the per-layer numbers, and the rate
// difference between the two is the tracing overhead.
//
// Timings are taken on ProbeClocks, so they leave out the host probe, and
// the end-to-end timings are host-corrected (probe.hpp) when reported,
// each episode's by the probe samples taken during that episode: the host
// changes speed from one second to the next, and a run-wide factor would
// scale a fast episode and a slow one alike.
#pragma once

#include <sched.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mapped.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output (traced runs); empty: none
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::optional<double> raw;  ///< wall value before the host correction
};

struct Report {
  std::vector<Metric> e2e;     ///< from untraced episodes
  std::vector<Metric> layers;  ///< from traced episodes (traced runs only)
  std::vector<std::string> failures;
  std::vector<std::string> notes;  ///< human-readable detail lines
  MappedVector<std::int64_t> probe_ns;  ///< every probe sample of the run
  std::int64_t probe_total_ns = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Record a correctness check; a false one fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void e2e_metric(const std::string& name, const std::string& unit, double v,
                  std::optional<double> raw = std::nullopt) {
    e2e.push_back({name, unit, v, raw});
  }
  void layer_metric(const std::string& name, const std::string& unit, double v) {
    layers.push_back({name, unit, v, std::nullopt});
  }
  void add_probes(const Prober& p) {
    probe_ns.insert(probe_ns.end(), p.samples_ns().begin(), p.samples_ns().end());
    probe_total_ns += p.total_ns();
  }
  /// The run's correction; a run without probe samples is a benchmark bug.
  HostCorrection correction() const {
    return host_correction({probe_ns.begin(), probe_ns.end()});
  }
};

Report run_lm_sync(const RunConfig& cfg);
Report run_cnn_async(const RunConfig& cfg);
Report run_lm_serve(const RunConfig& cfg);

// -- Thread budget. -------------------------------------------------------------

/// A workload with the thread pool size the benchmark gives it (through
/// YF_THREADS) and the number of its own threads that can compute at the
/// same moment.
struct WorkloadSpec {
  const char* name;
  Report (*run)(const RunConfig&);
  int pool_threads;
  int compute_threads;
};

/// The three workloads; nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// Threads that can compute at once: the workload's own plus the pool's
/// fan-out, which parallel_for uses beside the calling thread; a fan-out
/// below 2 runs inline and adds none.
int thread_budget(int compute_threads, std::size_t pool_fanout);

/// Empty when the budget fits in `nproc` CPUs, else why the workload is
/// refused.
std::string check_thread_budget(const WorkloadSpec& spec, std::size_t pool_fanout, int nproc);

// -- Shared pieces (workloads.cpp). ------------------------------------------

/// Pins the calling thread to `count` CPUs, from the `slot`-th of those the
/// process may run on (wrapping around), and returns its previous CPU set.
/// Threads it creates afterwards inherit the pin.
cpu_set_t pin_this_thread(int slot, int count = 1);

/// pin_this_thread for a scope, restoring the thread's CPU set afterwards.
/// Threads created meanwhile keep the pin, which is how the library's own
/// threads (serve worker, master connections) get theirs.
class PinThread {
 public:
  explicit PinThread(int slot, int count = 1) : previous_(pin_this_thread(slot, count)) {}
  ~PinThread();
  PinThread(const PinThread&) = delete;
  PinThread& operator=(const PinThread&) = delete;

 private:
  cpu_set_t previous_;
};

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

/// final_loss is the mean loss of an episode's last this-many updates.
inline constexpr std::int64_t kFinalWindow = 100;

/// Per-episode numbers every training workload produces, on the
/// episode's ProbeClock (probe time left out), not yet host-corrected.
struct EpisodeTiming {
  double setup_s = 0.0;
  double train_s = 0.0;  ///< from the start of training to the last update
  std::int64_t updates = 0;
  /// Infinite when the episode never reached the target: such an episode
  /// still counts in the medians, as the slowest, and as a failed
  /// operation.
  double iters_to_target = std::numeric_limits<double>::infinity();
  double time_to_target_s = std::numeric_limits<double>::infinity();
  double final_loss = 0.0;
  /// Minor page faults of the whole process while the episode trained.
  std::int64_t minor_faults = 0;
  /// The episode's host correction (host_correction of its probe samples).
  HostCorrection host;
};

/// Timing of a finished episode: `update_end_ns[i]` is when update i
/// (0-based) was applied, `t0_ns` when training started, `probe_ns` the
/// probe samples its timed threads took. The first `fixed_updates` updates
/// are the episode's fixed length, which the rate and the final loss are
/// taken over; updates beyond them only continue the race to the target
/// (cnn_async, whose slowest trajectories can need more).
EpisodeTiming finish_episode(double setup_s, std::int64_t t0_ns,
                             const std::vector<std::int64_t>& update_end_ns,
                             const std::vector<double>& losses, std::int64_t fixed_updates,
                             std::int64_t window, double target,
                             std::span<const std::int64_t> probe_ns);

/// Counts `losses.size()` attempted updates, and as failed every one whose
/// loss is non-finite or at the trainer's divergence bound; a NaN or
/// infinite loss also fails the run.
void count_updates(Report& report, const std::vector<double>& losses);

/// Adds the end-to-end metrics shared by all workloads from the untraced
/// episodes and their pooled unit-operation latencies (ms), raw and with
/// each sample scaled by its episode's host correction. Times and rates
/// are corrected per episode before the median over episodes is taken.
/// Counts each episode as an operation that
/// fails when it misses the loss target, and fails the run when the median
/// episode misses it. Call it only after the last measured episode: it
/// copies the samples into malloc'd buffers, and freeing those can move
/// malloc's thresholds (mapped.hpp).
void report_e2e(Report& report, const std::vector<EpisodeTiming>& episodes,
                std::span<const double> op_raw_ms, std::span<const double> op_corrected_ms,
                const char* op_name);

/// Per-layer self-time metrics common to the training workloads, from the
/// traced episodes' spans; span names absent from the trace add nothing.
void report_layer_times(Report& report, std::span<const Span> spans);

/// Heap allocations (counted only by the traced binary's allocator) and
/// minor page faults of the whole process.
struct HeapCounters {
  std::uint64_t allocs = 0;
  std::int64_t minor_faults = 0;

  static HeapCounters now();
  HeapCounters operator-(const HeapCounters& o) const {
    return {allocs - o.allocs, minor_faults - o.minor_faults};
  }
  HeapCounters& operator+=(const HeapCounters& o) {
    allocs += o.allocs;
    minor_faults += o.minor_faults;
    return *this;
  }
};

/// core.allocs_per_update and core.faults_per_update over `updates`.
void report_heap(Report& report, const HeapCounters& total, std::int64_t updates);

/// Tracing overhead: relative drop of the median update rate of traced
/// episodes against untraced ones (percent; negative when traced ran
/// faster, which is noise), and the median probe time.
void report_overhead(Report& report, const std::vector<EpisodeTiming>& untraced,
                     const std::vector<EpisodeTiming>& traced, std::size_t span_count);

/// Seed of episode `e`'s trajectory. Each untraced episode starts a
/// trajectory of its own, so the quality metrics are medians over many
/// trajectories rather than one seed's luck; a traced episode replays the
/// untraced episode before it, so the pair compares like with like.
inline std::uint64_t episode_seed(std::uint64_t run_seed, int e, bool traced) {
  return run_seed * 1000 + static_cast<std::uint64_t>(traced ? e - 1 : e);
}

/// Seconds since `t0_ns` (steady clock).
double seconds_since(std::int64_t t0_ns);

}  // namespace e2e
