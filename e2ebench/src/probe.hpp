// Host-speed probe and the correction it feeds.
//
// The benchmark runs on shared machines whose cores change speed with the
// neighbours' load. Every timed thread therefore runs a fixed, L1-resident
// probe between its operations, using about 1% of the thread's time, and
// every timing end-to-end metric is scaled to the reference machine's
// nominal speed by (reference probe time / median probe time), with the
// probes of the threads that did the timed work during the same episode.
// Probe time never enters a timing: a ProbeClock subtracts it, and
// open-loop senders probe only while they would sleep anyway.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace e2e {

/// steady_clock nanoseconds.
std::int64_t now_ns();

/// Median probe time on the reference machine (README.md, "Machine and
/// build stamp"); the bounds in BENCHMARK.json were set with it.
inline constexpr double kReferenceProbeNs = 14000.0;

/// The probe's two halves: independent multiply-add chains over one 4 KiB
/// table, and one dependent chain of multiplies and loads through another.
/// The same work on every call; each returns its result so the work cannot
/// be elided.
double probe_chains();
double probe_walk();

/// One probe sample from the times of its two halves: twice their
/// geometric mean, so that its relative change is the mean of the halves'
/// relative changes however far one half moves alone.
std::int64_t probe_sample_ns(std::int64_t chains_ns, std::int64_t walk_ns);

/// Wall clock minus the probe time of the threads that share it, divided
/// evenly among them: with `threads` workers advancing one result
/// together, one worker's probe delays the result by about 1/threads of
/// the probe. A clock owned by one thread excludes its probes exactly.
class ProbeClock {
 public:
  explicit ProbeClock(int threads = 1) : threads_(threads < 1 ? 1 : threads) {}
  ProbeClock(const ProbeClock&) = delete;
  ProbeClock& operator=(const ProbeClock&) = delete;

  std::int64_t now() const { return now_ns() - excluded_ns(); }
  std::int64_t excluded_ns() const {
    return excluded_.load(std::memory_order_relaxed) / threads_;
  }
  void exclude(std::int64_t ns) { excluded_.fetch_add(ns, std::memory_order_relaxed); }

 private:
  int threads_;
  std::atomic<std::int64_t> excluded_{0};
};

/// One thread's probe schedule. maybe_run() runs the probe when at least
/// kGapFactor probe durations have passed since this thread's last probe,
/// so probing costs at most ~1/kGapFactor of the thread's time; each run is
/// recorded as a probe_sample_ns and its whole time is excluded from
/// `clock` (when given).
class Prober {
 public:
  static constexpr std::int64_t kGapFactor = 100;

  explicit Prober(ProbeClock* clock = nullptr, std::size_t reserve = 1 << 14);

  /// Runs the probe if it is due; returns whether it ran.
  bool maybe_run();
  /// Runs the probe now.
  void run();

  const std::vector<std::int64_t>& samples_ns() const { return samples_; }
  std::int64_t total_ns() const { return total_ns_; }

 private:
  ProbeClock* clock_;
  std::vector<std::int64_t> samples_;
  std::int64_t total_ns_ = 0;
  std::int64_t next_due_ns_ = 0;
};

/// Scaling from the host speed a probe sample saw to the reference machine's.
struct HostCorrection {
  double median_probe_ns = 0.0;
  double factor = 1.0;  ///< reference probe / median probe

  /// A duration measured here, as the reference machine would take it.
  double time(double raw) const { return raw * factor; }
  /// A rate measured here (per second), as the reference machine would run it.
  double rate(double raw) const { return raw / factor; }
};

/// The correction from a set of probe samples (nearest-rank median).
/// Throws std::invalid_argument on an empty sample or a non-positive
/// reference.
HostCorrection host_correction(std::vector<std::int64_t> samples_ns,
                               double reference_ns = kReferenceProbeNs);

}  // namespace e2e
