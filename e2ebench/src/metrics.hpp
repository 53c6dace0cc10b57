// Pure helpers behind every number the benchmark prints: the percentile
// rule, the smoothed-loss target crossing and the open-loop latency
// accounting. Kept free of library calls other than the
// loss smoothing so the unit tests pin them exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// Nearest-rank quantile of an ascending-sorted sample: the value at
/// index ceil(q * n) - 1 (clamped to the sample).
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::int64_t samples_beyond(std::int64_t n, double q);

/// The highest of the levels 0.9999, 0.999, 0.99, 0.9 and 0.5 that leaves
/// at least ten samples beyond it; 0 when not even the median does
/// (fewer than 20 samples).
double tail_level(std::int64_t n);

/// A timing reported the way every latency in this benchmark is: the
/// median, the fixed p99, and the highest percentile the sample supports
/// (tail_level), together with the sample count.
struct Summary {
  std::int64_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_q = 0.0;  ///< tail_level(n)
  double tail = 0.0;    ///< value at tail_q (0 when tail_q is 0)
  double max = 0.0;
};
Summary summarize(std::vector<double> values);

/// Median of a non-empty sample (nearest-rank, like every other quantile
/// here, so the reported value is always one that was measured).
double median(std::vector<double> values);

/// Number of updates after which the trailing `window`-wide mean of
/// `losses` first reaches `target` (<=). Only full windows count, so an
/// early lucky minibatch cannot end the race. nullopt when never reached.
std::optional<std::int64_t> updates_to_target(const std::vector<double>& losses,
                                              std::int64_t window, double target);

/// Mean of the last `window` losses (the whole curve when shorter).
double final_window_mean(const std::vector<double>& losses, std::int64_t window);

/// One open-loop request: when the schedule said to send it, when the
/// sender actually sent it, and when its reply arrived (steady-clock ns).
struct OpenLoopRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
};

/// Latency counted from the due time, so a stall also charges the wait it
/// imposes on every request scheduled behind it.
inline double latency_ms(const OpenLoopRecord& r) {
  return 1e-6 * static_cast<double>(r.done_ns - r.due_ns);
}
/// How late the generator sent the request against its schedule.
inline double lateness_ms(const OpenLoopRecord& r) {
  return 1e-6 * static_cast<double>(r.sent_ns - r.due_ns);
}

/// Due time of request i of sender s out of `senders`, all sharing one
/// schedule of `rate_per_s` evenly spaced requests starting at `start_ns`
/// (the senders interleave: sender s owns slots s, s + senders, ...).
std::int64_t due_time_ns(std::int64_t start_ns, double rate_per_s, int senders, int s,
                         std::int64_t i);

/// True when the generator's backlog grew over a rung: the mean lateness of
/// the last quarter of requests (in due order) exceeds that of the first
/// quarter by more than `slack_ms`.
bool backlog_grew(std::vector<OpenLoopRecord> records, double slack_ms);

/// JSON number with every digit of the double (round-trip precision).
std::string json_number(double v);

}  // namespace e2e
