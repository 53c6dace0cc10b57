#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "train/metrics.hpp"

namespace e2e {

namespace {
std::int64_t rank_index(std::int64_t n, double q) {
  const auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::int64_t>(rank - 1, 0, n - 1);
}
}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile_sorted: empty sample");
  return sorted[static_cast<std::size_t>(rank_index(static_cast<std::int64_t>(sorted.size()), q))];
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  if (n <= 0) return 0;
  return n - 1 - rank_index(n, q);
}

double tail_level(std::int64_t n) {
  for (const double q : {0.9999, 0.999, 0.99, 0.9, 0.5}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = static_cast<std::int64_t>(values.size());
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = quantile_sorted(values, 0.5);
  s.p99 = quantile_sorted(values, 0.99);
  s.tail_q = tail_level(s.n);
  s.tail = s.tail_q > 0.0 ? quantile_sorted(values, s.tail_q) : 0.0;
  s.max = values.back();
  return s;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

std::optional<std::int64_t> updates_to_target(const std::vector<double>& losses,
                                              std::int64_t window, double target) {
  if (window < 1) throw std::invalid_argument("updates_to_target: window must be >= 1");
  if (static_cast<std::int64_t>(losses.size()) < window) return std::nullopt;
  const auto smoothed = yf::train::smooth_uniform(losses, window);
  const std::vector<double> full(smoothed.begin() + (window - 1), smoothed.end());
  const auto idx = yf::train::iterations_to_reach(full, target);
  if (!idx) return std::nullopt;
  return *idx + window;  // index into `full` -> count of updates applied
}

double final_window_mean(const std::vector<double>& losses, std::int64_t window) {
  if (losses.empty()) throw std::invalid_argument("final_window_mean: empty curve");
  const auto n = std::min<std::size_t>(losses.size(), static_cast<std::size_t>(window));
  return std::accumulate(losses.end() - static_cast<std::ptrdiff_t>(n), losses.end(), 0.0) /
         static_cast<double>(n);
}

std::int64_t due_time_ns(std::int64_t start_ns, double rate_per_s, int senders, int s,
                         std::int64_t i) {
  const double slot = static_cast<double>(i) * senders + s;
  return start_ns + static_cast<std::int64_t>(std::llround(slot * 1e9 / rate_per_s));
}

bool backlog_grew(std::vector<OpenLoopRecord> records, double slack_ms) {
  if (records.size() < 8) return false;
  std::sort(records.begin(), records.end(),
            [](const OpenLoopRecord& a, const OpenLoopRecord& b) { return a.due_ns < b.due_ns; });
  const std::size_t quarter = records.size() / 4;
  auto mean_late = [&](std::size_t lo) {
    double acc = 0.0;
    for (std::size_t i = lo; i < lo + quarter; ++i) acc += lateness_ms(records[i]);
    return acc / static_cast<double>(quarter);
  };
  return mean_late(records.size() - quarter) > mean_late(0) + slack_ms;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("json_number: non-finite value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace e2e
