#include "probe.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace e2e {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr int kTable = 512;  // doubles, or 1024 indices: 4 KiB, stays in L1
constexpr int kChains = 8;
constexpr int kPasses = 3;
constexpr int kLinks = 1500;

const std::array<double, kTable>& values() {
  static const std::array<double, kTable> t = [] {
    std::array<double, kTable> v{};
    for (int i = 0; i < kTable; ++i) v[i] = static_cast<double>(i * 37 % kTable) / kTable;
    return v;
  }();
  return t;
}

const std::array<std::uint32_t, 2 * kTable>& permutation() {
  static const std::array<std::uint32_t, 2 * kTable> t = [] {
    std::array<std::uint32_t, 2 * kTable> p{};
    for (std::uint32_t i = 0; i < p.size(); ++i) p[i] = i;
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t i = p.size() - 1; i > 0; --i) {  // Fisher-Yates, fixed seed
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      std::swap(p[i], p[static_cast<std::uint32_t>(s % (i + 1))]);
    }
    return p;
  }();
  return t;
}

}  // namespace

// Two halves that see different kinds of host slowdown (README.md,
// "Host-speed correction"). Eight independent multiply-add chains keep the
// floating-point units busy like the training kernels, so they slow when a
// sibling hyperthread on the host competes for them; one dependent chain
// of multiplies and loads runs at the core's latency, which tracks the
// host's slow phases but hardly its sibling's load.
double probe_chains() {
  const auto& t = values();
  double x[kChains] = {1, 2, 3, 4, 5, 6, 7, 8};
  constexpr double kDecay = 0.9999;  // |x| stays below max(t) / (1 - kDecay)
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int i = 0; i < kTable; ++i) {
      for (int k = 0; k < kChains; ++k) x[k] = x[k] * kDecay + t[(i + k) & (kTable - 1)];
    }
  }
  double sum = 0.0;
  for (const double v : x) sum += v;
  return sum;
}

double probe_walk() {
  const auto& p = permutation();
  std::uint64_t h = 0x243F6A8885A308D3ull;
  std::uint32_t j = 0;
  for (int k = 0; k < kLinks; ++k) {
    j = p[(j ^ static_cast<std::uint32_t>(h)) & (p.size() - 1)];
    h = (h ^ j) * 0x9E3779B97F4A7C15ull;
  }
  return static_cast<double>(h >> 11) * 0x1p-53;
}

std::int64_t probe_sample_ns(std::int64_t chains_ns, std::int64_t walk_ns) {
  return std::llround(2.0 * std::sqrt(static_cast<double>(chains_ns) *
                                      static_cast<double>(walk_ns)));
}

Prober::Prober(ProbeClock* clock, std::size_t reserve) : clock_(clock) {
  samples_.reserve(reserve);
}

void Prober::run() {
  static std::atomic<double> sink{0.0};
  const std::int64_t t0 = now_ns();
  double r = probe_chains();
  const std::int64_t t1 = now_ns();
  r += probe_walk();
  const std::int64_t t2 = now_ns();
  sink.store(r, std::memory_order_relaxed);
  const std::int64_t d = t2 - t0;
  if (samples_.size() < samples_.capacity()) samples_.push_back(probe_sample_ns(t1 - t0, t2 - t1));
  total_ns_ += d;
  if (clock_) clock_->exclude(d);
  next_due_ns_ = t2 + kGapFactor * d;
}

bool Prober::maybe_run() {
  if (now_ns() < next_due_ns_) return false;
  run();
  return true;
}

HostCorrection host_correction(std::vector<std::int64_t> samples_ns, double reference_ns) {
  if (samples_ns.empty()) throw std::invalid_argument("host_correction: no probe samples");
  if (!(reference_ns > 0.0)) throw std::invalid_argument("host_correction: bad reference");
  const std::size_t mid = (samples_ns.size() + 1) / 2 - 1;  // nearest-rank median
  std::nth_element(samples_ns.begin(), samples_ns.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples_ns.end());
  HostCorrection c;
  c.median_probe_ns = static_cast<double>(samples_ns[mid]);
  c.factor = reference_ns / c.median_probe_ns;
  return c;
}

}  // namespace e2e
