// End-to-end benchmark entry point.
//
//   e2ebench --workload lm_sync|cnn_async|lm_serve --seed N --seconds S --trace 0|1
//            [--trace-out PATH] [--git-sha SHA]
//
// Sets the workload's thread pool size (YF_THREADS) and refuses, with exit
// code 2 and no result, a workload whose threads would exceed the CPUs.
// Otherwise prints detail lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// an untraced run (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). Exits 1 when a correctness check fails. Normally started by
// run.py, which builds this binary first.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sched.h>

#include "core/kernels/backend.hpp"
#include "core/parallel.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed set against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"train_steps_per_s", "1/s"}, {"time_to_target_s", "s"},
    {"iters_to_target", "count"}, {"final_loss", "nats"},     {"op_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

// A layer a workload does not exercise reports 0 (README.md lists which).
constexpr MetricSpec kPerLayer[] = {
    {"data.sample_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"autograd.backward_ms", "ms"},
    {"train.step_other_ms", "ms"},
    {"core.allocs_per_update", "count"},
    {"core.faults_per_update", "count"},
    {"tuner.measure_ms", "ms"},
    {"optim.sweep_ms", "ms"},
    {"tuner.clip_ratio", "ratio"},
    {"async.staleness_mean", "updates"},
    {"async.staleness_max", "updates"},
    {"async.mu_hat_total_mean", "mu"},
    {"async.applied_momentum_mean", "mu"},
    {"dist.pull_ms", "ms"},
    {"dist.push_ms", "ms"},
    {"dist.compute_share", "ratio"},
    {"dist.bytes_per_update", "B"},
    {"dist.reconnects", "count"},
    {"serve.publish_us", "us"},
    {"serve.batch_mean", "req/batch"},
    {"serve.version_lag", "versions"},
    {"serve.gen_late_ms", "ms"},
    {"serve.max_rps_at_slo", "1/s"},
    {"host.probe_us", "us"},
    {"trace.overhead_pct", "%"},
};

// The machine the reference probe and the bounds in BENCHMARK.json were
// set on (README.md).
constexpr int kReferenceNproc = 4;
constexpr const char* kReferenceCpu = "Intel(R) Xeon(R) Processor";

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto lo = s.find_first_not_of(' ');
    const auto hi = s.find_last_not_of(' ');
    return lo == std::string::npos ? "unknown" : s.substr(lo, hi - lo + 1);
  }
#endif
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Machine and build stamp, printed with every result; warns (never
/// silently passes) when the machine differs from the one the reference
/// probe and the bounds were set on.
void print_meta(const std::map<std::string, std::string>& args, const e2e::WorkloadSpec& spec,
                int nproc, const e2e::HostCorrection& host) {
  const std::string cpu = cpu_model();
  auto& pool = yf::core::ThreadPool::instance();
  const bool same_machine = nproc == kReferenceNproc && cpu == kReferenceCpu;
  std::printf(
      "meta {\"nproc\": %d, \"cpu_model\": %s, \"yf_threads\": %d, \"pool_size\": %zu, "
      "\"pool_fanout\": %zu, \"thread_budget\": %d, \"kernel_backend\": %s, "
      "\"build_type\": %s, \"git_sha\": %s, "
      "\"allocator\": \"glibc defaults\", \"probe_median_us\": %.4f, "
      "\"probe_reference_us\": %.4f, \"host_factor\": %.5f, \"reference_machine\": %s}\n",
      nproc, json_string(cpu).c_str(), spec.pool_threads, pool.size(), pool.fanout(),
      e2e::thread_budget(spec.compute_threads, pool.fanout()),
      json_string(yf::core::active_kernel_backend_name()).c_str(),
      json_string(E2E_BUILD_TYPE).c_str(), json_string(args.at("--git-sha")).c_str(),
      1e-3 * host.median_probe_ns,
      1e-3 * e2e::kReferenceProbeNs, host.factor, same_machine ? "true" : "false");
  if (!same_machine) {
    std::printf("WARNING: this machine (%d CPUs, %s) is not the reference machine (%d CPUs, %s) "
                "the reference probe and the bounds were set on; compare numbers only within "
                "one machine\n",
                nproc, cpu.c_str(), kReferenceNproc, kReferenceCpu);
    std::fprintf(stderr, "e2ebench: machine differs from the reference machine\n");
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload lm_sync|cnn_async|lm_serve --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args = {
      {"--trace", "0"}, {"--trace-out", ""}, {"--git-sha", "unknown"}};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage("missing value");
    if (std::strncmp(argv[i], "--", 2) != 0) return usage("expected --flag value pairs");
    args[argv[i]] = argv[i + 1];
  }
  for (const char* required : {"--workload", "--seed", "--seconds"}) {
    if (!args.count(required)) return usage("missing required flag");
  }

  e2e::RunConfig cfg;
  cfg.workload = args["--workload"];
  char* end = nullptr;
  cfg.seed = std::strtoull(args["--seed"].c_str(), &end, 10);
  if (*end != '\0' || args["--seed"].empty()) return usage("--seed must be an integer");
  cfg.seconds = std::strtod(args["--seconds"].c_str(), &end);
  if (*end != '\0' || !(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (args["--trace"] != "0" && args["--trace"] != "1") return usage("--trace must be 0 or 1");
  cfg.trace = args["--trace"] == "1";
  cfg.trace_path = args["--trace-out"];

  const e2e::WorkloadSpec* spec = e2e::find_workload(cfg.workload);
  if (!spec) return usage("unknown workload");
#ifndef E2E_COUNT_ALLOCS
  if (cfg.trace) {
    std::fprintf(stderr, "e2ebench: traced runs need the counting binary e2ebench_traced\n");
    return 2;
  }
#endif

  // The pool reads YF_THREADS once, when it is first used, which is below;
  // the workload's size overrides any YF_THREADS of the caller.
  if (setenv("YF_THREADS", std::to_string(spec->pool_threads).c_str(), 1) != 0) {
    std::fprintf(stderr, "e2ebench: cannot set YF_THREADS\n");
    return 1;
  }
  const std::size_t fanout = yf::core::ThreadPool::instance().fanout();
  if (fanout != static_cast<std::size_t>(spec->pool_threads)) {
    std::fprintf(stderr, "e2ebench: thread pool fan-out is %zu, expected %d\n", fanout,
                 spec->pool_threads);
    return 1;
  }
  const int nproc = online_cpus();
  if (const std::string refused = e2e::check_thread_budget(*spec, fanout, nproc);
      !refused.empty()) {
    std::fprintf(stderr, "e2ebench: refused: %s\n", refused.c_str());
    return 2;
  }

  e2e::Report report;
  e2e::HostCorrection host;
  try {
    report = spec->run(cfg);
    host = report.correction();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  print_meta(args, *spec, nproc, host);
  for (const auto& line : report.notes) std::printf("%s\n", line.c_str());
  for (const auto& m : report.e2e) {
    std::printf("metric %s = %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.raw) std::printf(" (raw %.6g %s)", *m.raw, m.unit.c_str());
    std::printf("\n");
  }
  std::printf("operations: %lld failed of %lld attempted (updates, episodes, requests)\n",
              static_cast<long long>(report.failed), static_cast<long long>(report.attempted));

  // Assemble exactly the metric set of this mode, in the declared order.
  std::map<std::string, const e2e::Metric*> reported;
  for (const auto& m : cfg.trace ? report.layers : report.e2e) {
    reported[m.name] = &m;
  }
  std::string metrics;
  std::size_t known = 0;
  auto emit = [&](const MetricSpec& spec, bool zero_if_absent) {
    const auto it = reported.find(spec.name);
    double value = 0.0;
    if (it != reported.end()) {
      ++known;
      report.check(it->second->unit == spec.unit, std::string("unit mismatch for ") + spec.name);
      value = it->second->value;
    } else {
      report.check(zero_if_absent, std::string("metric not measured: ") + spec.name);
    }
    if (!std::isfinite(value)) {
      report.check(false, std::string("non-finite value for ") + spec.name);
      value = 0.0;
    }
    if (cfg.trace) std::printf("layer %s = %.6g %s\n", spec.name, value, spec.unit);
    metrics += (metrics.empty() ? "" : ", ") + json_string(spec.name) +
               ": {\"value\": " + e2e::json_number(value) + ", \"unit\": " +
               json_string(spec.unit) + "}";
  };
  if (cfg.trace) {
    for (const auto& spec : kPerLayer) emit(spec, true);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec, false);
  }
  report.check(known == reported.size(), "a reported metric is missing from the declared list");

  for (const auto& f : report.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = report.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
