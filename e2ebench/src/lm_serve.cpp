// lm_serve: the lm_sync model trained by one thread that publishes after
// every step, while an LMServer with default ServeOptions answers an
// open-loop request stream: two sender threads at a fixed offered rate
// well below capacity, each request timed from its due time. The same LSTM
// forward runs read-only and batched beside the writer, so this is where
// training and serving interfere.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "lm_task.hpp"
#include "metrics.hpp"
#include "serve/engine.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr int kSenders = 2;
constexpr double kOfferedRate = 2000.0;  ///< requests/s over both senders
constexpr double kSloMs = 5.0;           ///< p99 limit of the rate ladder
/// Each ladder rung is measured this many times and meets the limit when
/// most of its repeats do, so one host stall cannot end the ladder.
constexpr int kRungRepeats = 3;
/// Requests per repeat: the p99 then has 10 samples beyond it.
constexpr double kRepeatRequests = 1000;
/// Rates of the ladder, from below the offered rate up. Three repeats of
/// 1000 requests on every rung take at most ~9 s.
constexpr double kLadder[] = {1000, 1500, 2000, 3000, 4000, 6000};
constexpr double kLadderSeconds = 9.0;
constexpr std::size_t kRequestPool = 32;

/// Stops and joins a helper thread when the scope ends, exceptions
/// included, so it never outlives the objects it uses.
class StopAndJoin {
 public:
  StopAndJoin(std::atomic<bool>& stop, std::thread& thread) : stop_(stop), thread_(thread) {}
  ~StopAndJoin() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  StopAndJoin(const StopAndJoin&) = delete;
  StopAndJoin& operator=(const StopAndJoin&) = delete;

 private:
  std::atomic<bool>& stop_;
  std::thread& thread_;
};

// CPU placement. The scheduler tends to pack the serve worker and the
// senders, which wake each other, onto the trainer's CPU, and spreading
// them over four CPUs raises the shared host's steal time; both swing the
// numbers from run to run (README.md, "CPU placement"). So the trainer has
// a CPU of its own, and the senders and the serve worker share a second.
constexpr int kTrainerCpu = 0;
constexpr int kServeCpu = 1;

/// An LMServer with default ServeOptions whose worker threads run on
/// kServeCpu (they inherit the pin of the thread that starts them).
std::unique_ptr<yf::serve::LMServer> make_server(const yf::nn::LSTMLanguageModel& model) {
  const PinThread pin(kServeCpu);
  return std::make_unique<yf::serve::LMServer>(model);
}

struct SenderLog {
  MappedVector<OpenLoopRecord> records;
  MappedVector<double> version_lag;
  std::vector<std::int64_t> probe_ns;
  std::int64_t probe_total_ns = 0;
  std::int64_t failed = 0;
};

/// A sender probes only when its next request is due at least this far
/// ahead, so the probe fills time it would sleep and never delays a send.
constexpr std::int64_t kProbeSlackNs = 200'000;

/// Fixed request token sequences from the seed; senders cycle through them.
std::vector<std::vector<std::int64_t>> request_pool(std::uint64_t seed, std::int64_t seq_len,
                                                    std::int64_t vocab) {
  yf::tensor::Rng rng(seed + 5000);
  std::vector<std::vector<std::int64_t>> pool(kRequestPool);
  for (auto& req : pool) {
    req.resize(static_cast<std::size_t>(seq_len));
    for (auto& tok : req) tok = rng.index(vocab);
  }
  return pool;
}

/// Open-loop generator: `kSenders` threads share one schedule of `rate`
/// requests/s starting at `start_ns` and send until `stop` is set or the
/// schedule passes `end_ns`; logs are reserved for `reserve_s` seconds.
/// Sending is blocking (infer returns when served), so a slow reply delays
/// the sender's next request, and that wait is charged to the request
/// through its due time. With `probe` set, each sender runs the host probe
/// in its idle time.
std::vector<SenderLog> run_senders(yf::serve::LMServer& server,
                                   const std::vector<std::vector<std::int64_t>>& pool,
                                   double rate, std::int64_t start_ns, std::int64_t end_ns,
                                   double reserve_s, const std::atomic<bool>& stop,
                                   Tracer* tracer, bool probe) {
  std::vector<SenderLog> logs(kSenders);
  std::vector<std::thread> threads;
  const auto expected = static_cast<std::size_t>(rate / kSenders * reserve_s + 64);
  for (int s = 0; s < kSenders; ++s) {
    logs[static_cast<std::size_t>(s)].records.reserve(expected);
    logs[static_cast<std::size_t>(s)].version_lag.reserve(expected);
  }
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      const PinThread pin(kServeCpu);
      SenderLog& log = logs[static_cast<std::size_t>(s)];
      Prober prober(nullptr, expected);
      std::vector<double> logits(
          static_cast<std::size_t>(server.options().seq_len * server.vocab()));
      for (std::int64_t i = 0;; ++i) {
        const std::int64_t due = due_time_ns(start_ns, rate, kSenders, s, i);
        if (due >= end_ns || stop.load(std::memory_order_acquire)) break;
        if (probe && due - now_ns() > kProbeSlackNs) prober.maybe_run();
        const std::int64_t wait = due - now_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        OpenLoopRecord rec;
        rec.due_ns = due;
        rec.sent_ns = now_ns();
        const auto& tokens = pool[static_cast<std::size_t>(i * kSenders + s) % pool.size()];
        std::uint64_t version = 0;
        try {
          Scope span(tracer, "serve.request");
          version = server.infer(tokens, logits);
        } catch (const std::exception&) {
          ++log.failed;  // counted as failed; its latency is not a success
          continue;
        }
        rec.done_ns = now_ns();
        log.records.push_back(rec);
        // latest_version() may race a publish that recycles its slot; a
        // reading below the served version counts as no lag.
        const auto latest = server.store().latest_version();
        log.version_lag.push_back(latest > version ? static_cast<double>(latest - version) : 0.0);
      }
      log.probe_ns = prober.samples_ns();
      log.probe_total_ns = prober.total_ns();
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

struct ServeEpisode {
  EpisodeTiming timing;
  std::vector<double> losses;
  std::vector<SenderLog> senders;
  double batch_mean = 0.0;
  std::int64_t clipped = 0;
  HeapCounters heap;
  /// Correction of the request latencies, from the senders' probes on the
  /// serving CPU; `timing.host` comes from the trainer's own probes.
  HostCorrection serve_host;
};

ServeEpisode run_episode(std::uint64_t seed, Tracer* tracer, Report& report) {
  ServeEpisode ep;
  ProbeClock clock;  // the trainer's: the senders probe in their idle time
  Prober prober(&clock, 2 * kLmSteps);
  const std::int64_t setup0 = clock.now();
  LmTask task(seed);
  yf::tuner::YellowFin opt(task.model.parameters());  // defaults, as lm_sync
  task.warm_up(opt);
  // Built after the optimizer so the server adopts the trained arena.
  const auto server_owner = make_server(task.model);
  yf::serve::LMServer& server = *server_owner;
  const auto pool = request_pool(seed, server.options().seq_len, server.vocab());
  std::vector<double> logits(static_cast<std::size_t>(server.options().seq_len * server.vocab()));
  (void)server.infer(pool[0], logits);
  // Set-up ends when the first request has been served.
  const double setup_s = 1e-9 * static_cast<double>(clock.now() - setup0);
  for (const auto& req : pool) (void)server.infer(req, logits);

  const auto before = server.stats();
  std::atomic<bool> stop{false};
  std::vector<SenderLog> logs;
  const std::int64_t t0 = clock.now();
  const std::int64_t t0_wall = now_ns();
  std::vector<std::int64_t> starts;
  starts.reserve(kLmSteps);
  ep.losses.reserve(kLmSteps);
  std::int64_t end = 0;
  {
    std::thread generator([&] {
      logs = run_senders(server, pool, kOfferedRate, t0_wall,
                         std::numeric_limits<std::int64_t>::max(), 4.0, stop, tracer, true);
    });
    StopAndJoin stop_generator(stop, generator);
    const PinThread pin(kTrainerCpu);
    const HeapCounters heap0 = HeapCounters::now();
    for (std::int64_t it = 0; it < kLmSteps; ++it) {
      prober.maybe_run();
      Scope step(tracer, "train.step");
      starts.push_back(clock.now());
      ep.losses.push_back(lm_manual_step(task, opt, tracer, ep.clipped));
      Scope publish(tracer, "serve.publish");
      server.publish();
    }
    end = clock.now();
    ep.heap = HeapCounters::now() - heap0;
  }
  ep.senders = std::move(logs);
  report.add_probes(prober);
  std::vector<std::int64_t> sender_probes;
  for (const auto& log : ep.senders) {
    sender_probes.insert(sender_probes.end(), log.probe_ns.begin(), log.probe_ns.end());
    report.probe_total_ns += log.probe_total_ns;
  }
  report.probe_ns.insert(report.probe_ns.end(), sender_probes.begin(), sender_probes.end());
  const auto after = server.stats();
  ep.batch_mean = static_cast<double>(after.requests - before.requests) /
                  static_cast<double>(std::max<std::uint64_t>(1, after.batches - before.batches));

  // Training has stopped and its last step is published: a fixed request
  // must come back bit-identical to the model's own forward.
  const auto version = server.infer(pool[0], logits);
  const auto ref = task.model.logits(pool[0], 1, server.options().seq_len).value();
  bool same = version == server.store().latest_version() &&
              static_cast<std::size_t>(ref.size()) == logits.size();
  for (std::size_t i = 0; same && i < logits.size(); ++i) {
    same = ref[static_cast<std::int64_t>(i)] == logits[i];
  }
  report.check(same, "lm_serve: served logits differ from LSTMLanguageModel::logits on the "
                     "final published parameters");
  server.shutdown();

  std::vector<std::int64_t> update_end(starts.begin() + 1, starts.end());
  update_end.push_back(end);
  ep.timing = finish_episode(setup_s, t0, update_end, ep.losses,
                             static_cast<std::int64_t>(ep.losses.size()), kLmSmooth, kLmTarget,
                             prober.samples_ns());
  ep.timing.minor_faults = ep.heap.minor_faults;
  // Senders that never had time to spare took no probe; their requests
  // are then corrected like the trainer.
  ep.serve_host = sender_probes.empty() ? ep.timing.host : host_correction(sender_probes);
  return ep;
}

/// One ladder repeat at `rate`: whether its p99 meets the limit with no
/// failed request and a generator backlog that does not grow; appends its
/// p99 and backlog to `detail`.
bool repeat_meets(yf::serve::LMServer& server, const std::vector<std::vector<std::int64_t>>& pool,
                  double rate, Report& report, std::string& detail) {
  const double seconds = kRepeatRequests / rate;
  const std::int64_t start = now_ns() + 1'000'000;
  const std::atomic<bool> never{false};
  const auto logs = run_senders(server, pool, rate, start,
                                start + static_cast<std::int64_t>(seconds * 1e9), seconds, never,
                                nullptr, false);
  std::vector<OpenLoopRecord> records;
  std::int64_t failed = 0;
  for (const auto& log : logs) {
    records.insert(records.end(), log.records.begin(), log.records.end());
    failed += log.failed;
  }
  std::vector<double> lat;
  for (const auto& r : records) lat.push_back(latency_ms(r));
  report.attempted += static_cast<std::int64_t>(records.size()) + failed;
  report.failed += failed;
  const Summary s = summarize(lat);
  const bool grew = backlog_grew(records, 1.0);
  char part[80];
  std::snprintf(part, sizeof(part), " p99 %.4f ms (n=%lld%s%s),", s.p99,
                static_cast<long long>(s.n), grew ? ", backlog grew" : "",
                failed ? ", failures" : "");
  detail += part;
  return failed == 0 && s.n > 0 && s.p99 <= kSloMs && !grew;
}

/// The highest ladder rate at which most repeats meet the p99 limit,
/// measured while a trainer thread keeps stepping and publishing. 0 when
/// even the first rung misses.
double max_rate_at_slo(std::uint64_t seed, Report& report) {
  LmTask task(seed);
  yf::tuner::YellowFin opt(task.model.parameters());
  const auto server_owner = make_server(task.model);
  yf::serve::LMServer& server = *server_owner;
  const auto pool = request_pool(seed, server.options().seq_len, server.vocab());
  std::atomic<bool> stop_trainer{false};
  std::thread trainer([&] {
    const PinThread pin(kTrainerCpu);
    std::int64_t clipped = 0;
    while (!stop_trainer.load(std::memory_order_acquire)) {
      (void)lm_manual_step(task, opt, nullptr, clipped);
      server.publish();
    }
  });
  StopAndJoin stop_and_join_trainer(stop_trainer, trainer);
  double best = 0.0;
  for (const double rate : kLadder) {
    std::string detail;
    int met = 0;
    for (int r = 0; r < kRungRepeats; ++r) met += repeat_meets(server, pool, rate, report, detail);
    const bool ok = 2 * met > kRungRepeats;
    char line[60];
    std::snprintf(line, sizeof(line), "ladder %6.0f req/s:", rate);
    report.notes.push_back(line + detail + " " + std::to_string(met) + " of " +
                           std::to_string(kRungRepeats) + " meet -> " +
                           (ok ? "meets" : "misses"));
    if (!ok) break;
    best = rate;
  }
  return best;
}

}  // namespace

Report run_lm_serve(const RunConfig& cfg) {
  Report report;
  const std::int64_t run0 = now_ns();
  std::vector<EpisodeTiming> untraced, traced;
  MappedVector<double> latency, latency_ref, late, lag;  // latency raw and host-corrected
  std::vector<double> batch_mean;
  std::vector<double> previous;  // trainer curve of the last untraced episode
  MappedVector<Span> spans;
  std::int64_t traced_steps = 0, untraced_steps = 0, clipped = 0;
  HeapCounters traced_heap, untraced_heap;

  // A traced run keeps time for the rate ladder after the episodes.
  const double episode_seconds = cfg.trace ? cfg.seconds - kLadderSeconds : cfg.seconds;
  for (int e = 0; e < 2 || seconds_since(run0) < episode_seconds; ++e) {
    const bool traced_ep = cfg.trace && e % 2 == 1;
    std::unique_ptr<Tracer> tracer;
    if (traced_ep) tracer = std::make_unique<Tracer>(8 * kLmSteps);
    ServeEpisode ep = run_episode(episode_seed(cfg.seed, e, traced_ep), tracer.get(), report);
    count_updates(report, ep.losses);
    if (traced_ep) {
      report.check(ep.losses == previous,
                   "lm_serve: traced trainer diverges from the untraced one on the same "
                   "trajectory (bit-identity)");
    }
    for (const auto& log : ep.senders) {
      report.attempted += static_cast<std::int64_t>(log.records.size()) + log.failed;
      report.failed += log.failed;
    }
    if (!traced_ep) {
      previous = ep.losses;
      untraced.push_back(ep.timing);
      untraced_steps += kLmSteps;
      untraced_heap += ep.heap;
      for (const auto& log : ep.senders) {
        for (const auto& r : log.records) {
          latency.push_back(latency_ms(r));
          latency_ref.push_back(ep.serve_host.time(latency_ms(r)));
        }
      }
      continue;
    }
    traced.push_back(ep.timing);
    traced_steps += kLmSteps;
    clipped += ep.clipped;
    traced_heap += ep.heap;
    batch_mean.push_back(ep.batch_mean);
    append_spans(spans, tracer->spans());
    for (const auto& log : ep.senders) {
      for (const auto& r : log.records) late.push_back(lateness_ms(r));
      lag.insert(lag.end(), log.version_lag.begin(), log.version_lag.end());
    }
  }
  // Before any reporting, which frees malloc'd copies of the samples.
  const double max_rps = cfg.trace ? max_rate_at_slo(cfg.seed, report) : 0.0;

  report_e2e(report, untraced, latency, latency_ref, "request (from due time)");
  report.notes.push_back("minor page faults per trainer update (untraced, whole process): " +
                         std::to_string(static_cast<double>(untraced_heap.minor_faults) /
                                        static_cast<double>(untraced_steps)));
  if (cfg.trace) {
    report_layer_times(report, spans);
    report_heap(report, traced_heap, traced_steps);
    report.layer_metric("tuner.clip_ratio", "ratio",
                        static_cast<double>(clipped) / static_cast<double>(traced_steps));
    report.layer_metric("serve.batch_mean", "req/batch", median(batch_mean));
    double lag_sum = 0.0;
    for (const double l : lag) lag_sum += l;
    report.layer_metric("serve.version_lag", "versions",
                        lag.empty() ? 0.0 : lag_sum / static_cast<double>(lag.size()));
    report.layer_metric("serve.gen_late_ms", "ms", summarize({late.begin(), late.end()}).p99);
    report_overhead(report, untraced, traced, spans.size());
    if (!cfg.trace_path.empty()) write_chrome_json(cfg.trace_path, spans);
    report.layer_metric("serve.max_rps_at_slo", "1/s", max_rps);
  }
  return report;
}

}  // namespace e2e
