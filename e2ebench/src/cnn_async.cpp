// cnn_async: the paper's Fig. 1 asynchronous setting. MiniResNet+BN on
// SynthCIFAR-10 trained with closed-loop YellowFin (Algorithm 5) behind a
// 4-shard parameter server on a loopback MasterServer; two socket workers
// run closed loops (each waits for its push reply). Scheduling makes the
// trajectory differ run to run, so quality is judged by medians over
// episodes. An episode has a fixed length, but one that has not reached the
// loss target by then trains on until it does, up to a cap: the slowest
// trajectories (those that start from the highest initial loss) need up to
// about 2.5 times the median number of updates, and would otherwise fail an
// episode in a few hundred.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>

#include "async/param_server.hpp"
#include "autograd/ops.hpp"
#include "data/synth_cifar.hpp"
#include "dist/channel.hpp"
#include "dist/client.hpp"
#include "dist/master.hpp"
#include "metrics.hpp"
#include "nn/resnet.hpp"
#include "tuner/yellowfin.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace ag = yf::autograd;

constexpr int kWorkers = 2;
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kRoundsPerWorker = 180;
constexpr std::int64_t kFixedUpdates = kWorkers * kRoundsPerWorker;
/// Rounds per worker of each extension of the race to the target, and the
/// number of updates after which an episode that has still not reached it
/// fails.
constexpr std::int64_t kRaceRoundsPerWorker = 60;
constexpr std::int64_t kRaceCap = 4 * kFixedUpdates;
constexpr std::int64_t kSmooth = 40;
constexpr double kTarget = 1.0;

yf::nn::MiniResNetConfig resnet_config() {
  yf::nn::MiniResNetConfig cfg;
  cfg.base_channels = 4;
  cfg.blocks_per_stage = 1;
  cfg.num_classes = 10;
  return cfg;
}

/// Bytes sent on the loopback interface so far, read from outside the
/// program's own accounting; nullopt where /proc/net/dev is unavailable.
std::optional<std::uint64_t> loopback_tx_bytes() {
  std::ifstream in("/proc/net/dev");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::istringstream name(line.substr(0, colon));
    std::string iface;
    name >> iface;
    if (iface != "lo") continue;
    std::istringstream fields(line.substr(colon + 1));
    std::uint64_t v = 0;
    for (int i = 0; i <= 8; ++i) fields >> v;  // field 8: transmitted bytes
    if (fields) return v;
  }
  return std::nullopt;
}


/// YellowFin with spans around the stages the master runs for every push:
/// begin_apply is the tuner's measurement (clip, Algorithms 2-4,
/// SingleStep), step_span and end_apply the optimizer's sweep. The spans
/// land on the master's connection threads; nothing else changes.
class TimedYellowFin final : public yf::tuner::YellowFin {
 public:
  TimedYellowFin(std::vector<ag::Variable> params, Tracer* tracer)
      : YellowFin(std::move(params)), tracer_(tracer) {}

  yf::optim::ApplyPlan begin_apply(std::span<double> grad) override {
    Scope s(tracer_, "tuner.measure");
    auto plan = YellowFin::begin_apply(grad);
    // begin_apply runs under the server's stage lock, so these counts are
    // serialized; they are read after the master has joined its threads.
    ++applies;
    if (applies <= kFixedUpdates) clipped += last_step_clipped() ? 1 : 0;
    return plan;
  }
  void step_span(const yf::optim::ApplyPlan& plan, std::int64_t lo, std::int64_t hi) override {
    Scope s(tracer_, "optim.sweep");
    YellowFin::step_span(plan, lo, hi);
  }
  void end_apply(const yf::optim::ApplyPlan& plan) override {
    Scope s(tracer_, "optim.sweep");
    YellowFin::end_apply(plan);
  }

  std::int64_t applies = 0;
  std::int64_t clipped = 0;  ///< over the episode's fixed length

 private:
  Tracer* tracer_;
};

/// The worker's channel with a clock on it. On the first pull from each new
/// worker thread (run_channel_workers starts new ones on every call) it
/// pins that thread to a CPU of its own; before each pull (between rounds)
/// it gives the worker thread's probe its turn; it records each
/// round's wall time from pull to push reply, when each update was applied
/// on the shared ProbeClock, and the update's staleness. In a traced
/// episode it also opens the round span and the pull/push spans. One per
/// worker thread, like the channel it wraps.
class ClockedChannel final : public yf::dist::ParamChannel {
 public:
  struct Applied {
    std::int64_t update_index = 0;
    std::int64_t end_ns = 0;  ///< on the shared ProbeClock
    std::int64_t staleness = 0;
  };

  ClockedChannel(yf::dist::ParamChannel& inner, int cpu_slot, ProbeClock& clock, Tracer* tracer)
      : inner_(inner),
        cpu_slot_(cpu_slot),
        clock_(clock),
        prober_(&clock, 2 * kRoundsPerWorker),
        tracer_(tracer) {
    round_ms.reserve(kRoundsPerWorker);
    applied.reserve(kRoundsPerWorker);
  }

  std::int64_t size() const override { return inner_.size(); }
  std::int64_t shard_count() const override { return inner_.shard_count(); }

  void pull(std::span<double> dst, yf::async::PullTicket& ticket) override {
    if (pinned_ != std::this_thread::get_id()) {  // a new worker thread
      pin_this_thread(cpu_slot_);
      pinned_ = std::this_thread::get_id();
    }
    prober_.maybe_run();
    // Wall time: this thread's probe ran before it, and another worker's
    // probe does not hold this round up.
    round_start_ = now_ns();
    if (tracer_) round_span_ = tracer_->begin("train.step");
    Scope s(tracer_, "dist.pull");
    inner_.pull(dst, ticket);
  }

  yf::async::ApplyStats push(std::span<double> grad,
                             const yf::async::PullTicket& ticket) override {
    yf::async::ApplyStats stats;
    {
      Scope s(tracer_, "dist.push");
      stats = inner_.push(grad, ticket);
    }
    if (tracer_) tracer_->end(round_span_);
    const std::int64_t end = now_ns();
    // Versions count applications per shard; the oldest shard read bounds
    // how many updates landed between this pull and this push.
    std::int64_t oldest = stats.update_index - 1;
    for (const auto v : ticket.versions) oldest = std::min(oldest, v);
    round_ms.push_back(1e-6 * static_cast<double>(end - round_start_));
    applied.push_back({stats.update_index, clock_.now(), stats.update_index - 1 - oldest});
    return stats;
  }

  const Prober& prober() const { return prober_; }

  std::vector<double> round_ms;
  std::vector<Applied> applied;

 private:
  yf::dist::ParamChannel& inner_;
  int cpu_slot_;
  std::thread::id pinned_;
  ProbeClock& clock_;
  Prober prober_;
  Tracer* tracer_;
  std::int64_t round_start_ = 0;
  std::int32_t round_span_ = -1;
};

struct CnnEpisode {
  EpisodeTiming timing;
  std::vector<double> losses;
  std::vector<double> round_ms;
  std::vector<std::int64_t> staleness;
  std::vector<yf::async::ApplyStats> stats;
  std::optional<std::uint64_t> loopback_bytes;
  std::int64_t reconnects = 0;
  std::int64_t clipped = 0;
  std::int64_t params = 0;
  HeapCounters heap;
};

CnnEpisode run_episode(std::uint64_t seed, Tracer* tracer, Report& report) {
  CnnEpisode ep;
  const std::size_t probes0 = report.probe_ns.size();
  // The workers advance one trajectory together, so each one's probe
  // holds the update stream up by about half its length.
  ProbeClock clock(kWorkers);
  const std::int64_t setup0 = clock.now();
  // Fixed task (class prototypes), seed-driven init and minibatch streams:
  // the loss floor, and with it the target, is the same for every seed.
  const yf::data::SynthCifar dataset([] {
    yf::data::SynthCifarConfig cfg;
    cfg.classes = 10;
    cfg.height = 8;
    cfg.width = 8;
    cfg.noise = 0.5;
    cfg.jitter = 0.2;
    cfg.seed = 7;
    return cfg;
  }());
  yf::tensor::Rng master_rng(seed);
  yf::nn::MiniResNet master(resnet_config(), master_rng);
  // Default options on purpose (README.md): the benches' quick-mode
  // override let async runs fall back to chance loss.
  auto opt = std::make_shared<TimedYellowFin>(master.parameters(), tracer);
  yf::async::ParamServerOptions sopts;
  sopts.shards = 4;
  sopts.measure = true;
  sopts.closed_loop = true;
  yf::async::ShardedParamServer server(opt, sopts);
  // The master's threads inherit the workers' CPUs (README.md, "CPU
  // placement"): a worker waits while the master applies its push, and
  // spreading the master over two more CPUs raised the shared host's steal
  // time from ~0.2% to ~10%.
  const auto net_owner = [&] {
    const PinThread pin(0, kWorkers);
    return std::make_unique<yf::dist::MasterServer>(server);
  }();
  yf::dist::MasterServer& net = *net_owner;

  std::vector<std::unique_ptr<yf::nn::MiniResNet>> replicas;
  std::vector<yf::tensor::Rng> rngs;
  std::vector<std::unique_ptr<yf::dist::RemoteParamClient>> clients;
  std::vector<std::unique_ptr<ClockedChannel>> channels;
  std::vector<yf::dist::ChannelWorker> workers;
  for (int w = 0; w < kWorkers; ++w) {
    yf::tensor::Rng init(seed + 100 * static_cast<std::uint64_t>(w + 1));
    replicas.push_back(std::make_unique<yf::nn::MiniResNet>(resnet_config(), init));
    rngs.emplace_back(seed + 1000 * static_cast<std::uint64_t>(w + 1));
    yf::dist::ClientOptions copts;
    copts.port = net.port();
    clients.push_back(std::make_unique<yf::dist::RemoteParamClient>(copts));
    channels.push_back(std::make_unique<ClockedChannel>(*clients.back(), w, clock, tracer));
  }
  for (int w = 0; w < kWorkers; ++w) {
    yf::nn::MiniResNet& model = *replicas[static_cast<std::size_t>(w)];
    yf::tensor::Rng& rng = rngs[static_cast<std::size_t>(w)];
    auto grad_fn = [&dataset, &model, &rng, tracer] {
      yf::data::ImageBatch batch;
      {
        Scope s(tracer, "data.sample");
        batch = dataset.sample(kBatch, rng);
      }
      ag::Variable loss;
      {
        Scope s(tracer, "nn.forward");
        loss = ag::softmax_cross_entropy(model.forward(ag::Variable(batch.images)), batch.labels);
      }
      {
        Scope s(tracer, "autograd.backward");
        loss.backward();
      }
      return loss.value().item();
    };
    // Warm-up outside the training stream; run_channel_workers zeroes the
    // replica's gradients before every round.
    yf::tensor::Rng warm_rng(0xC0FFEE);
    const auto warm = dataset.sample(kBatch, warm_rng);
    ag::softmax_cross_entropy(model.forward(ag::Variable(warm.images)), warm.labels).backward();
    workers.push_back({channels[static_cast<std::size_t>(w)].get(), model.parameters(), grad_fn,
                       nullptr});
  }

  const auto bytes0 = loopback_tx_bytes();
  const HeapCounters heap0 = HeapCounters::now();
  const std::int64_t t0 = clock.now();
  yf::dist::ChannelRunOptions ropts;
  ropts.steps_per_worker = kRoundsPerWorker;
  auto run = yf::dist::run_channel_workers(workers, ropts);
  ep.heap = HeapCounters::now() - heap0;
  const auto bytes1 = loopback_tx_bytes();
  if (bytes0 && bytes1) ep.loopback_bytes = *bytes1 - *bytes0;
  ropts.steps_per_worker = kRaceRoundsPerWorker;
  while (!updates_to_target(run.losses, kSmooth, kTarget) && run.total_updates < kRaceCap) {
    const auto more = yf::dist::run_channel_workers(workers, ropts);
    run.losses.insert(run.losses.end(), more.losses.begin(), more.losses.end());
    run.stats.insert(run.stats.end(), more.stats.begin(), more.stats.end());
    run.total_updates = more.total_updates;
  }

  for (auto& c : clients) {
    ep.reconnects += c->reconnects();
    c->shutdown();
  }
  report.check(net.wait_for_clients(kWorkers, std::chrono::seconds(10)),
               "cnn_async: workers did not complete the shutdown handshake");
  net.shutdown();
  const auto mstats = net.stats();
  ep.reconnects += mstats.retried_pushes;
  ep.clipped = opt->clipped;
  ep.params = server.size();

  const std::int64_t total = static_cast<std::int64_t>(run.losses.size());
  report.check(run.total_updates == total && server.updates() == total &&
                   mstats.pushes == total && opt->applies == total,
               "cnn_async: applied pushes (" + std::to_string(mstats.pushes) + ", server " +
                   std::to_string(server.updates()) + ") != updates run (" +
                   std::to_string(total) + ")");
  report.check(mstats.errors == 0,
               "cnn_async: master sent " + std::to_string(mstats.errors) + " error frames");
  report.check(ep.reconnects == 0,
               "cnn_async: " + std::to_string(ep.reconnects) + " reconnects or replayed pushes");
  report.failed += static_cast<std::int64_t>(mstats.errors);

  std::vector<std::int64_t> update_end(static_cast<std::size_t>(total), 0);
  std::vector<std::pair<std::int64_t, double>> rounds;  // (end, ms), to put in time order
  for (const auto& ch : channels) {
    report.add_probes(ch->prober());
    for (std::size_t i = 0; i < ch->applied.size(); ++i) {
      const auto& a = ch->applied[i];
      if (a.update_index >= 1 && a.update_index <= total) {
        update_end[static_cast<std::size_t>(a.update_index - 1)] = a.end_ns;
      }
      // Latencies and staleness describe the fixed length, like the rate.
      if (a.update_index > kFixedUpdates) continue;
      rounds.emplace_back(a.end_ns, ch->round_ms[i]);
      ep.staleness.push_back(a.staleness);
    }
  }
  std::sort(rounds.begin(), rounds.end());
  for (const auto& r : rounds) ep.round_ms.push_back(r.second);
  // Replies can arrive out of order; an update counts as applied when the
  // last of the updates up to it has been acknowledged.
  for (std::size_t i = 1; i < update_end.size(); ++i) {
    update_end[i] = std::max(update_end[i], update_end[i - 1]);
  }
  ep.losses = run.losses;
  ep.stats.assign(run.stats.begin(), run.stats.begin() + kFixedUpdates);
  // Set-up ends when the master has applied the first update.
  const double setup_s = 1e-9 * static_cast<double>(update_end.front() - setup0);
  ep.timing = finish_episode(setup_s, t0, update_end, ep.losses, kFixedUpdates, kSmooth, kTarget,
                             std::span<const std::int64_t>(report.probe_ns).subspan(probes0));
  ep.timing.minor_faults = ep.heap.minor_faults;
  return ep;
}

double mean(std::span<const double> v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
}

}  // namespace

Report run_cnn_async(const RunConfig& cfg) {
  Report report;
  const std::int64_t run0 = now_ns();
  std::vector<EpisodeTiming> untraced, traced;
  MappedVector<double> round_ms, round_ref_ms, staleness, mu_hat, applied_mu;
  MappedVector<Span> spans;
  HeapCounters traced_heap, untraced_heap;
  std::uint64_t loopback_bytes = 0;
  std::int64_t traced_updates = 0, untraced_updates = 0, bytes_updates = 0, reconnects = 0,
               clipped = 0;
  double staleness_max = 0.0;
  std::int64_t params = 0;

  for (int e = 0; e < 2 || seconds_since(run0) < cfg.seconds; ++e) {
    const bool traced_ep = cfg.trace && e % 2 == 1;
    std::unique_ptr<Tracer> tracer;
    if (traced_ep) tracer = std::make_unique<Tracer>(8 * kRoundsPerWorker);
    CnnEpisode ep = run_episode(episode_seed(cfg.seed, e, traced_ep), tracer.get(), report);
    count_updates(report, ep.losses);
    reconnects += ep.reconnects;
    params = ep.params;
    if (ep.loopback_bytes) {
      loopback_bytes += *ep.loopback_bytes;
      bytes_updates += ep.timing.updates;
    }
    if (!traced_ep) {
      untraced.push_back(ep.timing);
      untraced_updates += ep.timing.updates;
      untraced_heap += ep.heap;
      round_ms.insert(round_ms.end(), ep.round_ms.begin(), ep.round_ms.end());
      for (const double ms : ep.round_ms) round_ref_ms.push_back(ep.timing.host.time(ms));
      continue;
    }
    traced.push_back(ep.timing);
    traced_updates += ep.timing.updates;
    traced_heap += ep.heap;
    clipped += ep.clipped;
    append_spans(spans, tracer->spans());
    for (const auto s : ep.staleness) {
      staleness.push_back(static_cast<double>(s));
      staleness_max = std::max(staleness_max, static_cast<double>(s));
    }
    for (const auto& st : ep.stats) {
      if (st.mu_hat_total) mu_hat.push_back(*st.mu_hat_total);
      applied_mu.push_back(st.applied_momentum);
    }
  }

  report_e2e(report, untraced, round_ms, round_ref_ms, "worker round");
  char line[240];
  std::snprintf(line, sizeof(line),
                "model parameters: %lld; loopback bytes per update: %.1f (%lld updates); minor "
                "page faults per update (untraced): %.2f; reconnects + replayed pushes: %lld",
                static_cast<long long>(params),
                bytes_updates ? static_cast<double>(loopback_bytes) /
                                    static_cast<double>(bytes_updates)
                              : 0.0,
                static_cast<long long>(bytes_updates),
                static_cast<double>(untraced_heap.minor_faults) /
                    static_cast<double>(untraced_updates),
                static_cast<long long>(reconnects));
  report.notes.emplace_back(line);
  if (cfg.trace) {
    report_layer_times(report, spans);
    double compute = 0.0, rounds = 0.0;
    for (const Span& s : spans) {
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      const std::string_view n = s.name;
      if (n == "train.step") rounds += d;
      if (n == "data.sample" || n == "nn.forward" || n == "autograd.backward") compute += d;
    }
    report.layer_metric("dist.compute_share", "ratio", rounds > 0.0 ? compute / rounds : 0.0);
    report.layer_metric("dist.reconnects", "count", static_cast<double>(reconnects));
    if (bytes_updates > 0) {
      report.layer_metric("dist.bytes_per_update", "B",
                          static_cast<double>(loopback_bytes) / static_cast<double>(bytes_updates));
    }
    report_heap(report, traced_heap, traced_updates);
    report.layer_metric("tuner.clip_ratio", "ratio",
                        static_cast<double>(clipped) / static_cast<double>(traced_updates));
    report.layer_metric("async.staleness_mean", "updates", mean(staleness));
    report.layer_metric("async.staleness_max", "updates", staleness_max);
    report.layer_metric("async.mu_hat_total_mean", "mu", mean(mu_hat));
    report.layer_metric("async.applied_momentum_mean", "mu", mean(applied_mu));
    report_overhead(report, untraced, traced, spans.size());
    if (!cfg.trace_path.empty()) write_chrome_json(cfg.trace_path, spans);
  }
  return report;
}

}  // namespace e2e
