#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace e2e {

std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const auto lo = std::max(s.start_ns, p.start_ns);
    const auto hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

namespace {
std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint64_t> g_next_id{0};
}  // namespace

Tracer::Tracer(std::size_t reserve_per_thread)
    : generation_(g_generation.fetch_add(1) + 1), reserve_(reserve_per_thread) {}

Tracer::ThreadBuf& Tracer::local() {
  // The cache is keyed by generation, not address, so a tracer built where
  // a destroyed one lived never inherits its buffers.
  thread_local std::uint64_t cached_generation = 0;
  thread_local ThreadBuf* cached = nullptr;
  if (cached_generation != generation_) {
    auto buf = std::make_unique<ThreadBuf>();
    buf->spans.reserve(reserve_);
    buf->open.reserve(16);
    std::lock_guard<std::mutex> lock(mu_);
    buf->tid = static_cast<std::int32_t>(bufs_.size());
    cached = buf.get();
    bufs_.push_back(std::move(buf));
    cached_generation = generation_;
  }
  return *cached;
}

std::int32_t Tracer::begin(const char* name) {
  ThreadBuf& buf = local();
  Span s;
  s.name = name;
  s.tid = buf.tid;
  if (buf.open.empty()) {
    s.id = g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  } else {
    s.parent = buf.open.back();
    s.id = buf.spans[static_cast<std::size_t>(s.parent)].id;
  }
  const auto handle = static_cast<std::int32_t>(buf.spans.size());
  buf.open.push_back(handle);
  s.start_ns = now_ns();
  buf.spans.push_back(s);
  return handle;
}

void Tracer::end(std::int32_t handle) {
  const std::int64_t t = now_ns();
  ThreadBuf& buf = local();
  if (buf.open.empty() || buf.open.back() != handle) {
    throw std::logic_error("Tracer::end: span closed out of order");
  }
  buf.open.pop_back();
  buf.spans[static_cast<std::size_t>(handle)].end_ns = t;
}

MappedVector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  MappedVector<Span> all;
  for (const auto& buf : bufs_) {
    if (!buf->open.empty()) throw std::logic_error("Tracer::spans: a span is still open");
    append_spans(all, buf->spans);
  }
  return all;
}

void append_spans(MappedVector<Span>& all, std::span<const Span> more) {
  const auto offset = static_cast<std::int32_t>(all.size());
  for (Span s : more) {
    if (s.parent >= 0) s.parent += offset;
    all.push_back(s);
  }
}

void write_chrome_json(const std::string& path, std::span<const Span> spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t t0 = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < t0) t0 = spans[i].start_ns;
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << 1e-3 * static_cast<double>(s.start_ns - t0)
        << ",\"dur\":" << 1e-3 * static_cast<double>(s.end_ns - s.start_ns)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

std::map<std::string, std::vector<double>> self_ms_by_name(std::span<const Span> spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(1e-6 * static_cast<double>(self[i]));
  }
  return by_name;
}

}  // namespace e2e
