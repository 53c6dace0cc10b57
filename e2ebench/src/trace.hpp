// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// library layer; nothing inside the library is instrumented. Every thread
// appends to its own pre-reserved, mapped buffer (mapped.hpp), so
// recording takes no lock and never touches malloc (the traced binary
// counts heap allocations per step, and the recorder must not show up in
// them).
// A span opened while another is open on the same thread becomes its
// child and shares its id; a span opened with nothing open starts a new
// id (one id per training step, worker round or served request), unique
// within the process.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "mapped.hpp"
#include "probe.hpp"

namespace e2e {

struct Span {
  const char* name = "";  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same span list, -1 for roots
  std::int32_t tid = 0;      ///< recording thread, numbered from 0
  std::uint64_t id = 0;      ///< shared by every span of one step or request
};

/// Self time of every span: its duration minus the part of it that its
/// children cover (child intervals are clipped to the parent and merged,
/// so overlapping children are not subtracted twice).
std::vector<std::int64_t> self_times_ns(std::span<const Span> spans);

class Tracer {
 public:
  explicit Tracer(std::size_t reserve_per_thread = std::size_t{1} << 16);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span on the calling thread; returns its handle for end().
  std::int32_t begin(const char* name);
  /// Close the span `handle` of the calling thread (must be its innermost
  /// open span).
  void end(std::int32_t handle);

  /// All spans, threads concatenated, parents re-indexed. Call only once
  /// every recording thread has stopped.
  MappedVector<Span> spans() const;

 private:
  struct ThreadBuf {
    std::int32_t tid = 0;
    MappedVector<Span> spans;
    std::vector<std::int32_t> open;
  };
  ThreadBuf& local();

  std::uint64_t generation_;
  std::size_t reserve_;
  mutable std::mutex mu_;  ///< guards bufs_ (registration only)
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span; a null tracer makes it a no-op, so untraced and traced code
/// paths are the same statements.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), handle_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t handle_;
};

/// Append `more` to `all`, re-indexing parents.
void append_spans(MappedVector<Span>& all, std::span<const Span> more);

/// Chrome trace-event JSON ("X" events, microseconds from the first span).
void write_chrome_json(const std::string& path, std::span<const Span> spans);

/// Per-name self-time samples (ms) of a span list.
std::map<std::string, std::vector<double>> self_ms_by_name(std::span<const Span> spans);

}  // namespace e2e
