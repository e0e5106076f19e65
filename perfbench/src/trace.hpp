// In-memory span recorder for the traced run.
//
// Spans are opened and closed from the benchmark's own code around each
// call into a layer's public functions; nothing inside the program is
// instrumented. Each thread records onto its own track (one per SPMD
// rank, one per serve client), so recording takes no lock after a
// thread's first span. A span's parent is the innermost span still open
// on the same track. Spans that belong to one request or one rank step
// carry the same group id. Numeric args record the counts measured at
// the same boundary (messages, bytes, flops).
//
// Everything stays in memory until write_chrome_json(), which emits the
// Chrome trace-event format Perfetto and chrome://tracing open.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A finished span, flattened across tracks. `parent` indexes the same
/// vector (-1 = a root of its track).
struct SpanRecord {
  std::string name;
  double t0_us = 0;
  double t1_us = 0;
  int parent = -1;
  std::uint64_t group = 0;
  int track = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// Per-name totals over a span list.
struct SelfTime {
  std::uint64_t calls = 0;
  double total_us = 0;  ///< summed span durations
  double self_us = 0;   ///< durations minus the time covered by children
};

/// A span's self time is its duration minus the union of its
/// children's intervals clipped to it; summed here per span name.
std::map<std::string, SelfTime> self_times(const std::vector<SpanRecord>& s);

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Names the calling thread's track (shown as the thread name).
  void name_track(const std::string& name);

  /// Opens a span on the calling thread's track; returns its handle.
  int begin(const char* name, std::uint64_t group);
  void arg(int handle, const char* key, double value);
  void end(int handle);

  /// Every span recorded so far, parents resolved to flat indices.
  std::vector<SpanRecord> spans() const;

  /// Writes the spans as Chrome trace-event JSON; `meta` lands in the
  /// top-level "metadata" object as string pairs.
  bool write_chrome_json(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  struct Track;
  Track& track();
  double now_us() const;

  const std::uint64_t id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Track>> tracks_;  // guarded by mu_
};

/// RAII span; a null tracer makes every call a no-op, which is how the
/// untraced runs pay nothing.
class Span {
 public:
  Span(Tracer* t, const char* name, std::uint64_t group = 0)
      : t_(t), h_(t ? t->begin(name, group) : -1) {}
  ~Span() {
    if (t_) t_->end(h_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void arg(const char* key, double value) {
    if (t_) t_->arg(h_, key, value);
  }

 private:
  Tracer* t_;
  int h_;
};

}  // namespace perfbench
