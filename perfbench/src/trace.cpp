#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "io/table.hpp"

namespace perfbench {

struct Tracer::Track {
  struct Raw {
    std::string name;
    double t0 = 0, t1 = 0;
    int parent = -1;  // index into spans of this track
    std::uint64_t group = 0;
    std::vector<std::pair<std::string, double>> args;
  };
  std::string name;
  int index = 0;
  std::vector<Raw> spans;
  std::vector<int> open;  // stack of open span indices
};

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// The calling thread's track of the tracer it last recorded into. The
/// id (never reused) keeps a later tracer from inheriting a stale track.
struct TrackCache {
  std::uint64_t tracer_id = 0;
  void* track = nullptr;
};
thread_local TrackCache t_cache;

}  // namespace

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Track& Tracer::track() {
  if (t_cache.tracer_id != id_) {
    std::lock_guard<std::mutex> lk(mu_);
    auto t = std::make_unique<Track>();
    t->index = static_cast<int>(tracks_.size());
    t->name = "thread " + std::to_string(t->index);
    t_cache.tracer_id = id_;
    t_cache.track = t.get();
    tracks_.push_back(std::move(t));
  }
  return *static_cast<Track*>(t_cache.track);
}

void Tracer::name_track(const std::string& name) { track().name = name; }

int Tracer::begin(const char* name, std::uint64_t group) {
  Track& t = track();
  Track::Raw r;
  r.name = name;
  r.group = group;
  r.parent = t.open.empty() ? -1 : t.open.back();
  const int h = static_cast<int>(t.spans.size());
  t.open.push_back(h);
  r.t0 = now_us();
  t.spans.push_back(std::move(r));
  return h;
}

void Tracer::arg(int handle, const char* key, double value) {
  track().spans[static_cast<std::size_t>(handle)].args.emplace_back(key, value);
}

void Tracer::end(int handle) {
  const double t1 = now_us();
  Track& t = track();
  t.spans[static_cast<std::size_t>(handle)].t1 = t1;
  if (!t.open.empty() && t.open.back() == handle) t.open.pop_back();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanRecord> out;
  for (const auto& t : tracks_) {
    const int base = static_cast<int>(out.size());
    for (const auto& r : t->spans) {
      SpanRecord s;
      s.name = r.name;
      s.t0_us = r.t0;
      s.t1_us = r.t1;
      s.parent = r.parent < 0 ? -1 : base + r.parent;
      s.group = r.group;
      s.track = t->index;
      s.args = r.args;
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::map<std::string, SelfTime> self_times(const std::vector<SpanRecord>& s) {
  std::vector<std::vector<int>> children(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].parent >= 0) {
      children[static_cast<std::size_t>(s[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double lo = s[i].t0_us, hi = s[i].t1_us;
    std::vector<std::pair<double, double>> iv;
    for (int c : children[i]) {
      const auto& k = s[static_cast<std::size_t>(c)];
      const double a = std::max(lo, k.t0_us), b = std::min(hi, k.t1_us);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_a = 0, cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    SelfTime& st = out[s[i].name];
    ++st.calls;
    st.total_us += hi - lo;
    st.self_us += (hi - lo) - covered;
  }
  return out;
}

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  const auto all = spans();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    out << (i ? "," : "") << '"' << nsp::io::json_escape(meta[i].first)
        << "\":\"" << nsp::io::json_escape(meta[i].second) << '"';
  }
  out << "},\"traceEvents\":[";
  bool first = true;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& t : tracks_) {
      out << (first ? "" : ",")
          << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
          << t->index << ",\"args\":{\"name\":\""
          << nsp::io::json_escape(t->name) << "\"}}";
      first = false;
    }
  }
  char num[64];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    out << (first ? "" : ",") << "{\"ph\":\"X\",\"name\":\""
        << nsp::io::json_escape(s.name) << "\",\"pid\":1,\"tid\":" << s.track;
    std::snprintf(num, sizeof num, ",\"ts\":%.3f,\"dur\":%.3f", s.t0_us,
                  s.t1_us - s.t0_us);
    out << num << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"id\":" << s.group;
    for (const auto& [k, v] : s.args) {
      std::snprintf(num, sizeof num, "%.17g", v);
      out << ",\"" << nsp::io::json_escape(k) << "\":" << num;
    }
    out << "}}";
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
