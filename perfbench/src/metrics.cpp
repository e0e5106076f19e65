#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"work_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // core: the live solver and its stage kernels
      {"core.step_ms", "ms"},
      {"core.primitives_ms", "ms"},
      {"core.stresses_ms", "ms"},
      {"core.flux_ms", "ms"},
      {"core.update_ms", "ms"},
      {"core.boundary_ms", "ms"},
      {"core.flops_per_step", "flop"},
      {"core.gflops", "GF/s"},
      {"core.bytes_per_flop_computed", "B/flop"},
      {"core.doall_step_ms", "ms"},
      // par / mp: the SPMD subdomain solvers and the message runtime
      {"par.step_ms", "ms"},
      {"par.compute_ms", "ms"},
      {"par.imbalance", "ratio"},
      {"mp.wait_ms", "ms"},
      {"mp.wait_max_ms", "ms"},
      {"mp.msgs_per_step", "count"},
      {"mp.bytes_per_step", "B"},
      // exec / perf: scenario bridges and the DES replay
      {"exec.cell_build_ms", "ms"},
      {"perf.replay_s", "s"},
      {"perf.us_per_rank_step", "us"},
      {"perf.ns_per_msg", "ns"},
      {"perf.msgs_per_rank_step", "count"},
      // exec: the engine
      {"exec.cell_ms", "ms"},
      {"exec.executed", "count"},
      {"exec.cache_hits", "count"},
      {"exec.utilization", "ratio"},
      // serve
      {"serve.parse_us", "us"},
      {"serve.render_us", "us"},
      {"serve.hit_ms", "ms"},
      {"serve.miss_ms", "ms"},
      {"serve.p50_ms", "ms"},
      {"serve.p99_ms", "ms"},
      {"serve.hit_ratio", "ratio"},
      {"serve.received", "count"},
      {"serve.batches", "count"},
      {"serve.dedup_coalesced", "count"},
      {"serve.errors", "count"},
      {"serve.shed", "count"},
      // io
      {"io.store_get_us", "us"},
      {"io.store_put_us", "us"},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"jet-cache", "jet-stream",
                                                 "serve-mix"};
  return names;
}

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto ok = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  };
  if (!ok(name[0]) || name[0] == '_' || name[0] == '.' || name[0] == '-') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), ok);
}

void zero_layers(Results* out) {
  for (const auto& s : per_layer_specs()) out->layer[s.name] = 0;
}

std::vector<std::string> missing(const std::vector<MetricSpec>& specs,
                                 const std::map<std::string, double>& values) {
  std::vector<std::string> out;
  for (const auto& s : specs) {
    if (values.count(s.name) == 0) out.emplace_back(s.name);
  }
  return out;
}

namespace {

/// Shortest decimal that round-trips the double: the contract wants
/// every measured digit.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& s : specs) {
    const auto it = values.find(s.name);
    if (it == values.end()) continue;
    os << (first ? "" : ", ") << '"' << s.name << "\": {\"value\": "
       << number(it->second) << ", \"unit\": \"" << s.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
