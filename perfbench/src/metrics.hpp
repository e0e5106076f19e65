// The benchmark's metric catalogue and one run's results.
//
// Every workload reports every declared metric (the BENCHMARK.json
// contract): the three end-to-end metrics in an untraced run and every
// per-layer metric in a traced run. A layer that a workload does not
// exercise reports 0 for it; end-to-end metrics are never 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (BENCHMARK.json "end_to_end"), in print order.
const std::vector<MetricSpec>& end_to_end_specs();

/// Per-layer metrics (BENCHMARK.json "per_layer"), in print order.
const std::vector<MetricSpec>& per_layer_specs();

/// The workload names, in the order the doc lists them.
const std::vector<std::string>& workload_names();

/// True if `name` matches [A-Za-z0-9][A-Za-z0-9_.-]{0,63}.
bool valid_name(const std::string& name);

/// What one workload pass measured and checked.
struct Results {
  std::map<std::string, double> e2e;    ///< end-to-end metric values
  std::map<std::string, double> layer;  ///< per-layer metric values
  /// Path-level figures printed for people (e.g. solve_mpts_per_s);
  /// value and unit, in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> info;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation

  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, {value, unit}});
  }
  /// Counts one operation; a false `ok` counts it failed with `why`.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(why);
    }
  }
};

/// Every per-layer metric set to 0, so a workload only overwrites the
/// layers it exercises.
void zero_layers(Results* out);

/// Names of declared metrics `values` lacks (empty = complete).
std::vector<std::string> missing(const std::vector<MetricSpec>& specs,
                                 const std::map<std::string, double>& values);

/// The contract's last output line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over `specs`, in their order.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values);

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> v);

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> v, double p);

}  // namespace perfbench
