// The four workloads. Each one runs for a wall-clock budget, checks its
// outputs, and fills a Results with every end-to-end metric and every
// per-layer metric it can measure (layers it does not exercise read 0).
// A non-null Tracer records spans around each layer call.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;  ///< working directory inside the checkout
};

/// Grid and SPMD layout of a jet workload. py == 1 runs the 1-D
/// par::SubdomainSolver over px ranks, otherwise SubdomainSolver2D.
struct JetSpec {
  std::string name;
  int ni = 0, nj = 0;
  int px = 4, py = 1;
  /// Whether the DOALL path counts in work_per_s beside the serial one.
  /// The threaded paths are left out where they ran too unsteadily on a
  /// shared host to gate (jet.cpp says how much).
  bool doall_in_work = true;
  /// Set-ups per path in the first round (at least 2); their median is
  /// the path's set-up time.
  int setup_reps = 3;
};

/// "jet-cache" or "jet-stream"; throws std::invalid_argument otherwise.
JetSpec jet_spec(const std::string& name);

void run_jet(const JetSpec& spec, const RunOptions& opt, Tracer* tr,
             Results* out);
void run_serve_mix(const RunOptions& opt, Tracer* tr, Results* out);

/// A result body and the key it is stored under.
struct StoreEntry {
  std::string key, body;
};

/// Puts every entry into a fresh io::ResultStore in `dir`, then gets
/// every one back, timing each call. A get that does not return the body
/// put counts as a failed operation of `workload`. Sets the medians as
/// io.store_put_us and io.store_get_us.
void probe_store(const std::string& dir, const std::vector<StoreEntry>& entries,
                 const std::string& workload, Tracer* tr, Results* out);

/// One request of the serve-mix stream.
struct MixRequest {
  std::string line;       ///< the protocol request line sent
  std::string cache_key;  ///< its scenario's cache key
};

/// The first `n` requests of serve-mix's seeded popularity stream:
/// paper-platform replay cells and small solve cells drawn from a fixed
/// universe with a skewed (Zipf-like) popularity, so keys repeat.
std::vector<MixRequest> mix_stream(std::uint64_t seed, std::size_t n);

/// The first `n` fresh requests serve-mix sends at a fixed rate beside
/// that stream: universe cells whose scenario seed field is set from the
/// fresh request's index, so each key is new.
std::vector<MixRequest> fresh_stream(std::uint64_t seed, std::size_t n);

/// Fraction of `reqs` whose cache key appeared earlier in the list.
double repeat_share(const std::vector<MixRequest>& reqs);

}  // namespace perfbench
