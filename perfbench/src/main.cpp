// nsp_bench_run: one workload of the benchmark per invocation.
//
//   nsp_bench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>]
//
// Prints the host record, every metric by name with its unit, and as
// its last line the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. A traced run first repeats the untraced pass,
// then runs again with spans on, prints each layer's self time and the
// tracing overhead (traced minus untraced end-to-end metrics), and
// writes <out>/trace-<workload>.json in Chrome trace-event format.
// Exit status is 0 only if every output check passed.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nsp_bench_run: %s\nusage: nsp_bench_run --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == a.workload;
  if (!known) usage(("unknown workload '" + a.workload + "'").c_str());
  return a;
}

Results run_pass(const Args& a, const std::string& pass, Tracer* tr) {
  RunOptions opt;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.work_dir = a.out + "/" + a.workload + "-" + std::to_string(getpid()) +
                 "-" + pass;
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  Results r;
  zero_layers(&r);
  if (a.workload == "serve-mix") {
    run_serve_mix(opt, tr, &r);
  } else {
    run_jet(jet_spec(a.workload), opt, tr, &r);
  }
  std::filesystem::remove_all(opt.work_dir);
  return r;
}

void print_metrics(const char* title, const std::vector<MetricSpec>& specs,
                   const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (const auto& s : specs) {
    const auto it = values.find(s.name);
    if (it != values.end()) {
      std::printf("  %-32s %16.6g %s\n", s.name, it->second, s.unit);
    }
  }
}

void print_info(const Results& r) {
  for (const auto& [name, vu] : r.info) {
    std::printf("  %-32s %16.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
}

void print_self_times(const std::vector<SpanRecord>& spans) {
  std::printf("per-layer self time (traced pass; spans from the benchmark's "
              "own calls):\n  %-24s %10s %14s %14s\n", "span", "calls",
              "total_ms", "self_ms");
  std::map<std::string, double> by_layer;  // span-name prefix -> self ms
  for (const auto& [name, st] : self_times(spans)) {
    std::printf("  %-24s %10llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(st.calls), st.total_us / 1e3,
                st.self_us / 1e3);
    by_layer[name.substr(0, name.find('.'))] += st.self_us / 1e3;
  }
  std::printf("self time by layer:\n");
  for (const auto& [layer, ms] : by_layer) {
    std::printf("  %-24s %14.3f ms\n", layer.c_str(), ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed small blocks in the heap: allocations up to 1 MB come
  // from it, and it is trimmed only past 64 MB free. Set-ups after the
  // first then reuse memory already mapped, so setup_s times the
  // program's construction and initialisation. With glibc's defaults
  // each jet-cache set-up faulted its 0.2 MB fields in again, and
  // page-fault service on a shared host moved its set-up between 2.6
  // and 6.6 ms from run to run. Larger blocks, such as jet-stream's
  // fields, are still mapped per allocation and returned when freed, so
  // peak_rss_mb does not depend on what an earlier phase left behind.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const Args a = parse(argc, argv);
  try {
    std::printf("%s\n", host_json().c_str());
    std::printf("workload %s, seed %llu, %.3g s per pass, trace %d\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    std::fflush(stdout);

    const Results plain = run_pass(a, "plain", nullptr);
    print_metrics("end-to-end (untraced):", end_to_end_specs(), plain.e2e);
    print_info(plain);

    std::int64_t attempted = plain.attempted, failed = plain.failed;
    std::vector<std::string> failures = plain.failures;
    bool complete = missing(end_to_end_specs(), plain.e2e).empty();
    for (const auto& [name, v] : plain.e2e) complete = complete && v > 0;
    const std::map<std::string, double>* emitted = &plain.e2e;
    const std::vector<MetricSpec>* specs = &end_to_end_specs();

    Results traced;
    if (a.trace) {
      Tracer tr;
      tr.name_track("main");
      traced = run_pass(a, "traced", &tr);
      print_metrics("end-to-end (traced):", end_to_end_specs(), traced.e2e);
      std::printf("tracing overhead (traced vs untraced):\n");
      for (const auto& s : end_to_end_specs()) {
        const double u = plain.e2e.at(s.name), t = traced.e2e.at(s.name);
        std::printf("  %-32s %+10.2f %%\n", s.name,
                    u != 0 ? 100.0 * (t - u) / u : 0.0);
      }
      print_self_times(tr.spans());
      std::filesystem::create_directories(a.out);
      const std::string path = a.out + "/trace-" + a.workload + ".json";
      auto meta = host_record();
      meta.emplace_back("workload", a.workload);
      meta.emplace_back("seed", std::to_string(a.seed));
      if (!tr.write_chrome_json(path, meta)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("trace: %s (Chrome trace-event JSON; open in "
                  "https://ui.perfetto.dev)\n", path.c_str());
      print_metrics("per-layer:", per_layer_specs(), traced.layer);
      attempted += traced.attempted;
      failed += traced.failed;
      failures.insert(failures.end(), traced.failures.begin(),
                      traced.failures.end());
      complete = complete && missing(per_layer_specs(), traced.layer).empty();
      emitted = &traced.layer;
      specs = &per_layer_specs();
    }

    for (const auto& f : failures) std::printf("FAILED: %s\n", f.c_str());
    const bool correct = failed == 0 && attempted > 0;
    if (!complete) std::printf("FAILED: a declared metric is missing or 0\n");
    std::printf("%s\n", result_json(correct && complete, attempted, failed,
                                     *specs, *emitted)
                            .c_str());
    return correct && complete ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "nsp_bench_run: %s\n", e.what());
    return 1;
  }
}
