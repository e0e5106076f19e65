#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/tiles.hpp"
#include "io/table.hpp"
#include "workloads.hpp"

namespace perfbench {

double working_set_bytes(int ni, int nj) {
  return static_cast<double>(nsp::core::kSweepArrays) * ni * nj * 8.0;
}

double peak_rss_mb() {
  // VmHWM is this address space's own high-water mark. getrusage's
  // ru_maxrss survives execve, so under a launcher bigger than the
  // benchmark (python3 run.py) it would report the launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::pair<std::string, std::string>> host_record() {
  const auto llc = static_cast<double>(nsp::core::detect_cache_bytes(
      "/sys/devices/system/cpu/cpu0/cache"));
  const JetSpec stream = jet_spec("jet-stream");
  const double ws = working_set_bytes(stream.ni, stream.nj);
  const auto fmt = [](double v) {
    char b[48];
    std::snprintf(b, sizeof b, "%.6g", v);
    return std::string(b);
  };
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const char* omp = std::getenv("OMP_NUM_THREADS");
  return {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"llc_bytes", llc > 0 ? fmt(llc) : "unknown"},
      {"compiler", compiler},
      {"build_type", NSP_BENCH_BUILD_TYPE},
      {"cxx_flags", NSP_BENCH_FLAGS},
      {"nsp_check_level", std::to_string(NSP_BENCH_CHECK_LEVEL)},
      {"omp_num_threads", omp ? omp : "unset"},
      {"jet_stream_grid",
       std::to_string(stream.ni) + "x" + std::to_string(stream.nj)},
      {"jet_stream_working_set_bytes", fmt(ws)},
      {"jet_stream_working_set_over_llc", llc > 0 ? fmt(ws / llc) : "unknown"},
  };
}

std::string host_json() {
  std::ostringstream os;
  os << "{\"host\": {";
  const auto rec = host_record();
  for (std::size_t i = 0; i < rec.size(); ++i) {
    os << (i ? ", " : "") << '"' << rec[i].first << "\": \""
       << nsp::io::json_escape(rec[i].second) << '"';
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
