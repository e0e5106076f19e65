// Host and build record printed with every run, so a number always
// carries the machine and protocol that produced it.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Key/value pairs: nproc, LLC bytes (sysfs), compiler, build type and
/// flags, NSP_CHECK_LEVEL, and jet-stream's computed working set and
/// its ratio to the LLC.
std::vector<std::pair<std::string, std::string>> host_record();

/// The record as one JSON object line.
std::string host_json();

/// Peak resident set size of this process so far, in MB (2^20 bytes).
double peak_rss_mb();

/// Bytes of the solver's computed working set on an ni x nj grid:
/// core::kSweepArrays arrays of doubles over the points, ghosts excluded.
double working_set_bytes(int ni, int nj);

}  // namespace perfbench
