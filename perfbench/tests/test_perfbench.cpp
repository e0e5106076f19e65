// The benchmark's own tests: names and limits, BENCHMARK.json in step
// with the metric catalogue, every workload emitting every declared
// metric, the serve-mix generator, self-time arithmetic and the trace
// file format.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
//
// AllWorkloadsEmitEveryMetric runs each workload once with a tiny time
// budget; jet-stream allocates about 2.2 GB and serve-mix's set-up and
// reference passes take a few seconds, so the suite takes about half a
// minute.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "io/json.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

nsp::io::JsonValue load_benchmark_json() {
  std::ifstream in(std::string(PERFBENCH_DIR) + "/../BENCHMARK.json");
  std::stringstream ss;
  ss << in.rdbuf();
  nsp::io::JsonValue doc;
  std::string err;
  EXPECT_TRUE(nsp::io::json_parse(ss.str(), &doc, &err)) << err;
  return doc;
}

bool valid_unit(const std::string& u) {
  if (u.empty() || u.size() > 16) return false;
  for (char c : u) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

TEST(Names, MetricAndWorkloadNamesAreValidUniqueAndWithinLimits) {
  std::set<std::string> seen;
  const auto check_specs = [&](const std::vector<MetricSpec>& specs) {
    for (const auto& s : specs) {
      EXPECT_TRUE(valid_name(s.name)) << s.name;
      EXPECT_TRUE(valid_unit(s.unit)) << s.name << " unit " << s.unit;
      EXPECT_TRUE(seen.insert(s.name).second) << "duplicate " << s.name;
    }
  };
  check_specs(end_to_end_specs());
  check_specs(per_layer_specs());
  EXPECT_GE(end_to_end_specs().size(), 1u);
  EXPECT_LE(end_to_end_specs().size(), 16u);
  EXPECT_GE(per_layer_specs().size(), 1u);
  EXPECT_LE(per_layer_specs().size(), 128u);
  for (const auto& w : workload_names()) {
    EXPECT_TRUE(valid_name(w)) << w;
    EXPECT_TRUE(seen.insert(w).second) << "duplicate " << w;
  }
  EXPECT_GE(workload_names().size(), 2u);
  EXPECT_LE(workload_names().size(), 8u);
}

TEST(Names, RejectsBadNames) {
  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name("_lead"));
  EXPECT_FALSE(valid_name(".lead"));
  EXPECT_FALSE(valid_name("has space"));
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_name("core.step_ms"));
}

TEST(BenchmarkJson, MatchesTheCatalogue) {
  const nsp::io::JsonValue doc = load_benchmark_json();
  const auto compare = [&](const char* key,
                           const std::vector<MetricSpec>& specs) {
    const nsp::io::JsonValue* arr = doc.find(key);
    ASSERT_NE(arr, nullptr) << key;
    ASSERT_EQ(arr->items.size(), specs.size()) << key;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(arr->items[i].string_or("name", ""), specs[i].name);
      EXPECT_EQ(arr->items[i].string_or("unit", ""), specs[i].unit);
      const std::string better = arr->items[i].string_or("better", "");
      EXPECT_TRUE(better == "higher" || better == "lower") << specs[i].name;
    }
  };
  compare("end_to_end", end_to_end_specs());
  compare("per_layer", per_layer_specs());
  const nsp::io::JsonValue* wl = doc.find("workloads");
  ASSERT_NE(wl, nullptr);
  ASSERT_EQ(wl->items.size(), workload_names().size());
  for (std::size_t i = 0; i < wl->items.size(); ++i) {
    EXPECT_EQ(wl->items[i].string_or("name", ""), workload_names()[i]);
    const std::string why = wl->items[i].string_or("why", "");
    EXPECT_FALSE(why.empty());
    EXPECT_LE(why.size(), 200u);
  }
  // setup_s carries the largest bound, and every bound is at most 0.25.
  double setup_bound = 0, other_max = 0;
  for (const auto& m : doc.find("end_to_end")->items) {
    const double b = m.number_or("bound", -1);
    EXPECT_GT(b, 0);
    EXPECT_LE(b, 0.25);
    if (m.string_or("name", "") == "setup_s") {
      setup_bound = b;
    } else {
      other_max = std::max(other_max, b);
    }
  }
  EXPECT_GE(setup_bound, other_max);
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  const std::string line =
      result_json(true, 3, 0, end_to_end_specs(),
                  {{"setup_s", 0.5}, {"peak_rss_mb", 12.25}, {"work_per_s", 7}});
  nsp::io::JsonValue doc;
  std::string err;
  ASSERT_TRUE(nsp::io::json_parse(line, &doc, &err)) << err;
  ASSERT_EQ(doc.members.size(), 4u);
  EXPECT_EQ(doc.members[0].first, "correct");
  EXPECT_EQ(doc.members[1].first, "attempted");
  EXPECT_EQ(doc.members[2].first, "failed");
  EXPECT_EQ(doc.members[3].first, "metrics");
  const nsp::io::JsonValue* m = doc.find("metrics")->find("peak_rss_mb");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->number_or("value", 0), 12.25);
  EXPECT_EQ(m->string_or("unit", ""), "MB");
}

TEST(Workloads, AllWorkloadsEmitEveryMetric) {
  const std::string dir = ".bench_out/tests";
  for (const auto& w : workload_names()) {
    RunOptions opt;
    opt.seed = 7;
    opt.seconds = 0.2;
    opt.work_dir = dir + "/" + w;
    std::filesystem::remove_all(opt.work_dir);
    std::filesystem::create_directories(opt.work_dir);
    Tracer tr;
    Results r;
    zero_layers(&r);
    if (w == "serve-mix") {
      run_serve_mix(opt, &tr, &r);
    } else {
      run_jet(jet_spec(w), opt, &tr, &r);
    }
    std::filesystem::remove_all(opt.work_dir);
    EXPECT_TRUE(missing(end_to_end_specs(), r.e2e).empty()) << w;
    EXPECT_TRUE(missing(per_layer_specs(), r.layer).empty()) << w;
    EXPECT_EQ(r.e2e.size(), end_to_end_specs().size()) << w;
    EXPECT_EQ(r.layer.size(), per_layer_specs().size()) << w;
    for (const auto& [name, v] : r.e2e) EXPECT_GT(v, 0) << w << " " << name;
    EXPECT_GT(r.attempted, 0) << w;
    EXPECT_EQ(r.failed, 0) << w;
    EXPECT_FALSE(tr.spans().empty()) << w;
  }
}

TEST(ServeMix, SameSeedSameStreamOtherSeedOtherStream) {
  for (const auto& stream : {mix_stream, fresh_stream}) {
    const auto a = stream(11, 500), b = stream(11, 500), c = stream(12, 500);
    ASSERT_EQ(a.size(), 500u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].line, b[i].line);
      EXPECT_EQ(a[i].cache_key, b[i].cache_key);
    }
    std::size_t differ = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      differ += a[i].cache_key != c[i].cache_key;
    }
    EXPECT_GT(differ, a.size() / 2);
  }
}

TEST(ServeMix, RepeatShareStaysInItsStatedRange) {
  // Over the first 2000 requests, between 75% and 90% of requests
  // repeat an earlier key: misses sit beside hits.
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 99, 12345}) {
    const double share = repeat_share(mix_stream(seed, 2000));
    EXPECT_GE(share, 0.75) << seed;
    EXPECT_LE(share, 0.90) << seed;
  }
}

TEST(ServeMix, FreshRequestsCarryKeysNoOtherRequestHas) {
  // Misses keep arriving after the universe has been answered: every
  // fresh key is new, among the fresh requests and against the
  // popularity stream.
  for (std::uint64_t seed : {1, 7, 12345}) {
    std::set<std::string> keys;
    for (const auto& r : mix_stream(seed, 20000)) keys.insert(r.cache_key);
    const std::size_t universe_seen = keys.size();
    for (const auto& r : fresh_stream(seed, 3000)) keys.insert(r.cache_key);
    EXPECT_EQ(keys.size(), universe_seen + 3000) << seed;
  }
}

TEST(ServeMix, RequestsParseAndMixReplayWithSolveCells) {
  std::set<std::string> keys;
  bool replay = false, solve = false;
  for (const auto& r : mix_stream(3, 3000)) {
    keys.insert(r.cache_key);
    replay = replay || r.line.find("\"workload\":\"replay\"") != std::string::npos;
    solve = solve || r.line.find("\"workload\":\"solve\"") != std::string::npos;
  }
  EXPECT_TRUE(replay);
  EXPECT_TRUE(solve);
  EXPECT_GT(keys.size(), 100u);
}

SpanRecord span(const char* name, double t0, double t1, int parent) {
  SpanRecord s;
  s.name = name;
  s.t0_us = t0;
  s.t1_us = t1;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // root [0,100) has children a [10,30), b [20,50) (overlapping: union
  // 40) and c [90,120) clipped to [90,100); a has grandchild [12,18).
  std::vector<SpanRecord> s = {
      span("root", 0, 100, -1), span("a", 10, 30, 0), span("b", 20, 50, 0),
      span("c", 90, 120, 0),    span("g", 12, 18, 1), span("root", 200, 210, -1),
  };
  const auto st = self_times(s);
  EXPECT_EQ(st.at("root").calls, 2u);
  EXPECT_DOUBLE_EQ(st.at("root").total_us, 110);
  EXPECT_DOUBLE_EQ(st.at("root").self_us, (100 - 50) + 10);
  EXPECT_DOUBLE_EQ(st.at("a").self_us, 20 - 6);
  EXPECT_DOUBLE_EQ(st.at("b").self_us, 30);
  EXPECT_DOUBLE_EQ(st.at("c").self_us, 30);
  EXPECT_DOUBLE_EQ(st.at("g").self_us, 6);
}

TEST(Trace, NestsOnOneTrackAndWritesChromeJson) {
  Tracer tr;
  tr.name_track("main");
  {
    Span outer(&tr, "outer", 5);
    Span inner(&tr, "inner", 5);
    inner.arg("msgs", 3);
  }
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].group, 5u);
  EXPECT_LE(spans[0].t0_us, spans[1].t0_us);
  EXPECT_GE(spans[0].t1_us, spans[1].t1_us);

  std::filesystem::create_directories(".bench_out");
  const std::string path = ".bench_out/test_trace.json";
  ASSERT_TRUE(tr.write_chrome_json(path, {{"k", "v"}}));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::filesystem::remove(path);
  nsp::io::JsonValue doc;
  std::string err;
  ASSERT_TRUE(nsp::io::json_parse(ss.str(), &doc, &err)) << err;
  const nsp::io::JsonValue* ev = doc.find("traceEvents");
  ASSERT_NE(ev, nullptr);
  ASSERT_EQ(ev->items.size(), 3u);  // one thread name + two spans
  EXPECT_EQ(ev->items[0].string_or("ph", ""), "M");
  EXPECT_EQ(ev->items[2].string_or("ph", ""), "X");
  EXPECT_EQ(ev->items[2].string_or("name", ""), "inner");
  EXPECT_EQ(ev->items[2].find("args")->number_or("msgs", 0), 3);
}

}  // namespace
