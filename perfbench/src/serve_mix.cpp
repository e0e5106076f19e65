// serve-mix: an in-process serve::Server (auto_pump, one engine thread,
// in-memory results) under a closed loop of four client threads, each
// sending its next request line only after its reply — the way
// nsplab_client and a CI session call the daemon. The seeded stream
// draws paper-platform replay cells (lace-ethernet, lace-atm, sp-mpl,
// t3d at 2-16 ranks) and a few small solve cells from a fixed universe
// with Zipf-like popularity. Set-up warms the server with the universe,
// so these requests hit (engine memo cache), and simultaneous requests
// for one key coalesce (dedup). Fresh requests are sent at a fixed rate
// besides: a universe cell with a scenario seed made from the fresh
// request's index, a key no earlier request had. They miss (compute),
// so misses arrive for the whole run, beside hits and dedup.
//
// The clients and the dispatcher share one CPU. A request is a chain of
// cross-thread wake-ups; spread over four shared vCPUs, every wake-up
// that landed on a vCPU the host had descheduled stalled it, and
// per-second throughput moved between 10k and 50k requests/s inside
// one run. On one CPU the loop measures what serving costs, not where
// the scheduler put each thread.
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "exec/engine.hpp"
#include "exec/run_result.hpp"
#include "exec/scenario.hpp"
#include "host.hpp"
#include "perf/replay.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 4;
constexpr int kSetupReps = 5;  // about half a second each
constexpr int kSeedsPerCell = 16;  // the scenario seed field multiplies keys
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kStoreProbes = 64;  // ResultStore put/get pairs
// Fresh requests per second of the timed loop. A computed cell takes
// about 0.7 ms, so misses take about a seventh of the dispatcher's time,
// and requests that arrive meanwhile queue behind one, so the p99
// latency is a miss latency. A rate, not a share of requests: each miss
// grows the server's memo cache by about 1.5 KB, and as a share, the
// number of misses, and so peak_rss_mb, followed the run's throughput.
constexpr double kFreshPerSecond = 200;
constexpr std::uint64_t kFreshSeedBase = 1'000'000;  // above universe seeds

/// The fixed scenario universe, in canonical order, with each scenario's
/// wire JSON and cache key: what request lines are made from.
struct Catalogue {
  std::vector<nsp::exec::Scenario> scenarios;
  std::vector<std::string> json, keys;
};

Catalogue build_catalogue() {
  Catalogue c;
  for (int seed = 0; seed < kSeedsPerCell; ++seed) {
    for (const char* plat : {"lace-ethernet", "lace-atm", "sp-mpl", "t3d"}) {
      for (int procs : {2, 4, 8, 16}) {
        for (bool euler : {false, true}) {
          auto s = nsp::exec::Scenario::jet(250, 100, 5000)
                       .platform(plat)
                       .procs(procs)
                       .sim_steps(25)
                       .seed(static_cast<std::uint64_t>(seed));
          if (euler) s.euler();
          c.scenarios.push_back(s);
        }
      }
    }
    for (int steps : {10, 20}) {
      c.scenarios.push_back(nsp::exec::Scenario::solve(50, 20, steps)
                                .seed(static_cast<std::uint64_t>(seed)));
    }
  }
  for (const auto& s : c.scenarios) {
    c.json.push_back(s.to_json());
    c.keys.push_back(s.cache_key());
  }
  return c;
}

/// Fresh request `j`'s scenario: universe cell `u` reseeded from `j`, so
/// no other request shares its key.
nsp::exec::Scenario fresh_scenario(const Catalogue& cat, std::size_t u,
                                   std::uint64_t j) {
  nsp::exec::Scenario s = cat.scenarios[u];
  s.seed(kFreshSeedBase + j);
  return s;
}

/// splitmix64: the stream is a pure function of (seed, index).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A uniform draw in [0, 1) from (seed, k, salt).
double unit(std::uint64_t seed, std::uint64_t k, std::uint64_t salt) {
  return static_cast<double>(mix64(mix64(seed ^ salt) ^ k) >> 11) * 0x1.0p-53;
}

/// Popularity: a seeded permutation of the universe and the Zipf
/// cumulative weights over popularity ranks.
struct Popularity {
  std::vector<std::size_t> by_rank;  // rank -> universe index
  std::vector<double> cdf;           // rank -> cumulative probability
};

Popularity popularity(std::uint64_t seed, std::size_t n) {
  Popularity p;
  p.by_rank.resize(n);
  for (std::size_t i = 0; i < n; ++i) p.by_rank[i] = i;
  std::mt19937_64 rng(mix64(seed));
  for (std::size_t i = n - 1; i > 0; --i) {  // Fisher-Yates, portable
    std::swap(p.by_rank[i], p.by_rank[rng() % (i + 1)]);
  }
  double sum = 0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    p.cdf.push_back(sum);
  }
  for (double& c : p.cdf) c /= sum;
  return p;
}

/// Universe index of request `k` of the popularity stream.
std::size_t draw(const Popularity& p, std::uint64_t seed, std::uint64_t k) {
  const auto it =
      std::lower_bound(p.cdf.begin(), p.cdf.end(), unit(seed, k, 0));
  const auto rank = static_cast<std::size_t>(it - p.cdf.begin());
  return p.by_rank[std::min(rank, p.by_rank.size() - 1)];
}

/// Universe cell of fresh request `j`, drawn uniformly, not by
/// popularity: with Zipf weights a few cells would make most misses, and
/// what a miss costs would follow the seed.
std::size_t fresh_cell(std::uint64_t seed, std::uint64_t j, std::size_t n) {
  const double x = unit(seed, j, 0xce11ULL) * static_cast<double>(n);
  return std::min(static_cast<std::size_t>(x), n - 1);
}

// Appends rather than writing "r" + std::to_string(k), which draws a
// false -Wrestrict warning from GCC 12.
std::string request_id(std::uint64_t k) {
  std::string id = "r";
  id += std::to_string(k);
  return id;
}

std::string fresh_id(std::uint64_t j) {
  std::string id = "f";
  id += std::to_string(j);
  return id;
}

std::string request_line(const std::string& id, std::uint64_t client,
                         const std::string& scenario_json) {
  return "{\"id\":\"" + id + "\",\"op\":\"run\",\"client\":\"c" +
         std::to_string(client % kClients) + "\",\"scenario\":" +
         scenario_json + "}";
}

MixRequest fresh_request(const Catalogue& cat, std::uint64_t seed,
                         std::uint64_t j) {
  const nsp::exec::Scenario s =
      fresh_scenario(cat, fresh_cell(seed, j, cat.scenarios.size()), j);
  return {request_line(fresh_id(j), j, s.to_json()), s.cache_key()};
}

/// Latencies in 1%-wide log buckets from 1 us to about 20 s. Memory is
/// constant however many requests a run completes, so peak_rss_mb does
/// not follow throughput; quantiles are good to 1%.
class LatencyHistogram {
 public:
  void add(double s) {
    const double b = std::log(std::max(s, kMin) / kMin) / std::log(kRatio);
    ++counts_[std::min(static_cast<std::size_t>(b), kBuckets - 1)];
    ++n_;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }
  /// The p-th percentile in seconds (bucket midpoint); 0 when empty.
  double percentile(double p) const {
    const auto want = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets && n_ > 0; ++i) {
      seen += counts_[i];
      if (seen >= std::max<std::uint64_t>(want, 1)) {
        return kMin * std::pow(kRatio, static_cast<double>(i) + 0.5);
      }
    }
    return 0;
  }

 private:
  static constexpr double kMin = 1e-6, kRatio = 1.01;
  static constexpr std::size_t kBuckets = 1700;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

/// A fresh request's reply, checked after the loop.
struct FreshReply {
  std::uint64_t j;
  std::string response;
};

/// What one client saw.
struct ClientLog {
  LatencyHistogram all, hit, miss;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  std::vector<FreshReply> fresh;
};

/// result_response(id, r) split around the id, so each response can be
/// compared byte for byte in the loop without being formatted again.
struct Expected {
  std::string head, tail;
  bool matches(const std::string& resp, const std::string& id) const {
    return resp.size() == head.size() + id.size() + tail.size() &&
           resp.compare(0, head.size(), head) == 0 &&
           resp.compare(head.size(), id.size(), id) == 0 &&
           resp.compare(head.size() + id.size(), tail.size(), tail) == 0;
  }
};

Expected split_response(const nsp::exec::RunResult& r) {
  const std::string marker = "perfbench-id-marker";
  const std::string full = nsp::serve::result_response(marker, r);
  const std::size_t at = full.find(marker);
  return {full.substr(0, at), full.substr(at + marker.size())};
}

/// No store_dir: with a result store every request rewrites store.index
/// on disk, and on the sizing host that made throughput vary threefold
/// from run to run. The io.* probes time ResultStore on its own. One
/// engine thread runs cells inline on the dispatcher.
nsp::serve::ServerOptions server_options() {
  nsp::serve::ServerOptions o;
  o.engine_threads = 1;
  o.auto_pump = true;
  return o;
}

/// Pins the calling thread to one CPU for its lifetime, then restores
/// its CPU set. Threads it starts meanwhile inherit the pin. If the CPU
/// is not available nothing is pinned.
class PinScope {
 public:
  explicit PinScope(int cpu) {
    if (sched_getaffinity(0, sizeof old_, &old_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinScope() {
    if (pinned_) sched_setaffinity(0, sizeof old_, &old_);
  }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

 private:
  cpu_set_t old_{};
  bool pinned_ = false;
};

}  // namespace

std::vector<MixRequest> mix_stream(std::uint64_t seed, std::size_t n) {
  const Catalogue cat = build_catalogue();
  const Popularity p = popularity(seed, cat.scenarios.size());
  std::vector<MixRequest> out;
  out.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::size_t u = draw(p, seed, k);
    out.push_back({request_line(request_id(k), k, cat.json[u]), cat.keys[u]});
  }
  return out;
}

std::vector<MixRequest> fresh_stream(std::uint64_t seed, std::size_t n) {
  const Catalogue cat = build_catalogue();
  std::vector<MixRequest> out;
  out.reserve(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    out.push_back(fresh_request(cat, seed, j));
  }
  return out;
}

double repeat_share(const std::vector<MixRequest>& reqs) {
  if (reqs.empty()) return 0;
  std::set<std::string> seen;
  std::size_t repeats = 0;
  for (const auto& r : reqs) {
    if (!seen.insert(r.cache_key).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(reqs.size());
}

void run_serve_mix(const RunOptions& opt, Tracer* tr, Results* out) {
  namespace exec = nsp::exec;
  namespace serve = nsp::serve;

  // Set-up, several times: build the scenario catalogue the request
  // lines are made from (scenario building, wire JSON, cache keys), open
  // the server (engine pool and dispatcher start), and warm it: every
  // universe cell is submitted once and waited for, so the server
  // computes the universe in one batch. The last server serves the loop.
  std::vector<double> setups, setup_cat, setup_warm;
  Catalogue cat;
  std::unique_ptr<serve::Server> server;
  std::vector<std::string> warm_replies;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    cat = Catalogue{};
    warm_replies.clear();
    PinScope pin(0);  // the dispatcher thread inherits this CPU set
    Span sp(tr, "setup.server");
    const auto t0 = Clock::now();
    cat = build_catalogue();
    const auto t1 = Clock::now();
    server = std::make_unique<serve::Server>(server_options());
    std::vector<serve::Server::Ticket> tickets;
    for (std::size_t u = 0; u < cat.scenarios.size(); ++u) {
      tickets.push_back(
          server->submit(request_line(request_id(u), u, cat.json[u])));
    }
    for (const auto& t : tickets) warm_replies.push_back(server->wait(t));
    setups.push_back(since(t0));
    setup_cat.push_back(std::chrono::duration<double>(t1 - t0).count());
    setup_warm.push_back(since(t1));
  }
  const std::size_t n_uni = cat.scenarios.size();
  const Popularity pop = popularity(opt.seed, n_uni);

  // Reference results, outside the timed loop: every response must equal
  // serve::result_response of Engine::run_scenario for its scenario.
  // Fresh requests are checked after the loop.
  std::vector<exec::RunResult> expected;
  std::vector<Expected> want;
  std::vector<double> cell_ms;
  for (const auto& s : cat.scenarios) {
    Span sp(tr, "exec.cell");
    const auto t0 = Clock::now();
    expected.push_back(exec::Engine::run_scenario(s));
    cell_ms.push_back(since(t0) * 1e3);
    want.push_back(split_response(expected.back()));
  }
  for (std::size_t u = 0; u < n_uni; ++u) {
    out->check(want[u].matches(warm_replies[u], request_id(u)),
               "serve-mix: warm-up response to " + request_id(u) +
                   " differs from result_response(run_scenario)");
  }

  // Closed loop: each client sends the next request only after its
  // previous reply. The next request is the next fresh one when the loop
  // is due one, else the next of the popularity stream, which the warm
  // server answers without compute.
  std::atomic<std::uint64_t> next{0}, next_fresh{0}, span_ids{0};
  std::vector<ClientLog> logs(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      if (tr) tr->name_track("client " + std::to_string(c));
      PinScope pin(0);
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      while (Clock::now() < deadline) {
        std::uint64_t j = next_fresh.load();
        const bool fresh =
            static_cast<double>(j) < since(start) * kFreshPerSecond &&
            next_fresh.compare_exchange_strong(j, j + 1);
        std::size_t u = 0;
        std::string id, line;
        if (fresh) {
          id = fresh_id(j);
          line = fresh_request(cat, opt.seed, j).line;
        } else {
          const std::uint64_t k = next.fetch_add(1);
          u = draw(pop, opt.seed, k);
          id = request_id(k);
          line = request_line(id, k, cat.json[u]);
        }
        const std::uint64_t span_id = span_ids.fetch_add(1);
        Span sp(tr, "serve.request", span_id);
        const auto t0 = Clock::now();
        serve::Server::Ticket ticket;
        {
          Span sub(tr, "serve.submit", span_id);
          ticket = server->submit(line);
        }
        std::string resp;
        {
          Span sub(tr, "serve.wait", span_id);
          resp = server->wait(ticket);
        }
        const double latency = since(t0);
        log.all.add(latency);
        (fresh ? log.miss : log.hit).add(latency);
        if (fresh) {
          log.fresh.push_back({j, std::move(resp)});
          continue;
        }
        if (!want[u].matches(resp, id) && log.mismatches++ == 0) {
          log.first_mismatch = id;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double loop_s = since(start);
  const serve::ServeStats st = server->stats();
  server.reset();

  // Fresh replies against their own reference results.
  for (auto& log : logs) {
    for (const auto& f : log.fresh) {
      const std::string id = fresh_id(f.j);
      const std::string ref = serve::result_response(
          id, exec::Engine::run_scenario(fresh_scenario(
                  cat, fresh_cell(opt.seed, f.j, n_uni), f.j)));
      if (f.response != ref && log.mismatches++ == 0) log.first_mismatch = id;
    }
  }

  // Every response has been compared; count them here.
  LatencyHistogram all, hit, miss;
  for (const auto& log : logs) {
    out->attempted += static_cast<std::int64_t>(log.all.count());
    out->failed += static_cast<std::int64_t>(log.mismatches);
    if (log.mismatches > 0) {
      out->failures.push_back("serve-mix: response to " + log.first_mismatch +
                              " differs from result_response(run_scenario)");
    }
    all.merge(log.all);
    hit.merge(log.hit);
    miss.merge(log.miss);
  }
  const auto n = static_cast<double>(all.count());

  // Layer probes on this workload's own lines and bodies.
  std::vector<double> parse_us, render_us;
  {
    serve::Request req;
    std::string code, msg;
    for (std::uint64_t k = 0; k < 2000; ++k) {
      const std::string line =
          request_line(request_id(k), k, cat.json[draw(pop, opt.seed, k)]);
      Span sp(tr, "serve.parse_request");
      const auto t0 = Clock::now();
      const bool ok = serve::parse_request(line, &req, &code, &msg);
      parse_us.push_back(since(t0) * 1e6);
      out->check(ok, "serve-mix: parse_request rejected a stream line");
    }
    for (std::size_t u = 0; u < expected.size(); ++u) {
      Span sp(tr, "serve.result_response");
      const auto t0 = Clock::now();
      const std::string r = serve::result_response("r0", expected[u]);
      render_us.push_back(since(t0) * 1e6);
    }
  }
  // The DES layer, called directly on the universe's replay cells: the
  // scenario bridges that build each cell's models and network, then
  // perf::replay, whose modelled time must equal the engine's.
  std::vector<double> build_ms, replay_s;
  double rank_steps = 0, msgs = 0;
  for (std::size_t u = 0; u < n_uni; ++u) {
    const exec::Scenario& s = cat.scenarios[u];
    if (s.workload() != exec::Workload::Replay) continue;
    nsp::perf::AppModel app;
    nsp::arch::Platform plat;
    {
      Span sp(tr, "exec.cell_build");
      const auto t0 = Clock::now();
      app = s.app_model();
      plat = s.platform_model();
      nsp::sim::Simulator sim;
      const auto net = plat.make_network(sim, s.resolved_procs());
      build_ms.push_back(since(t0) * 1e3);
    }
    nsp::perf::ReplayOptions ro;
    ro.sim_steps = s.sim_step_count();
    Span sp(tr, "perf.replay");
    const auto t0 = Clock::now();
    const auto r = nsp::perf::replay(app, plat, s.resolved_procs(), ro);
    replay_s.push_back(since(t0));
    exec::RunResult res;
    exec::set_replay_metrics(res, r);
    out->check(res.has("exec_s") &&
                   res.metric("exec_s") == expected[u].metric("exec_s"),
               "serve-mix: perf::replay of " + s.cache_key() +
                   " differs from Engine::run_scenario");
    rank_steps += static_cast<double>(s.resolved_procs()) * s.sim_step_count();
    // RankStats scales sends up to the app's full step count; scale them
    // back to the steps the DES simulated.
    const double simulated = static_cast<double>(s.sim_step_count()) /
                             static_cast<double>(app.steps);
    for (const auto& rk : r.ranks) {
      msgs += static_cast<double>(rk.sends) * simulated;
    }
  }
  double t_replay = 0;
  for (double t : replay_s) t_replay += t;

  std::vector<StoreEntry> entries;
  for (std::size_t u = 0; u < kStoreProbes; ++u) {
    entries.push_back({cat.keys[u], serve::result_body(expected[u])});
  }
  probe_store(opt.work_dir + "/io-store", entries, "serve-mix", tr, out);

  const double received = static_cast<double>(st.received);
  out->e2e["setup_s"] = median(setups);
  out->e2e["peak_rss_mb"] = peak_rss_mb();
  // The mean rate over the loop: per-second rates on the sizing host
  // moved between two levels, and a median of windows picked one.
  out->e2e["work_per_s"] = n / loop_s;
  out->note("serve_req_per_s", n / loop_s, "req/s");
  out->note("serve_p50_ms", all.percentile(50) * 1e3, "ms");
  out->note("serve_p99_ms", all.percentile(99) * 1e3, "ms");
  out->note("requests", n, "count");
  out->note("setup_s.catalogue", median(setup_cat), "s");
  out->note("setup_s.server_warm", median(setup_warm), "s");
  // Over the timed loop: fresh requests, the only misses, and the
  // universe requests the warm server answers without compute.
  const double misses = static_cast<double>(miss.count());
  out->note("serve_fresh_requests", misses, "count");
  out->note("serve_miss_share", n > 0 ? misses / n : 0, "ratio");
  out->note("serve_repeat_share", n > 0 ? 1 - misses / n : 0, "ratio");

  auto& L = out->layer;
  L["exec.cell_build_ms"] = median(build_ms);
  L["perf.replay_s"] = median(replay_s);
  L["perf.us_per_rank_step"] = t_replay / rank_steps * 1e6;
  L["perf.ns_per_msg"] = msgs > 0 ? t_replay / msgs * 1e9 : 0;
  L["perf.msgs_per_rank_step"] = msgs / rank_steps;
  L["exec.cell_ms"] = median(cell_ms);
  L["exec.executed"] = static_cast<double>(st.engine.executed);
  L["exec.cache_hits"] = static_cast<double>(st.engine.cache_hits);
  L["exec.utilization"] = st.engine.utilization();
  L["serve.parse_us"] = median(parse_us);
  L["serve.render_us"] = median(render_us);
  L["serve.hit_ms"] = hit.percentile(50) * 1e3;
  L["serve.miss_ms"] = miss.percentile(50) * 1e3;
  L["serve.p50_ms"] = all.percentile(50) * 1e3;
  L["serve.p99_ms"] = all.percentile(99) * 1e3;
  L["serve.hit_ratio"] =
      received > 0 ? static_cast<double>(st.store_hits + st.engine.cache_hits +
                                         st.dedup_coalesced) /
                         received
                   : 0;
  L["serve.received"] = received;
  L["serve.batches"] = static_cast<double>(st.batches);
  L["serve.dedup_coalesced"] = static_cast<double>(st.dedup_coalesced);
  L["serve.errors"] = static_cast<double>(st.errors);
  L["serve.shed"] = static_cast<double>(st.shed);
}

}  // namespace perfbench
