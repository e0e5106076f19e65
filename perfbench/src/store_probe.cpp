// The io.* probe both workloads that produce result bodies share.
#include "io/result_store.hpp"
#include "workloads.hpp"

namespace perfbench {

void probe_store(const std::string& dir, const std::vector<StoreEntry>& entries,
                 const std::string& workload, Tracer* tr, Results* out) {
  nsp::io::ResultStore store(dir, 0);
  std::vector<double> put_us, get_us;
  for (const auto& e : entries) {
    Span sp(tr, "io.store_put");
    const auto t0 = Clock::now();
    store.put(e.key, e.body);
    put_us.push_back(since(t0) * 1e6);
  }
  std::string body;
  for (const auto& e : entries) {
    Span sp(tr, "io.store_get");
    const auto t0 = Clock::now();
    const bool hit = store.get(e.key, &body);
    get_us.push_back(since(t0) * 1e6);
    out->check(hit && body == e.body,
               workload + ": result store returned a different body");
  }
  out->layer["io.store_put_us"] = median(put_us);
  out->layer["io.store_get_us"] = median(get_us);
}

}  // namespace perfbench
