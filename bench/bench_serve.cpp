// Resident server vs per-query open: the serving-path benchmark behind
// docs/SERVING.md. Measures
//
//   1. the amortization win — queries/sec through a resident tixd-style
//      server (database + index opened once) against the tix_cli model
//      of open-database + load-index on every query, and
//   2. latency under concurrency — p50/p99 and QPS for N in
//      {1,2,4,8,16,32,64} concurrent client sessions, with the result
//      cache on and off, plus cache hit rates.
//
//   ./build/bench/bench_serve [--articles=300] [--data-dir=/tmp/tix_bench_serve]
//                             [--out=BENCH_serve.json] [--baseline-ops=12]
//                             [--ops-per-client=24] [--max-clients=64]
//                             [--smoke] [--tixd=PATH]
//
// --smoke shrinks the sweep to {1,2} clients with a handful of ops and
// relaxes the gate to "serves successfully with QPS > 0" — the CI mode.
// The full run self-gates on the server being >= 10x the per-query-open
// baseline (single client, result cache off, warm corpus).
//
// --tixd=PATH benchmarks an external daemon spawned from PATH instead
// of an in-process TixServer: same protocol, real process boundary.
// The container pins visible_cpus (recorded in the JSON) — on one CPU
// the QPS numbers measure amortization and overlap of storage waits,
// not parallel speedup.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_corpus.h"
#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/database.h"

namespace {

using namespace tix::bench;

struct SweepPoint {
  int clients = 0;
  bool cache_on = false;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;
  double cache_hit_rate = 0;
};

double PercentileMs(std::vector<double>* latencies, double p) {
  if (latencies->empty()) return 0;
  std::sort(latencies->begin(), latencies->end());
  const size_t i = std::min(latencies->size() - 1,
                            static_cast<size_t>(p * latencies->size()));
  return (*latencies)[i] * 1000.0;
}

/// The query pool: distinct queries over planted terms and distinct
/// documents, so concurrent clients exercise different posting lists
/// and the result cache sees a bounded working set.
std::vector<std::string> BuildQueryPool(uint64_t num_articles) {
  std::vector<std::string> pool;
  const std::vector<std::string> terms = {
      Table1Term(1, 1000), Table1Term(2, 1000), Table4Term(0), Table4Term(1),
      Table4Term(2),       Table4Term(3),       Table4Term(4), Table4Term(5),
  };
  for (size_t i = 0; i < terms.size(); ++i) {
    pool.push_back(tix::StrFormat(
        "FOR $a IN document(\"article%llu.xml\")//article//* "
        "SCORE $a USING foo({\"%s\"}) THRESHOLD STOP AFTER 5 RETURN $a",
        static_cast<unsigned long long>(i % num_articles), terms[i].c_str()));
  }
  return pool;
}

/// Naive extraction of `"key":<int>` after `section` in a stats JSON
/// document (the schema is flat; docs/SERVING.md).
uint64_t JsonField(const std::string& json, const std::string& section,
                   const std::string& key) {
  const size_t at = json.find("\"" + section + "\"");
  if (at == std::string::npos) return 0;
  const size_t k = json.find("\"" + key + "\":", at);
  if (k == std::string::npos) return 0;
  return std::strtoull(json.c_str() + k + key.size() + 3, nullptr, 10);
}

/// One server endpoint to benchmark: either in-process or an external
/// tixd child, behind the same host/port surface.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual uint16_t port() const = 0;
  /// Result-cache hit rate over the endpoint's lifetime so far.
  virtual double HitRate() = 0;
};

class InProcessEndpoint : public Endpoint {
 public:
  InProcessEndpoint(tix::storage::Database* db,
                    tix::index::SegmentedIndex* index, size_t max_clients,
                    size_t cache_bytes) {
    tix::server::ServerOptions options;
    options.session_threads = max_clients;
    options.max_sessions = max_clients;
    // The bench measures latency under load, not admission policy:
    // every client gets a slot eventually.
    options.max_inflight = max_clients;
    options.admission_queue = max_clients;
    options.result_cache_bytes = cache_bytes;
    server_ = std::make_unique<tix::server::TixServer>(db, index, options);
    const tix::Status started = server_->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
      std::exit(1);
    }
  }
  uint16_t port() const override { return server_->port(); }
  double HitRate() override {
    const tix::server::ResultCacheStats stats = server_->result_cache().Stats();
    const uint64_t total = stats.hits + stats.misses;
    return total > 0 ? static_cast<double>(stats.hits) / total : 0.0;
  }

 private:
  std::unique_ptr<tix::server::TixServer> server_;
};

class ExternalEndpoint : public Endpoint {
 public:
  ExternalEndpoint(const std::string& tixd_path, const std::string& db_dir,
                   size_t max_clients, size_t cache_bytes) {
    const std::string command = tix::StrFormat(
        "%s --db=%s --port=0 --sessions=%zu --inflight=%zu "
        "--admission-queue=%zu --result-cache-mb=%zu",
        tixd_path.c_str(), db_dir.c_str(), max_clients, max_clients,
        max_clients, cache_bytes >> 20);
    pipe_ = ::popen(command.c_str(), "r");
    if (pipe_ == nullptr) {
      std::fprintf(stderr, "cannot spawn %s\n", tixd_path.c_str());
      std::exit(1);
    }
    char line[256] = {0};
    if (std::fgets(line, sizeof line, pipe_) == nullptr ||
        std::sscanf(line, "READY port=%hu", &port_) != 1) {
      std::fprintf(stderr, "tixd did not print READY (got: %s)\n", line);
      std::exit(1);
    }
  }
  ~ExternalEndpoint() override {
    auto client = tix::server::Client::Connect("127.0.0.1", port_);
    if (client.ok()) client.value().RequestShutdown().ok();
    if (pipe_ != nullptr) ::pclose(pipe_);
  }
  uint16_t port() const override { return port_; }
  double HitRate() override {
    auto client = tix::server::Client::Connect("127.0.0.1", port_);
    if (!client.ok()) return 0;
    auto stats = client.value().Stats();
    if (!stats.ok()) return 0;
    const uint64_t hits = JsonField(stats.value(), "result_cache", "hits");
    const uint64_t misses = JsonField(stats.value(), "result_cache", "misses");
    return hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                             : 0.0;
  }

 private:
  std::FILE* pipe_ = nullptr;
  uint16_t port_ = 0;
};

/// Runs `ops_per_client` queries from each of `clients` concurrent
/// sessions, rotating through the pool, and aggregates latency.
SweepPoint RunSweep(Endpoint* endpoint, const std::vector<std::string>& pool,
                    int clients, int ops_per_client, bool cache_on) {
  const double base_hit_rate = endpoint->HitRate();
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<uint64_t> errors{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = tix::server::Client::Connect("127.0.0.1", endpoint->port());
      if (!client.ok()) {
        errors.fetch_add(ops_per_client, std::memory_order_relaxed);
        return;
      }
      latencies[c].reserve(ops_per_client);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int op = 0; op < ops_per_client; ++op) {
        const std::string& query = pool[(c + op) % pool.size()];
        tix::WallTimer timer;
        const auto response = client.value().Query(query);
        if (response.ok()) {
          latencies[c].push_back(timer.ElapsedSeconds());
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  tix::WallTimer wall;
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  const double elapsed = wall.ElapsedSeconds();

  std::vector<double> all;
  for (auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  SweepPoint point;
  point.clients = clients;
  point.cache_on = cache_on;
  point.ops = all.size();
  point.errors = errors.load();
  point.qps = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  double sum = 0;
  for (const double v : all) sum += v;
  point.mean_ms = all.empty() ? 0 : sum / all.size() * 1000.0;
  point.p50_ms = PercentileMs(&all, 0.50);
  point.p99_ms = PercentileMs(&all, 0.99);
  // Hit rate over this sweep alone (lifetime rate minus the baseline is
  // not well-defined as a ratio, so report the lifetime rate when this
  // is the first sweep on the endpoint, which it is by construction for
  // the cache-on endpoint; otherwise the delta-dominant lifetime rate).
  point.cache_hit_rate = endpoint->HitRate();
  (void)base_hit_rate;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.GetString("smoke", "") == "true";
  const uint64_t articles = flags.GetInt("articles", smoke ? 60 : 300);
  const std::string dir =
      flags.GetString("data-dir", "/tmp/tix_bench_serve");
  const std::string out = flags.GetString("out", "BENCH_serve.json");
  const std::string tixd_path = flags.GetString("tixd", "");
  const int baseline_ops =
      static_cast<int>(flags.GetInt("baseline-ops", smoke ? 3 : 12));
  const int ops_per_client =
      static_cast<int>(flags.GetInt("ops-per-client", smoke ? 8 : 24));
  const int max_clients =
      static_cast<int>(flags.GetInt("max-clients", smoke ? 2 : 64));

  auto env_result = GetOrBuildBenchEnv(dir, articles, flags.GetInt("seed", 42));
  if (!env_result.ok()) {
    std::fprintf(stderr, "%s\n", env_result.status().ToString().c_str());
    return 1;
  }
  BenchEnv env = std::move(env_result).value();
  // The in-process server reads the cached index.tix adopted in place as
  // segment 0, as tixd does.
  auto segmented = tix::index::SegmentedIndex::Open(dir);
  if (!segmented.ok()) {
    std::fprintf(stderr, "%s\n", segmented.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> pool = BuildQueryPool(env.num_articles);
  const unsigned visible_cpus = std::thread::hardware_concurrency();

  std::printf("Resident server vs per-query open — %llu articles, %u CPU\n\n",
              static_cast<unsigned long long>(env.num_articles),
              visible_cpus);

  // ------------------------------------------------ baseline: open per query
  // The tix_cli model: every query pays Database::Open + index load
  // before executing. This is exactly what a resident server amortizes.
  std::vector<double> baseline_latencies;
  {
    tix::WallTimer wall;
    for (int op = 0; op < baseline_ops; ++op) {
      tix::WallTimer timer;
      auto db = tix::storage::Database::Open(dir);
      if (!db.ok()) {
        std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
        return 1;
      }
      auto index = tix::index::SegmentedIndex::Open(dir);
      if (!index.ok()) {
        std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
        return 1;
      }
      tix::query::QueryEngine engine(db.value().get(),
                                     index.value()->Acquire());
      auto output = engine.ExecuteText(pool[op % pool.size()]);
      if (!output.ok()) {
        std::fprintf(stderr, "%s\n", output.status().ToString().c_str());
        return 1;
      }
      auto rendered = engine.RenderXml(output.value(), 10);
      if (!rendered.ok()) return 1;
      baseline_latencies.push_back(timer.ElapsedSeconds());
    }
    const double elapsed = wall.ElapsedSeconds();
    const double qps = baseline_ops / elapsed;
    std::printf("baseline (open per query): %d ops, %.2f q/s, mean %.1f ms\n\n",
                baseline_ops, qps,
                elapsed / baseline_ops * 1000.0);
  }
  double baseline_sum = 0;
  for (const double v : baseline_latencies) baseline_sum += v;
  const double baseline_mean_s = baseline_sum / baseline_latencies.size();
  const double baseline_qps = 1.0 / baseline_mean_s;

  // --------------------------------------------------------- server sweeps
  std::vector<int> client_counts;
  for (int n = 1; n <= max_clients; n *= 2) client_counts.push_back(n);

  const auto make_endpoint = [&](size_t cache_bytes) {
    return tixd_path.empty()
               ? std::unique_ptr<Endpoint>(std::make_unique<InProcessEndpoint>(
                     env.db.get(), segmented.value().get(),
                     static_cast<size_t>(max_clients) + 4, cache_bytes))
               : std::unique_ptr<Endpoint>(std::make_unique<ExternalEndpoint>(
                     tixd_path, dir, static_cast<size_t>(max_clients) + 4,
                     cache_bytes));
  };

  std::vector<SweepPoint> points;
  double single_client_cache_off_qps = 0;
  for (const bool cache_on : {false, true}) {
    auto endpoint = make_endpoint(cache_on ? (8u << 20) : 0);
    // Warm-up: one pass over the pool primes the block cache (and the
    // result cache when on) so sweeps measure steady serving state.
    {
      auto client =
          tix::server::Client::Connect("127.0.0.1", endpoint->port());
      if (!client.ok()) {
        std::fprintf(stderr, "warmup connect failed\n");
        return 1;
      }
      for (const std::string& query : pool) {
        if (!client.value().Query(query).ok()) {
          std::fprintf(stderr, "warmup query failed\n");
          return 1;
        }
      }
    }
    std::printf("result cache %s:\n", cache_on ? "ON" : "OFF");
    std::printf("%8s | %9s | %9s %9s %9s | %6s | %8s\n", "clients", "q/s",
                "p50(ms)", "p99(ms)", "mean(ms)", "errors", "hit rate");
    PrintRule(72);
    for (const int clients : client_counts) {
      const SweepPoint point =
          RunSweep(endpoint.get(), pool, clients, ops_per_client, cache_on);
      std::printf("%8d | %9.1f | %9.2f %9.2f %9.2f | %6llu | %7.1f%%\n",
                  point.clients, point.qps, point.p50_ms, point.p99_ms,
                  point.mean_ms, (unsigned long long)point.errors,
                  point.cache_hit_rate * 100);
      if (!cache_on && clients == 1) {
        single_client_cache_off_qps = point.qps;
      }
      points.push_back(point);
    }
    std::printf("\n");
  }

  // ------------------------------------------------------------- gates
  const double speedup = baseline_qps > 0
                             ? single_client_cache_off_qps / baseline_qps
                             : 0;
  uint64_t total_errors = 0;
  double worst_p99 = 0;
  bool any_ops = false;
  for (const SweepPoint& point : points) {
    total_errors += point.errors;
    worst_p99 = std::max(worst_p99, point.p99_ms);
    any_ops = any_ops || point.ops > 0;
  }
  bool ok;
  if (smoke) {
    // CI gate: the server served every op with sane latency; the
    // amortization factor on a tiny corpus is informational.
    ok = any_ops && total_errors == 0 && worst_p99 < 30000.0;
    std::printf("smoke gate: ops served, 0 errors, p99 < 30s -> %s\n",
                ok ? "OK" : "FAIL");
    std::printf("amortization: server %.1f q/s vs open-per-query %.2f q/s "
                "(%.0fx)\n",
                single_client_cache_off_qps, baseline_qps, speedup);
  } else {
    ok = total_errors == 0 && speedup >= 10.0;
    std::printf("amortization gate: server %.1f q/s vs open-per-query "
                "%.2f q/s = %.0fx (gate: >= 10x) %s\n",
                single_client_cache_off_qps, baseline_qps, speedup,
                speedup >= 10.0 ? "OK" : "FAIL");
  }

  // --------------------------------------------------------------- JSON
  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(file,
               "{\n"
               "  \"bench\": \"serve\",\n"
               "  \"mode\": \"%s\",\n"
               "  \"smoke\": %s,\n"
               "  \"articles\": %llu,\n"
               "  \"visible_cpus\": %u,\n"
               "  \"query_pool\": %zu,\n"
               "  \"ops_per_client\": %d,\n"
               "  \"baseline_open_per_query\": {\n"
               "    \"ops\": %d,\n"
               "    \"mean_seconds\": %.6f,\n"
               "    \"qps\": %.4f\n"
               "  },\n"
               "  \"server_single_client_cache_off_qps\": %.4f,\n"
               "  \"amortization_speedup\": %.2f,\n"
               "  \"speedup_gate_10x\": %s,\n"
               "  \"errors\": %llu,\n"
               "  \"sweeps\": [\n",
               tixd_path.empty() ? "in-process" : "external-tixd",
               smoke ? "true" : "false",
               static_cast<unsigned long long>(env.num_articles),
               visible_cpus, pool.size(), ops_per_client, baseline_ops,
               baseline_mean_s, baseline_qps, single_client_cache_off_qps,
               speedup, (!smoke && speedup >= 10.0) ? "true" : "false",
               static_cast<unsigned long long>(total_errors));
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    std::fprintf(
        file,
        "    {\"clients\": %d, \"result_cache\": %s, \"ops\": %llu,\n"
        "     \"qps\": %.4f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"mean_ms\": %.4f,\n"
        "     \"errors\": %llu, \"cache_hit_rate\": %.4f}%s\n",
        point.clients, point.cache_on ? "true" : "false",
        static_cast<unsigned long long>(point.ops), point.qps, point.p50_ms,
        point.p99_ms, point.mean_ms,
        static_cast<unsigned long long>(point.errors), point.cache_hit_rate,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("\nwrote %s\n", out.c_str());
  return ok ? 0 : 1;
}
