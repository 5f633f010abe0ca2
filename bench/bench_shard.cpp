// Doc-sharded scatter-gather top-K: the benchmark behind
// docs/SHARDING.md. Two claims are gated:
//
//   1. Exactness — the coordinator's response is byte-identical to a
//      single node holding the whole corpus, at every shard count
//      (header `scored` masked: it counts pruning survivors, which
//      legitimately varies with pruning tightness).
//   2. Heap-floor gossip pays — at k=10 the fleet-wide postings
//      scanned (term_join_occurrences summed over shards) with gossip
//      ON is >= 1.5x lower than with gossip OFF.
//
//   ./build/bench/bench_shard [--docs=4020] [--winners=20]
//                             [--winner-count=300] [--bg-count=40]
//                             [--repeats=3]
//                             [--data-dir=/tmp/tix_bench_shard]
//                             [--out=BENCH_shard.json]
//                             [--smoke] [--tixd=PATH]
//
// The corpus is deliberately skewed: `winners` documents with
// `winner-count` occurrences of the planted term sit at global indices
// g = 0, 4, 8, ... — all of which round-robin to shard 0 at every
// shard count in {1, 2, 4} — while every other document carries a
// homogeneous `bg-count` occurrences. Gossip-off shards full-scan the
// background (their local floor equals the background bound, and
// pruning is strict `<`); gossip-on shards learn shard 0's floor at
// the next kFloor poll and prune everything after it. Winner postings
// (winners x winner-count) must exceed the 4096-occurrence poll
// stride, or shard 0 exhausts before ever reporting its floor.
//
// --smoke shrinks the corpus, sweeps shard counts {1, 2}, and gates
// equivalence only (the CI mode; the stride math above needs the full
// corpus for the perf gate to be meaningful). --tixd=PATH runs real
// tixd child processes — one per shard plus a coordinator — instead
// of in-process servers: same protocol, real process boundaries.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/obs.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/server.h"
#include "storage/database.h"
#include "xml/parser.h"

namespace {

using namespace tix::bench;

constexpr const char* kTerm = "zzhot";

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

struct CorpusSpec {
  uint64_t docs = 4020;
  uint64_t winners = 20;
  uint64_t winner_count = 300;
  uint64_t bg_count = 40;

  bool IsWinner(uint64_t g) const { return g % 4 == 0 && g / 4 < winners; }
};

/// One document: (name, xml). Winners and background share the same
/// three-level shape so //* anchors behave identically everywhere.
std::pair<std::string, std::string> MakeDoc(const CorpusSpec& spec,
                                            uint64_t g) {
  const uint64_t count = spec.IsWinner(g) ? spec.winner_count : spec.bg_count;
  std::string body;
  body.reserve(count * (std::strlen(kTerm) + 1) + 32);
  for (uint64_t i = 0; i < count; ++i) {
    if (i > 0) body += ' ';
    body += kTerm;
  }
  return {tix::StrFormat("doc%05llu.xml", (unsigned long long)g),
          "<article><sec><p>" + body + "</p></sec></article>"};
}

tix::Status IngestShard(tix::storage::Database* db,
                        const CorpusSpec& spec, uint64_t shard,
                        uint64_t shard_count) {
  // Deal document g to shard g % n (local id g / n), matching the
  // server's global-id reconstruction local * n + shard_id.
  for (uint64_t g = shard; g < spec.docs; g += shard_count) {
    const auto [name, xml] = MakeDoc(spec, g);
    TIX_ASSIGN_OR_RETURN(const auto parsed, tix::xml::ParseXml(xml, name));
    TIX_RETURN_IF_ERROR(db->AddDocument(parsed).status());
  }
  return tix::Status::OK();
}

/// One running fleet behind a uniform surface: the coordinator's port,
/// fleet-wide postings scanned, and the coordinator's floor-exchange
/// count. `shards == 1` still routes through a coordinator (fan-out of
/// one) so the n=1 row exercises the same code path.
class FleetEndpoint {
 public:
  virtual ~FleetEndpoint() = default;
  virtual uint16_t port() const = 0;
  /// Sum of term_join_occurrences across every shard server.
  virtual uint64_t PostingsScanned() = 0;
  uint64_t FloorExchanges() {
    auto client = tix::server::Client::Connect("127.0.0.1", port());
    if (!client.ok()) return 0;
    auto stats = client.value().Stats();
    if (!stats.ok()) return 0;
    return JsonField(stats.value(), "fleet", "floor_exchanges");
  }
};

class InProcessFleet : public FleetEndpoint {
 public:
  InProcessFleet(const CorpusSpec& spec, const std::string& dir, size_t n,
                 bool gossip) {
    tix::server::ShardFleetOptions fleet_options;
    fleet_options.floor_gossip = gossip;
    for (size_t i = 0; i < n; ++i) {
      tix::storage::DatabaseOptions db_options;
      db_options.buffer_pool_pages = 1024;
      const std::string shard_dir = dir + tix::StrFormat("/s%zu_%zu", n, i);
      auto db = tix::storage::Database::Create(shard_dir, db_options);
      Check(db.status(), "create shard db");
      Check(IngestShard(db.value().get(), spec, i, n), "ingest shard");
      auto index = tix::index::InvertedIndex::Build(db.value().get());
      Check(index.status(), "build shard index");
      Check(index.value().SaveToFile(shard_dir + "/index.tix"),
            "save shard index");
      auto segmented = tix::index::SegmentedIndex::Open(shard_dir);
      Check(segmented.status(), "open shard index");
      dbs_.push_back(std::move(db.value()));
      indexes_.push_back(std::move(segmented.value()));
      tix::server::ServerOptions options;
      options.shard_id = static_cast<uint32_t>(i);
      options.shard_count = static_cast<uint32_t>(n);
      options.result_cache_bytes = 0;
      auto server = std::make_unique<tix::server::TixServer>(
          dbs_.back().get(), indexes_.back().get(), options);
      Check(server->Start(), "start shard server");
      fleet_options.shards.push_back({"127.0.0.1", server->port()});
      shards_.push_back(std::move(server));
    }
    coordinator_ = std::make_unique<tix::server::TixServer>(
        std::move(fleet_options), tix::server::ServerOptions{});
    Check(coordinator_->Start(), "start coordinator");
  }
  ~InProcessFleet() override {
    if (coordinator_ != nullptr) coordinator_->Stop();
    for (const auto& shard : shards_) shard->Stop();
  }

  uint16_t port() const override { return coordinator_->port(); }
  uint64_t PostingsScanned() override {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->WorkCounter(tix::obs::Counter::kTermJoinOccurrences);
    }
    return total;
  }

 private:
  static void Check(const tix::Status& status, const char* what) {
    if (status.ok()) return;
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }

  std::vector<std::unique_ptr<tix::storage::Database>> dbs_;
  std::vector<std::unique_ptr<tix::index::SegmentedIndex>> indexes_;
  std::vector<std::unique_ptr<tix::server::TixServer>> shards_;
  std::unique_ptr<tix::server::TixServer> coordinator_;
};

/// Real tixd children: per-shard databases are built on disk with a
/// monolithic index.tix (adopted by tixd's segmented open), then one
/// tixd per shard plus a coordinator tixd are spawned and the READY
/// line parsed for each ephemeral port.
class ExternalFleet : public FleetEndpoint {
 public:
  ExternalFleet(const std::string& tixd_path, const CorpusSpec& spec,
                const std::string& dir, size_t n, bool gossip) {
    std::string shard_list;
    for (size_t i = 0; i < n; ++i) {
      const std::string shard_dir =
          dir + tix::StrFormat("/x%zu_%zu", n, i);
      {
        tix::storage::DatabaseOptions db_options;
        db_options.buffer_pool_pages = 1024;
        auto db = tix::storage::Database::Create(shard_dir, db_options);
        Check(db.status(), "create shard db");
        Check(IngestShard(db.value().get(), spec, i, n), "ingest shard");
        auto index = tix::index::InvertedIndex::Build(db.value().get());
        Check(index.status(), "build shard index");
        Check(index.value().SaveToFile(shard_dir + "/index.tix"),
              "save shard index");
        // Publish the catalog: tixd opens the directory cold.
        Check(db.value()->Save(), "save shard db");
      }
      const uint16_t port = Spawn(tix::StrFormat(
          "%s --db=%s --port=0 --shard-id=%zu --shard-count=%zu",
          tixd_path.c_str(), shard_dir.c_str(), i, n));
      shard_ports_.push_back(port);
      if (!shard_list.empty()) shard_list += ',';
      shard_list += tix::StrFormat("127.0.0.1:%u", (unsigned)port);
    }
    coordinator_port_ = Spawn(tix::StrFormat(
        "%s --coordinator --shards=%s --port=0%s", tixd_path.c_str(),
        shard_list.c_str(), gossip ? "" : " --no-gossip"));
  }
  ~ExternalFleet() override {
    // Coordinator first (it holds pooled connections into the shards).
    std::vector<uint16_t> ports;
    ports.push_back(coordinator_port_);
    ports.insert(ports.end(), shard_ports_.begin(), shard_ports_.end());
    for (const uint16_t port : ports) {
      auto client = tix::server::Client::Connect("127.0.0.1", port);
      if (client.ok()) client.value().RequestShutdown().ok();
    }
    for (std::FILE* pipe : pipes_) ::pclose(pipe);
  }

  uint16_t port() const override { return coordinator_port_; }
  uint64_t PostingsScanned() override {
    uint64_t total = 0;
    for (const uint16_t port : shard_ports_) {
      auto client = tix::server::Client::Connect("127.0.0.1", port);
      if (!client.ok()) continue;
      auto stats = client.value().Stats();
      if (!stats.ok()) continue;
      total += JsonField(stats.value(), "work", "term_join_occurrences");
    }
    return total;
  }

 private:
  static void Check(const tix::Status& status, const char* what) {
    if (status.ok()) return;
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }

  uint16_t Spawn(const std::string& command) {
    std::FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) {
      std::fprintf(stderr, "cannot spawn: %s\n", command.c_str());
      std::exit(1);
    }
    pipes_.push_back(pipe);
    char line[256] = {0};
    uint16_t port = 0;
    if (std::fgets(line, sizeof line, pipe) == nullptr ||
        std::sscanf(line, "READY port=%hu", &port) != 1) {
      std::fprintf(stderr, "tixd did not print READY (got: %s)\n", line);
      std::exit(1);
    }
    return port;
  }

  std::vector<std::FILE*> pipes_;
  std::vector<uint16_t> shard_ports_;
  uint16_t coordinator_port_ = 0;
};

/// The equivalence contract masks the header's `scored` statistic (see
/// file comment); everything else must match byte-for-byte.
std::string MaskScored(std::string response) {
  const size_t begin = response.find(", scored ");
  if (begin == std::string::npos) return response;
  const size_t end = response.find(')', begin);
  if (end == std::string::npos) return response;
  return response.replace(begin, end - begin, ", scored _");
}

std::string QueryForK(uint64_t k) {
  return tix::StrFormat(
      "FOR $a IN document(\"*\")//* SCORE $a USING foo({\"%s\"}) "
      "THRESHOLD STOP AFTER %llu RETURN $a",
      kTerm, (unsigned long long)k);
}

struct Row {
  size_t shards = 0;
  bool gossip = false;
  uint64_t k = 0;
  bool equivalent = false;
  uint64_t postings_mean = 0;
  uint64_t postings_min = 0;
  double latency_ms = 0;
  uint64_t floor_exchanges = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.GetString("smoke", "") == "true";
  CorpusSpec spec;
  spec.docs = flags.GetInt("docs", smoke ? 120 : 4020);
  spec.winners = flags.GetInt("winners", smoke ? 8 : 20);
  spec.winner_count = flags.GetInt("winner-count", smoke ? 120 : 300);
  spec.bg_count = flags.GetInt("bg-count", 40);
  const uint64_t repeats = flags.GetInt("repeats", smoke ? 1 : 3);
  const std::string data_dir =
      flags.GetString("data-dir", "/tmp/tix_bench_shard");
  const std::string out = flags.GetString("out", "BENCH_shard.json");
  const std::string tixd = flags.GetString("tixd", "");
  const unsigned visible_cpus = std::thread::hardware_concurrency();

  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  std::filesystem::create_directories(data_dir, ec);

  std::fprintf(stderr,
               "[bench] shard scatter-gather: %llu docs (%llu winners x "
               "%llu, background x %llu), %s, cpus=%u\n",
               (unsigned long long)spec.docs,
               (unsigned long long)spec.winners,
               (unsigned long long)spec.winner_count,
               (unsigned long long)spec.bg_count,
               tixd.empty() ? "in-process" : "external tixd", visible_cpus);

  const std::vector<uint64_t> ks = {1, 10};
  const std::vector<size_t> shard_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4};

  // ---- Single-node baseline: the whole corpus behind one plain tixd
  // (no coordinator anywhere in the path). Its responses are the
  // ground truth every fleet must reproduce.
  std::vector<std::string> expected;
  {
    tix::storage::DatabaseOptions db_options;
    db_options.buffer_pool_pages = 1024;
    auto db = tix::storage::Database::Create(data_dir + "/single", db_options);
    if (!db.ok() || !IngestShard(db.value().get(), spec, 0, 1).ok()) {
      std::fprintf(stderr, "baseline build failed\n");
      return 1;
    }
    auto index = tix::index::InvertedIndex::Build(db.value().get());
    if (!index.ok() ||
        !index.value().SaveToFile(data_dir + "/single/index.tix").ok()) {
      std::fprintf(stderr, "baseline index failed\n");
      return 1;
    }
    auto segmented = tix::index::SegmentedIndex::Open(data_dir + "/single");
    if (!segmented.ok()) {
      std::fprintf(stderr, "baseline index open failed\n");
      return 1;
    }
    tix::server::ServerOptions options;
    options.result_cache_bytes = 0;
    tix::server::TixServer server(db.value().get(), segmented.value().get(),
                                  options);
    if (!server.Start().ok()) return 1;
    auto client =
        tix::server::Client::Connect("127.0.0.1", server.port());
    for (const uint64_t k : ks) {
      auto response = client.value().Query(QueryForK(k));
      if (!response.ok()) {
        std::fprintf(stderr, "baseline query failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      expected.push_back(MaskScored(response.value()));
    }
    server.Stop();
  }

  // ---- The sweep: shard count x gossip x k. -------------------------
  std::vector<Row> rows;
  bool equivalence_ok = true;
  for (const size_t n : shard_counts) {
    for (const bool gossip : {true, false}) {
      const std::string fleet_dir =
          data_dir + tix::StrFormat("/n%zu_%s", n, gossip ? "on" : "off");
      std::filesystem::create_directories(fleet_dir, ec);
      std::unique_ptr<FleetEndpoint> fleet;
      if (tixd.empty()) {
        fleet = std::make_unique<InProcessFleet>(spec, fleet_dir, n, gossip);
      } else {
        fleet = std::make_unique<ExternalFleet>(tixd, spec, fleet_dir, n,
                                                gossip);
      }
      auto client =
          tix::server::Client::Connect("127.0.0.1", fleet->port());
      if (!client.ok()) {
        std::fprintf(stderr, "connect coordinator: %s\n",
                     client.status().ToString().c_str());
        return 1;
      }
      for (size_t ki = 0; ki < ks.size(); ++ki) {
        Row row;
        row.shards = n;
        row.gossip = gossip;
        row.k = ks[ki];
        const std::string query = QueryForK(ks[ki]);
        const uint64_t exchanges_before = fleet->FloorExchanges();
        std::vector<uint64_t> deltas;
        double latency_total = 0;
        for (uint64_t r = 0; r < repeats; ++r) {
          const uint64_t before = fleet->PostingsScanned();
          tix::WallTimer timer;
          auto response = client.value().Query(query);
          latency_total += timer.ElapsedSeconds() * 1000.0;
          if (!response.ok()) {
            std::fprintf(stderr, "query failed (n=%zu gossip=%d k=%llu): %s\n",
                         n, (int)gossip, (unsigned long long)ks[ki],
                         response.status().ToString().c_str());
            return 1;
          }
          deltas.push_back(fleet->PostingsScanned() - before);
          if (r == 0) {
            row.equivalent = MaskScored(response.value()) == expected[ki];
            if (!row.equivalent) {
              equivalence_ok = false;
              std::fprintf(stderr,
                           "EQUIVALENCE FAILED n=%zu gossip=%d k=%llu\n", n,
                           (int)gossip, (unsigned long long)ks[ki]);
            }
          }
        }
        uint64_t sum = 0;
        row.postings_min = deltas.empty() ? 0 : deltas[0];
        for (const uint64_t d : deltas) {
          sum += d;
          row.postings_min = std::min(row.postings_min, d);
        }
        row.postings_mean = deltas.empty() ? 0 : sum / deltas.size();
        row.latency_ms = repeats > 0 ? latency_total / repeats : 0;
        row.floor_exchanges = fleet->FloorExchanges() - exchanges_before;
        rows.push_back(row);
        std::fprintf(stderr,
                     "[bench]   n=%zu gossip=%-3s k=%-2llu postings=%llu "
                     "(min %llu) floors=%llu %s %.2fms\n",
                     n, gossip ? "on" : "off", (unsigned long long)row.k,
                     (unsigned long long)row.postings_mean,
                     (unsigned long long)row.postings_min,
                     (unsigned long long)row.floor_exchanges,
                     row.equivalent ? "ok" : "MISMATCH", row.latency_ms);
      }
    }
  }

  // ---- Gates. -------------------------------------------------------
  // Gossip-on is scheduling-dependent (a background shard may scan up
  // to one poll stride per exchange opportunity before the winner
  // shard's floor lands), so the ratio compares gossip-off mean to
  // gossip-on best-of-repeats.
  auto find_row = [&rows](size_t n, bool gossip, uint64_t k) -> const Row* {
    for (const Row& row : rows) {
      if (row.shards == n && row.gossip == gossip && row.k == k) return &row;
    }
    return nullptr;
  };
  const double kMinRatio = 1.5;
  std::string ratio_json = "{";
  bool gossip_ok = true;
  bool first_ratio = true;
  for (const size_t n : shard_counts) {
    if (n == 1) continue;  // one shard: nothing to gossip across
    const Row* on = find_row(n, true, 10);
    const Row* off = find_row(n, false, 10);
    const double ratio =
        (on != nullptr && off != nullptr && on->postings_min > 0)
            ? static_cast<double>(off->postings_mean) / on->postings_min
            : 0.0;
    if (!smoke && ratio < kMinRatio) gossip_ok = false;
    if (!first_ratio) ratio_json += ",";
    first_ratio = false;
    ratio_json += tix::StrFormat("\"n%zu\": %.2f", n, ratio);
    std::fprintf(stderr, "[bench] gossip ratio at k=10, n=%zu: %.2fx %s\n", n,
                 ratio,
                 smoke ? "(informational in smoke)"
                       : (ratio >= kMinRatio ? "(>= 1.5 ok)" : "(< 1.5 FAIL)"));
  }
  ratio_json += "}";
  const bool pass = equivalence_ok && gossip_ok;

  std::string rows_json;
  for (const Row& row : rows) {
    if (!rows_json.empty()) rows_json += ",\n    ";
    rows_json += tix::StrFormat(
        "{\"shards\": %zu, \"gossip\": %s, \"k\": %llu, "
        "\"equivalent\": %s, \"postings_mean\": %llu, "
        "\"postings_min\": %llu, \"latency_ms\": %.3f, "
        "\"floor_exchanges\": %llu}",
        row.shards, row.gossip ? "true" : "false",
        (unsigned long long)row.k, row.equivalent ? "true" : "false",
        (unsigned long long)row.postings_mean,
        (unsigned long long)row.postings_min, row.latency_ms,
        (unsigned long long)row.floor_exchanges);
  }
  const std::string json = tix::StrFormat(
      "{\n"
      "  \"bench\": \"shard\",\n"
      "  \"mode\": \"%s\",\n"
      "  \"smoke\": %s,\n"
      "  \"visible_cpus\": %u,\n"
      "  \"corpus\": {\"docs\": %llu, \"winners\": %llu, "
      "\"winner_count\": %llu, \"bg_count\": %llu},\n"
      "  \"repeats\": %llu,\n"
      "  \"rows\": [\n    %s\n  ],\n"
      "  \"gossip_ratio_k10\": %s,\n"
      "  \"gate\": {\"equivalence_ok\": %s, \"min_ratio\": %.1f, "
      "\"gossip_ok\": %s, \"pass\": %s}\n"
      "}\n",
      tixd.empty() ? "in-process" : "external", smoke ? "true" : "false",
      visible_cpus, (unsigned long long)spec.docs,
      (unsigned long long)spec.winners, (unsigned long long)spec.winner_count,
      (unsigned long long)spec.bg_count, (unsigned long long)repeats,
      rows_json.c_str(), ratio_json.c_str(),
      equivalence_ok ? "true" : "false", kMinRatio,
      gossip_ok ? "true" : "false", pass ? "true" : "false");
  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fputs(json.c_str(), file);
  std::fclose(file);
  std::fprintf(stderr, "[bench] wrote %s — %s\n", out.c_str(),
               pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
