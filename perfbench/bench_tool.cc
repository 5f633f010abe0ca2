// perfbench_tool: the compiled half of the end-to-end tixd benchmark
// (see README.md next to this file; run.py is the entry point).
//
//   perfbench_tool prepare   --dir=D --articles=N
//   perfbench_tool reference --dir=D --queries=F --out=F
//   perfbench_tool load      --port=P --plan=F --queries=F --docs=F
//                              --reference=F --out=F
//   perfbench_tool trace     --dir-a=D --dir-b=D --dir-c=D --plan=F
//                              --queries=F --docs=F --reference=F
//                              [--result-cache-mb=N] --out=F --spans=F
//
// prepare builds the bench corpus (bench/bench_corpus.h) into D and
// prints its size facts as JSON. reference opens D the way tixd does
// and records, per query text, a digest of the exact response tixd
// would send. load drives a running tixd over loopback TCP with the
// op plan run.py generated from the seed, checks every answer against
// the reference and writes raw timestamps (run.py computes every
// statistic). trace replays the same plan serially in process: pass A
// through server::Client against an in-process TixServer, pass B by
// calling each layer's public function in the server's order, pass C
// like B for every other query, without metrics collection (the
// tracing-overhead baseline).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_corpus.h"
#include "common/string_util.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/database.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

using Clock = std::chrono::steady_clock;
using tix::Status;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(1);
}

void DieIf(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("bad argument '" + arg + "' (expected --name=value)");
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) Die("missing --" + name);
  return it->second;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------- inputs

struct Doc {
  std::string name;
  std::string xml;
};

/// Docs file: one "name<TAB>xml" per line (the XML has no newlines).
std::vector<Doc> ReadDocs(const std::string& path) {
  std::vector<Doc> docs;
  for (const std::string& line : ReadLines(path)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) Die("malformed docs line in " + path);
    docs.push_back({line.substr(0, tab), line.substr(tab + 1)});
  }
  return docs;
}

struct Ingest {
  size_t doc = 0;
  /// Scheduled send time from the phase start; negative for a
  /// closed-loop writer, which sends as soon as the previous ack is in.
  int64_t due_ns = 0;
};

/// One phase of the op plan: closed-loop query streams (one connection
/// each) and an optional open-loop writer on its own connection. With
/// `cycle`, streams repeat until the writer has finished; otherwise
/// each stream runs once.
struct Phase {
  std::string name;
  std::vector<std::vector<size_t>> streams;
  bool cycle = false;
  std::vector<Ingest> ingests;
};

struct Plan {
  uint64_t base_docs = 0;
  std::vector<Phase> phases;
};

Plan ReadPlan(const std::string& path) {
  Plan plan;
  for (const std::string& line : ReadLines(path)) {
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag == "base_docs") {
      in >> plan.base_docs;
    } else if (tag == "phase") {
      plan.phases.emplace_back();
      in >> plan.phases.back().name;
    } else if (plan.phases.empty()) {
      Die("plan: '" + tag + "' before the first phase");
    } else if (tag == "stream") {
      std::vector<size_t> stream;
      for (size_t q; in >> q;) stream.push_back(q);
      plan.phases.back().streams.push_back(std::move(stream));
    } else if (tag == "cycle") {
      int cycle = 0;
      in >> cycle;
      plan.phases.back().cycle = cycle != 0;
    } else if (tag == "ingest") {
      Ingest ingest;
      in >> ingest.doc >> ingest.due_ns;
      plan.phases.back().ingests.push_back(ingest);
    } else if (!tag.empty()) {
      Die("plan: unknown line '" + line + "'");
    }
  }
  return plan;
}

// ------------------------------------------------------ answer checking

/// The response header is "N results (anchors A, scored S)". The anchor
/// count of a document("*") query counts live documents, which grows
/// while a writer ingests, so it is checked separately from the digest.
std::string MaskAnchors(const std::string& response, uint64_t* anchors) {
  *anchors = 0;
  const size_t at = response.find("(anchors ");
  const size_t newline = response.find('\n');
  if (at == std::string::npos || (newline != std::string::npos && at > newline)) {
    return response;
  }
  const size_t digits = at + 9;
  size_t end = digits;
  while (end < response.size() && response[end] >= '0' && response[end] <= '9') {
    ++end;
  }
  *anchors = std::strtoull(response.c_str() + digits, nullptr, 10);
  return response.substr(0, digits) + "*" + response.substr(end);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Reference {
  uint64_t digest = 0;
  uint64_t anchors = 0;
};

std::vector<Reference> ReadReference(const std::string& path) {
  std::vector<Reference> refs;
  for (const std::string& line : ReadLines(path)) {
    std::istringstream in(line);
    Reference ref;
    in >> std::hex >> ref.digest >> std::dec >> ref.anchors;
    refs.push_back(ref);
  }
  return refs;
}

/// Whether `response` is the reference answer. `anchor_slack` is how
/// many documents may have been ingested since the reference was taken.
bool Matches(const std::string& response, const Reference& ref,
             uint64_t anchor_slack) {
  uint64_t anchors = 0;
  const std::string masked = MaskAnchors(response, &anchors);
  return Fnv1a(masked) == ref.digest && anchors >= ref.anchors &&
         anchors <= ref.anchors + anchor_slack;
}

/// tixd's response for a query: the same header and render limit as
/// TixServer::ExecuteQuery.
std::string FormatResponse(const tix::query::QueryOutput& output,
                           const std::string& body) {
  std::string response = tix::StrFormat(
      "%zu results (anchors %llu, scored %llu)\n", output.results.size(),
      (unsigned long long)output.stats.anchors,
      (unsigned long long)output.stats.scored_elements);
  return response + body;
}

constexpr size_t kRenderLimit = 10;  // tixd's default --limit

/// The name-resolution probe: a single-step document-scoped top-1, whose
/// only anchor is the document root when `name` is live (NotFound when
/// it is not), so the check costs one in-document posting seek.
std::string ResolveQuery(const std::string& name) {
  return "FOR $a IN document(\"" + name +
         "\")//* SCORE $a USING foo({\"w00000\"}) THRESHOLD STOP AFTER 1 "
         "RETURN $a";
}

// ------------------------------------------------------------- opening

struct OpenedData {
  std::unique_ptr<tix::storage::Database> db;
  std::unique_ptr<tix::index::SegmentedIndex> index;
  double db_open_s = 0;
  double index_open_s = 0;
};

/// Opens `dir` exactly as tools/tixd.cpp does: default database
/// options, trust-mode segmented index, then Recover.
OpenedData OpenLikeTixd(const std::string& dir) {
  OpenedData data;
  const Clock::time_point t0 = Clock::now();
  auto db = tix::storage::Database::Open(dir);
  DieIf(db.status(), "open database " + dir);
  data.db = std::move(db).value();
  const Clock::time_point t1 = Clock::now();
  tix::index::SegmentedIndexOptions options;
  options.load.verify_on_open = false;
  auto index = tix::index::SegmentedIndex::Open(dir, options);
  DieIf(index.status(), "open index " + dir);
  data.index = std::move(index).value();
  DieIf(data.index->Recover(data.db.get()), "recover " + dir);
  const Clock::time_point t2 = Clock::now();
  data.db_open_s = std::chrono::duration<double>(t1 - t0).count();
  data.index_open_s = std::chrono::duration<double>(t2 - t1).count();
  return data;
}

// ------------------------------------------------------------- prepare

int Prepare(const std::map<std::string, std::string>& flags) {
  const std::string dir = Flag(flags, "dir");
  const uint64_t articles = std::stoull(Flag(flags, "articles"));
  uint64_t nodes = 0, docs = 0, xml_bytes = 0;
  {
    // The bench corpus seed is fixed: the workload seed varies the op
    // sequence, never the corpus.
    auto env = tix::bench::GetOrBuildBenchEnv(dir, articles, /*seed=*/42);
    DieIf(env.status(), "build corpus");
    tix::storage::Database* db = env.value().db.get();
    nodes = db->num_nodes();
    docs = db->documents().size();
    for (const tix::storage::DocumentInfo& info : db->documents()) {
      auto root = db->ReconstructSubtree(info.root);
      DieIf(root.status(), "reconstruct " + info.name);
      xml_bytes += tix::xml::SerializeNode(*root.value()).size();
    }
  }
  std::printf("{\"nodes\": %llu, \"documents\": %llu, \"xml_bytes\": %llu}\n",
              (unsigned long long)nodes, (unsigned long long)docs,
              (unsigned long long)xml_bytes);
  return 0;
}

// ----------------------------------------------------------- reference

int ReferenceCmd(const std::map<std::string, std::string>& flags) {
  OpenedData data = OpenLikeTixd(Flag(flags, "dir"));
  const std::vector<std::string> queries = ReadLines(Flag(flags, "queries"));
  std::ofstream out(Flag(flags, "out"), std::ios::trunc);
  for (const std::string& text : queries) {
    tix::query::QueryEngine engine(data.db.get(), data.index->Acquire());
    auto output = engine.ExecuteText(text);
    DieIf(output.status(), "reference query '" + text + "'");
    auto body = engine.RenderXml(output.value(), kRenderLimit);
    DieIf(body.status(), "reference render '" + text + "'");
    uint64_t anchors = 0;
    const std::string masked =
        MaskAnchors(FormatResponse(output.value(), body.value()), &anchors);
    out << std::hex << Fnv1a(masked) << std::dec << " " << anchors << "\n";
  }
  if (!out.good()) Die("cannot write reference");
  return 0;
}

// ---------------------------------------------------------------- load

struct QueryRecord {
  size_t client = 0;
  size_t qid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  char status = 'o';  ///< o = ok, w = wrong answer, e = error
};

struct IngestRecord {
  size_t doc = 0;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t ack_ns = 0;
  uint64_t doc_id = 0;
  char status = 'o';
};

tix::server::ClientOptions LoadClientOptions() {
  tix::server::ClientOptions options;
  // A wedged daemon fails the run instead of hanging it.
  options.io_timeout_ms = 60000;
  return options;
}

int Load(const std::map<std::string, std::string>& flags) {
  const uint16_t port =
      static_cast<uint16_t>(std::stoul(Flag(flags, "port")));
  const Plan plan = ReadPlan(Flag(flags, "plan"));
  const std::vector<std::string> queries = ReadLines(Flag(flags, "queries"));
  const std::vector<Doc> docs = ReadDocs(Flag(flags, "docs"));
  const std::vector<Reference> refs = ReadReference(Flag(flags, "reference"));
  if (refs.size() != queries.size()) Die("reference does not match queries");
  std::ofstream out(Flag(flags, "out"), std::ios::trunc);

  uint64_t next_doc_id = plan.base_docs;
  std::vector<const Doc*> acked;
  std::vector<std::string> errors;

  for (const Phase& phase : plan.phases) {
    for (const auto& stream : phase.streams) {
      for (const size_t qid : stream) {
        if (qid >= queries.size()) Die("plan names an unknown query");
      }
    }
    std::vector<tix::server::Client> readers;
    for (size_t c = 0; c < phase.streams.size(); ++c) {
      auto client =
          tix::server::Client::Connect("127.0.0.1", port, LoadClientOptions());
      DieIf(client.status(), "connect");
      readers.push_back(std::move(client).value());
    }
    std::optional<tix::server::Client> writer;
    if (!phase.ingests.empty()) {
      auto client =
          tix::server::Client::Connect("127.0.0.1", port, LoadClientOptions());
      DieIf(client.status(), "connect writer");
      writer.emplace(std::move(client).value());
    }

    std::vector<std::vector<QueryRecord>> query_records(phase.streams.size());
    std::vector<IngestRecord> ingest_records(phase.ingests.size());
    std::atomic<bool> writer_done{phase.ingests.empty()};
    // Documents sent so far: an upper bound on how many a concurrent
    // corpus-wide query may count beyond the reference.
    std::atomic<uint64_t> sent{0};
    std::mutex error_mu;
    auto note_error = [&](const std::string& message) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (errors.size() < 20) errors.push_back(message);
    };

    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < phase.streams.size(); ++c) {
      threads.emplace_back([&, c] {
        std::this_thread::sleep_until(t0);
        const std::vector<size_t>& stream = phase.streams[c];
        std::vector<QueryRecord>& records = query_records[c];
        for (size_t i = 0;; ++i) {
          if (i == stream.size()) {
            if (!phase.cycle || writer_done.load()) break;
            i = 0;
          }
          if (phase.cycle && writer_done.load()) break;
          QueryRecord record;
          record.client = c;
          record.qid = stream[i];
          const Clock::time_point start = Clock::now();
          auto response = readers[c].Query(queries[record.qid]);
          const Clock::time_point end = Clock::now();
          record.start_ns = Nanos(start - t0);
          record.end_ns = Nanos(end - t0);
          if (!response.ok()) {
            record.status = 'e';
            note_error("query " + std::to_string(record.qid) + ": " +
                       response.status().ToString());
          } else if (!Matches(response.value(), refs[record.qid],
                              sent.load())) {
            record.status = 'w';
            note_error("query " + std::to_string(record.qid) +
                       ": wrong answer");
          }
          records.push_back(record);
        }
      });
    }
    if (writer.has_value()) {
      threads.emplace_back([&] {
        for (size_t i = 0; i < phase.ingests.size(); ++i) {
          const Ingest& ingest = phase.ingests[i];
          IngestRecord& record = ingest_records[i];
          record.doc = ingest.doc;
          record.due_ns = ingest.due_ns;
          if (ingest.due_ns >= 0) {
            std::this_thread::sleep_until(
                t0 + std::chrono::nanoseconds(ingest.due_ns));
          }
          const Doc& doc = docs.at(ingest.doc);
          sent.fetch_add(1);
          const Clock::time_point send = Clock::now();
          if (ingest.due_ns < 0) record.due_ns = Nanos(send - t0);
          auto doc_id = writer->Ingest(doc.name, doc.xml);
          const Clock::time_point ack = Clock::now();
          record.send_ns = Nanos(send - t0);
          record.ack_ns = Nanos(ack - t0);
          if (!doc_id.ok()) {
            record.status = 'e';
            note_error("ingest " + doc.name + ": " +
                       doc_id.status().ToString());
            continue;
          }
          record.doc_id = doc_id.value();
          // Ids must come back consecutive from the pristine corpus size.
          if (record.doc_id != next_doc_id) {
            record.status = 'w';
            note_error("ingest " + doc.name + ": doc id " +
                       std::to_string(record.doc_id) + ", expected " +
                       std::to_string(next_doc_id));
          }
          next_doc_id = record.doc_id + 1;
          acked.push_back(&doc);
        }
        writer_done.store(true);
      });
    }
    for (std::thread& thread : threads) thread.join();
    const int64_t wall_ns = Nanos(Clock::now() - t0);

    for (const auto& records : query_records) {
      for (const QueryRecord& r : records) {
        out << "Q " << phase.name << " " << r.client << " " << r.qid << " "
            << r.start_ns << " " << r.end_ns << " " << r.status << "\n";
      }
    }
    for (const IngestRecord& r : ingest_records) {
      out << "I " << phase.name << " " << r.doc << " " << r.due_ns << " "
          << r.send_ns << " " << r.ack_ns << " " << r.doc_id << " "
          << r.status << "\n";
    }
    out << "W " << phase.name << " " << wall_ns << "\n";
  }

  // Every acknowledged document must resolve by name afterwards; its
  // serialized size counts toward the XML the data directory holds.
  uint64_t resolved = 0, unresolved = 0, acked_xml_bytes = 0;
  if (!acked.empty()) {
    auto client =
        tix::server::Client::Connect("127.0.0.1", port, LoadClientOptions());
    DieIf(client.status(), "connect verifier");
    for (const Doc* doc : acked) {
      auto response = client.value().Query(ResolveQuery(doc->name));
      if (response.ok() &&
          response.value().find("(anchors 1,") != std::string::npos) {
        ++resolved;
      } else {
        ++unresolved;
        if (errors.size() < 20) {
          errors.push_back("document " + doc->name + " does not resolve");
        }
      }
      auto parsed = tix::xml::ParseXml(doc->xml, doc->name);
      DieIf(parsed.status(), "parse " + doc->name);
      acked_xml_bytes += tix::xml::SerializeDocument(parsed.value()).size();
    }
  }
  out << "V " << resolved << " " << unresolved << "\n";
  out << "X " << acked_xml_bytes << "\n";
  for (const std::string& error : errors) out << "E " << error << "\n";
  if (!out.good()) Die("cannot write load output");
  return 0;
}

// --------------------------------------------------------------- trace

/// A serial op: a query id or a doc index.
struct SerialOp {
  bool is_query = true;
  size_t id = 0;
};

/// Interleaves a phase's streams round-robin (each stream once) and
/// spreads its ingests evenly among the queries.
std::vector<SerialOp> SerialOrder(const Phase& phase) {
  std::vector<SerialOp> reads;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& stream : phase.streams) {
      if (i < stream.size()) {
        reads.push_back({true, stream[i]});
        any = true;
      }
    }
    if (!any) break;
  }
  if (phase.ingests.empty()) return reads;
  std::vector<SerialOp> ops;
  const size_t writes = phase.ingests.size();
  size_t next_read = 0;
  for (size_t w = 0; w < writes; ++w) {
    const size_t reads_before = reads.size() * w / writes;
    while (next_read < reads_before) ops.push_back(reads[next_read++]);
    ops.push_back({false, phase.ingests[w].doc});
  }
  while (next_read < reads.size()) ops.push_back(reads[next_read++]);
  return ops;
}

/// `"key":<uint>` inside the `"section":{...}` object of a STATS
/// document; nullopt when the section or key is absent.
std::optional<uint64_t> StatsField(const std::string& json,
                                   const std::string& section,
                                   const std::string& key) {
  const size_t at = json.find("\"" + section + "\":{");
  if (at == std::string::npos) return std::nullopt;
  const size_t close = json.find('}', at);
  const size_t k = json.find("\"" + key + "\":", at);
  if (k == std::string::npos || k > close) return std::nullopt;
  return std::strtoull(json.c_str() + k + key.size() + 3, nullptr, 10);
}

/// One recorded span: a layer's call for one op. Exec operator spans
/// come from the engine's EXPLAIN tree, which records durations only.
struct Span {
  size_t op = 0;
  std::string name;
  std::string parent;
  int64_t start_ns = -1;  ///< -1 when only the duration is known.
  int64_t dur_ns = 0;
};

const char* const kStatsCounters[] = {
    "record_fetches",        "text_bytes_read",
    "index_blocks_scanned",  "index_blocks_decoded",
    "index_block_cache_hits", "term_join_occurrences",
    "topk_postings_pruned",
};

struct PassAOp {
  double round_trip_ms = 0;
  bool cache_hit = false;
  /// Work counters charged by this op (STATS delta); absent keys stay
  /// absent.
  std::map<std::string, std::optional<uint64_t>> work;
};

struct PassBQuery {
  double parse_ms = 0, execute_ms = 0, render_ms = 0;
  std::map<std::string, double> op_ms;  ///< Named exec operators.
  uint64_t pages_read = 0, page_hits = 0;
  uint64_t segments = 0;
};

/// Self time of the engine's top-level operators, grouped by the exec
/// layer they belong to. Each operator's whole subtree (e.g. TermJoin
/// partitions) counts toward it.
const std::map<std::string, std::string>& OperatorLayer() {
  static const auto* const kMap = new std::map<std::string, std::string>{
      {"StructuralMatch", "exec.structural_match_ms"},
      {"TermJoin", "exec.term_join_ms"},
      {"ParallelTermJoin", "exec.term_join_ms"},
      {"Scope", "exec.scope_ms"},
      {"Pick", "exec.pick_ms"},
  };
  return *kMap;
}

int Trace(const std::map<std::string, std::string>& flags) {
  const Plan plan = ReadPlan(Flag(flags, "plan"));
  const std::vector<std::string> queries = ReadLines(Flag(flags, "queries"));
  const std::vector<Doc> docs = ReadDocs(Flag(flags, "docs"));
  const std::vector<Reference> refs = ReadReference(Flag(flags, "reference"));
  if (refs.size() != queries.size()) Die("reference does not match queries");

  std::vector<SerialOp> ops;
  for (const Phase& phase : plan.phases) {
    for (const SerialOp& op : SerialOrder(phase)) ops.push_back(op);
  }
  uint64_t failed = 0, attempted = 0;
  std::vector<std::string> errors;
  auto fail = [&](const std::string& message) {
    ++failed;
    if (errors.size() < 20) errors.push_back(message);
  };
  std::vector<Span> spans;
  const Clock::time_point trace_t0 = Clock::now();
  auto since = [&](Clock::time_point t) { return Nanos(t - trace_t0); };

  // The three passes advance op by op, so machine-speed drift over the
  // run affects them alike. Each has its own copy of the data, database
  // and buffer pool; they share only the process-wide decoded-block
  // cache, whose entries are keyed per loaded list and never cross.
  OpenedData data_a = OpenLikeTixd(Flag(flags, "dir-a"));
  OpenedData data_b = OpenLikeTixd(Flag(flags, "dir-b"));
  OpenedData data_c = OpenLikeTixd(Flag(flags, "dir-c"));
  spans.push_back({0, "storage.open", "", -1,
                   static_cast<int64_t>(data_b.db_open_s * 1e9)});
  spans.push_back({0, "index.open", "", -1,
                   static_cast<int64_t>(data_b.index_open_s * 1e9)});

  // Pass A: the daemon's defaults plus the workload's result-cache flag.
  tix::server::ServerOptions options;
  if (flags.count("result-cache-mb") != 0) {
    options.result_cache_bytes = std::stoul(flags.at("result-cache-mb")) << 20;
  }
  tix::server::TixServer server(data_a.db.get(), data_a.index.get(), options);
  DieIf(server.Start(), "start in-process server");
  auto client = tix::server::Client::Connect("127.0.0.1", server.port(),
                                             LoadClientOptions());
  DieIf(client.status(), "connect in-process server");
  auto stats = client.value().Stats();
  DieIf(stats.status(), "stats");
  std::string previous = std::move(stats).value();

  size_t last_query = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].is_query) last_query = i;
  }
  tix::query::EngineOptions traced_options;
  traced_options.collect_metrics = true;
  std::vector<PassAOp> pass_a(ops.size());
  std::vector<PassBQuery> pass_b(ops.size());
  std::vector<double> parse_xml_ms, add_document_ms, ingest_ms, seal_ms,
      compact_s;
  double b_query_ms = 0, c_query_ms = 0;
  uint64_t next_doc_id = plan.base_docs, sent = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    ++attempted;
    // ---- Pass A: through the server.
    const Clock::time_point start = Clock::now();
    if (ops[i].is_query) {
      auto response = client.value().Query(queries[ops[i].id]);
      const Clock::time_point end = Clock::now();
      pass_a[i].round_trip_ms = Millis(end - start);
      spans.push_back(
          {i, "server.round_trip", "", since(start), Nanos(end - start)});
      if (!response.ok()) {
        fail("pass A query: " + response.status().ToString());
      } else if (!Matches(response.value(), refs[ops[i].id], sent)) {
        fail("pass A query " + std::to_string(ops[i].id) + ": wrong answer");
      }
    } else {
      const Doc& doc = docs.at(ops[i].id);
      ++sent;
      auto doc_id = client.value().Ingest(doc.name, doc.xml);
      const Clock::time_point end = Clock::now();
      pass_a[i].round_trip_ms = Millis(end - start);
      spans.push_back({i, "server.ingest_round_trip", "", since(start),
                       Nanos(end - start)});
      if (!doc_id.ok()) {
        fail("pass A ingest: " + doc_id.status().ToString());
      } else if (doc_id.value() != next_doc_id++) {
        fail("pass A ingest: doc ids not consecutive");
      }
    }
    auto after = client.value().Stats();
    DieIf(after.status(), "stats");
    for (const char* key : kStatsCounters) {
      const auto now = StatsField(after.value(), "work", key);
      const auto before = StatsField(previous, "work", key);
      pass_a[i].work[key] =
          now && before ? std::optional<uint64_t>(*now - *before)
                        : std::nullopt;
    }
    const auto hits_now = StatsField(after.value(), "result_cache", "hits");
    const auto hits_before = StatsField(previous, "result_cache", "hits");
    pass_a[i].cache_hit = hits_now && hits_before && *hits_now > *hits_before;
    previous = std::move(after).value();

    if (ops[i].is_query) {
      // The server answered this op from its result cache: no parse,
      // execute or render ran for it.
      if (pass_a[i].cache_hit) continue;
      // ---- Pass B: each layer's public function, in the server's order.
      tix::storage::Database* db = data_b.db.get();
      PassBQuery& q = pass_b[i];
      const tix::storage::BufferPoolStats pool_before =
          db->buffer_pool().stats();
      auto snapshot = data_b.index->Acquire();
      q.segments = snapshot->num_segments();
      tix::query::QueryEngine engine(db, std::move(snapshot), traced_options);
      const Clock::time_point t0 = Clock::now();
      auto parsed = tix::query::ParseQuery(queries[ops[i].id]);
      const Clock::time_point t1 = Clock::now();
      DieIf(parsed.status(), "parse");
      auto output = engine.Execute(parsed.value());
      const Clock::time_point t2 = Clock::now();
      DieIf(output.status(), "execute");
      auto body = engine.RenderXml(output.value(), kRenderLimit);
      const Clock::time_point t3 = Clock::now();
      DieIf(body.status(), "render");
      const tix::storage::BufferPoolStats pool_after =
          db->buffer_pool().stats();
      q.parse_ms = Millis(t1 - t0);
      q.execute_ms = Millis(t2 - t1);
      q.render_ms = Millis(t3 - t2);
      q.pages_read = pool_after.misses - pool_before.misses;
      q.page_hits = pool_after.hits - pool_before.hits;
      spans.push_back({i, "query.parse", "server", since(t0), Nanos(t1 - t0)});
      spans.push_back({i, "query.execute", "server", since(t1), Nanos(t2 - t1)});
      spans.push_back({i, "query.render", "server", since(t2), Nanos(t3 - t2)});
      if (output.value().plan.has_value()) {
        for (const auto& child : output.value().plan->children) {
          const auto layer = OperatorLayer().find(child.name);
          if (layer == OperatorLayer().end()) continue;
          q.op_ms[layer->second] += child.seconds * 1e3;
          spans.push_back({i, layer->second, "query.execute", -1,
                           static_cast<int64_t>(child.seconds * 1e9)});
        }
      }
      if (!Matches(FormatResponse(output.value(), body.value()),
                   refs[ops[i].id], sent)) {
        fail("pass B query " + std::to_string(ops[i].id) + ": wrong answer");
      }
      // ---- Pass C: every other executed query again, without metrics
      // collection: the tracing-overhead baseline.
      if (i % 2 == 0) {
        tix::query::QueryEngine plain(data_c.db.get(), data_c.index->Acquire());
        const Clock::time_point c0 = Clock::now();
        auto plain_output = plain.ExecuteText(queries[ops[i].id]);
        DieIf(plain_output.status(), "execute");
        DieIf(plain.RenderXml(plain_output.value(), kRenderLimit).status(),
              "render");
        c_query_ms += Millis(Clock::now() - c0);
        b_query_ms += Millis(t3 - t0);
      }
      continue;
    }
    // ---- Passes B (timed) and C (state only, while queries remain)
    // ingest the same document.
    const Doc& doc = docs.at(ops[i].id);
    for (OpenedData* data : {&data_b, &data_c}) {
      const bool timed = data == &data_b;
      if (!timed && i > last_query) continue;
      tix::storage::Database* db = data->db.get();
      tix::index::SegmentedIndex* index = data->index.get();
      const Clock::time_point t0 = Clock::now();
      auto parsed = tix::xml::ParseXml(doc.xml, doc.name);
      const Clock::time_point t1 = Clock::now();
      DieIf(parsed.status(), "parse " + doc.name);
      auto doc_id = db->AddDocument(parsed.value());
      const Clock::time_point t2 = Clock::now();
      DieIf(doc_id.status(), "add " + doc.name);
      DieIf(index->Ingest(db, doc_id.value()), "ingest " + doc.name);
      const Clock::time_point t3 = Clock::now();
      // Ingest seals the write buffer when it crosses the threshold; such
      // a call is a seal, the rest are buffer rebuilds.
      const tix::index::SegmentedIndexStats index_stats = index->Stats();
      const bool sealed = index_stats.buffered_docs == 0;
      if (timed) {
        parse_xml_ms.push_back(Millis(t1 - t0));
        add_document_ms.push_back(Millis(t2 - t1));
        (sealed ? seal_ms : ingest_ms).push_back(Millis(t3 - t2));
        spans.push_back({i, "xml.parse", "server", since(t0), Nanos(t1 - t0)});
        spans.push_back(
            {i, "storage.add_document", "server", since(t1), Nanos(t2 - t1)});
        spans.push_back({i, sealed ? "index.seal" : "index.ingest", "server",
                         since(t2), Nanos(t3 - t2)});
      }
      // The server's trigger point (MaybeScheduleCompaction), run
      // synchronously here.
      if (index_stats.num_segments >= index->options().compact_min_segments) {
        const Clock::time_point c0 = Clock::now();
        DieIf(index->Compact(), "compact");
        const Clock::time_point c1 = Clock::now();
        if (timed) {
          compact_s.push_back(std::chrono::duration<double>(c1 - c0).count());
          spans.push_back({i, "index.compact", "", since(c0), Nanos(c1 - c0)});
        }
      }
    }
  }
  client.value().Close();
  server.Stop();
  const double storage_open_s = data_b.db_open_s;
  const double index_open_s = data_b.index_open_s;

  // ---- Per-layer metrics: means over the query ops (cache hits count
  // as zero layer work) or over the ingest ops.
  std::map<std::string, double> metrics;
  size_t num_queries = 0, hits = 0;
  double round_trip = 0, parse = 0, execute = 0, render = 0;
  double pages = 0, page_hits = 0, segments = 0;
  std::map<std::string, double> op_ms;
  for (const auto& [op, layer] : OperatorLayer()) op_ms[layer] = 0;
  std::map<std::string, std::optional<uint64_t>> work;
  for (const char* key : kStatsCounters) work[key] = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].is_query) continue;
    ++num_queries;
    hits += pass_a[i].cache_hit ? 1 : 0;
    round_trip += pass_a[i].round_trip_ms;
    const PassBQuery& q = pass_b[i];
    parse += q.parse_ms;
    execute += q.execute_ms;
    render += q.render_ms;
    pages += static_cast<double>(q.pages_read);
    page_hits += static_cast<double>(q.page_hits);
    segments += static_cast<double>(q.segments);
    for (const auto& [layer, ms] : q.op_ms) op_ms[layer] += ms;
    for (const auto& [key, value] : pass_a[i].work) {
      if (!value || !work[key]) {
        work[key] = std::nullopt;
      } else {
        *work[key] += *value;
      }
    }
  }
  if (num_queries == 0) Die("plan has no queries");
  const double n = static_cast<double>(num_queries);
  double named_exec = 0;
  for (const auto& [layer, ms] : op_ms) {
    metrics[layer] = ms / n;
    named_exec += ms / n;
  }
  metrics["trace.round_trip_ms"] = round_trip / n;
  metrics["server.self_ms"] = (round_trip - parse - execute - render) / n;
  metrics["server.result_cache_hit_frac"] = static_cast<double>(hits) / n;
  metrics["query.parse_ms"] = parse / n;
  metrics["query.execute_ms"] = execute / n;
  metrics["query.render_ms"] = render / n;
  // The remainder of execute that no named exec operator covers
  // (Threshold, anchor/element conversion, engine glue).
  metrics["unattributed_ms"] = execute / n - named_exec;
  // The split is exhaustive: named layers plus the remainder are the
  // traced round trip.
  const double layer_sum = metrics["server.self_ms"] +
                           metrics["query.parse_ms"] +
                           metrics["query.render_ms"] + named_exec +
                           metrics["unattributed_ms"];
  if (std::abs(layer_sum - metrics["trace.round_trip_ms"]) >
      1e-9 * std::max(1.0, metrics["trace.round_trip_ms"])) {
    Die("layer times do not sum to the round trip");
  }
  metrics["storage.pages_read_per_query"] = pages / n;
  if (pages + page_hits > 0) {
    metrics["storage.buffer_pool_hit_frac"] = page_hits / (pages + page_hits);
  }
  const double executed = static_cast<double>(num_queries - hits);
  if (executed > 0) metrics["index.segments_per_query"] = segments / executed;
  auto per_query = [&](const char* key, const char* name) {
    if (work[key]) metrics[name] = static_cast<double>(*work[key]) / n;
  };
  per_query("record_fetches", "storage.record_fetches_per_query");
  per_query("text_bytes_read", "storage.text_bytes_per_query");
  per_query("index_blocks_decoded", "index.blocks_decoded_per_query");
  per_query("term_join_occurrences", "exec.postings_merged_per_query");
  if (work["index_block_cache_hits"] && work["index_blocks_scanned"] &&
      *work["index_blocks_scanned"] > 0) {
    metrics["index.block_cache_hit_frac"] =
        static_cast<double>(*work["index_block_cache_hits"]) /
        static_cast<double>(*work["index_blocks_scanned"]);
  }
  if (work["topk_postings_pruned"] && work["term_join_occurrences"]) {
    const double pruned = static_cast<double>(*work["topk_postings_pruned"]);
    const double merged = static_cast<double>(*work["term_join_occurrences"]);
    if (pruned + merged > 0) {
      metrics["exec.topk_prune_frac"] = pruned / (pruned + merged);
    }
  }
  metrics["storage.open_s"] = storage_open_s;
  metrics["index.open_s"] = index_open_s;
  auto mean = [](const std::vector<double>& values) {
    double sum = 0;
    for (const double v : values) sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  if (!parse_xml_ms.empty()) {
    metrics["xml.parse_ms"] = mean(parse_xml_ms);
    metrics["storage.add_document_ms"] = mean(add_document_ms);
  }
  if (!ingest_ms.empty()) metrics["index.ingest_ms"] = mean(ingest_ms);
  if (!seal_ms.empty()) metrics["index.seal_ms"] = mean(seal_ms);
  if (!compact_s.empty()) metrics["index.compact_s"] = mean(compact_s);
  if (c_query_ms > 0) metrics["trace.overhead_frac"] = b_query_ms / c_query_ms - 1;

  std::ofstream out(Flag(flags, "out"), std::ios::trunc);
  out.precision(17);
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"queries\": " << num_queries << ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    std::string quoted;
    for (const char c : errors[i]) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\t') ? ' ' : c;
    }
    out << (i ? ", " : "") << "\"" << quoted << "\"";
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  out << "}}\n";
  if (!out.good()) Die("cannot write trace output");

  std::ofstream span_out(Flag(flags, "spans"), std::ios::trunc);
  for (const Span& span : spans) {
    span_out << "{\"op\": " << span.op << ", \"name\": \"" << span.name
             << "\", \"parent\": \"" << span.parent
             << "\", \"start_ns\": " << span.start_ns
             << ", \"dur_ns\": " << span.dur_ns << "}\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_tool prepare|reference|load|trace ...");
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (command == "prepare") return Prepare(flags);
  if (command == "reference") return ReferenceCmd(flags);
  if (command == "load") return Load(flags);
  if (command == "trace") return Trace(flags);
  Die("unknown command '" + command + "'");
}
