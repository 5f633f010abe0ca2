// Structured IR search (Query 2 of the paper) on a generated INEX-like
// corpus: combine a database-style structural predicate (articles whose
// author is "doe") with IR-style relevance scoring and granularity
// selection via Pick.
//
//   ./build/examples/structured_search [num_articles]

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "common/timer.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "storage/database.h"
#include "workload/corpus.h"

namespace {

[[noreturn]] void Die(const tix::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Check(tix::Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t num_articles =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;

  // Generate a corpus with two planted query terms so the demo query has
  // interesting matches at known frequencies.
  auto db = Check(tix::storage::Database::Create(
      "/tmp/tix_structured_search",
      tix::storage::DatabaseOptions{.buffer_pool_pages = 2048, .tokenizer = {}}));
  tix::workload::CorpusOptions corpus_options;
  corpus_options.num_articles = num_articles;
  corpus_options.planted_terms = {{"xretrieval", 120}, {"xranking", 80}};
  corpus_options.planted_phrases = {{"xsearch", "xengine", 90, 90, 60}};
  tix::WallTimer timer;
  const auto corpus =
      Check(tix::workload::GenerateCorpus(db.get(), corpus_options));
  std::printf("generated %llu articles (%llu elements, %llu words) in %.2fs\n",
              static_cast<unsigned long long>(corpus.num_articles),
              static_cast<unsigned long long>(corpus.num_elements),
              static_cast<unsigned long long>(corpus.num_words),
              timer.ElapsedSeconds());

  timer.Restart();
  auto index = Check(tix::index::InvertedIndex::Build(db.get()));
  std::printf("indexed %llu postings in %.2fs\n",
              static_cast<unsigned long long>(index.stats().num_postings),
              timer.ElapsedSeconds());

  // Query 2 shape: structural filter + scoring + pick + threshold. The
  // author predicate restricts to articles whose (first) author surname
  // is "doe" — the pool guarantees roughly 1/20 of articles qualify.
  const std::string query_text = R"(
    FOR $a IN document("article0.xml")//article//*
    SCORE $a USING foo({"xsearch xengine"}, {"xretrieval", "xranking"})
    PICK $a USING pickfoo(0.8, 0.5)
    THRESHOLD STOP AFTER 10
    RETURN $a
  )";

  // Serve the index the one way the engine reads one: saved as
  // index.tix and adopted in place by SegmentedIndex::Open as segment 0.
  const tix::Status saved =
      index.SaveToFile("/tmp/tix_structured_search/index.tix");
  if (!saved.ok()) Die(saved);
  auto segmented =
      Check(tix::index::SegmentedIndex::Open("/tmp/tix_structured_search"));

  // Run the same query against every article that has a "doe" author.
  // (The engine scopes a query to one document; the loop is the FLWR
  // iteration over the collection.)
  tix::query::QueryEngine engine(db.get(), segmented->Acquire());
  timer.Restart();
  size_t docs_with_doe = 0;
  size_t total_results = 0;
  double best_score = 0.0;
  std::string best_doc;
  for (const tix::storage::DocumentInfo& doc : db->documents()) {
    const std::string probe = tix::StrFormat(
        R"(FOR $s IN document("%s")//article[fm/au/snm = "doe"] RETURN $s)",
        doc.name.c_str());
    const auto anchors = Check(engine.ExecuteText(probe));
    if (anchors.results.empty()) continue;
    ++docs_with_doe;

    std::string scored_text = query_text;
    const size_t pos = scored_text.find("article0.xml");
    scored_text.replace(pos, 12, doc.name);
    const auto output = Check(engine.ExecuteText(scored_text));
    total_results += output.results.size();
    if (!output.results.empty() && output.results[0].score > best_score) {
      best_score = output.results[0].score;
      best_doc = doc.name;
    }
  }
  std::printf(
      "\n%zu articles have author 'doe'; %zu picked components total "
      "(%.2fs)\n",
      docs_with_doe, total_results, timer.ElapsedSeconds());
  if (!best_doc.empty()) {
    std::printf("best component: score %.2f in %s\n", best_score,
                best_doc.c_str());
  }
  return 0;
}
