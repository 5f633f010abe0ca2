// Quickstart: load the paper's running example (Figure 1), build the
// inverted index, and run Query 1 — "find document components about
// 'search engine'; relevance to 'internet' and 'information retrieval'
// is desirable" — through the extended-XQuery front end.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <cstdlib>

#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "storage/database.h"
#include "workload/paper_example.h"

namespace {

constexpr char kQuery1[] = R"(
  FOR $a IN document("articles.xml")//article//*
  SCORE $a USING foo({"search engine"}, {"internet", "information retrieval"})
  THRESHOLD score > 0.5 STOP AFTER 5
  RETURN $a
)";

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

int main() {
  // 1. Create a database directory and load the example documents.
  auto db = Check(tix::storage::Database::Create("/tmp/tix_quickstart"));
  const tix::Status loaded = tix::workload::LoadPaperExample(db.get());
  if (!loaded.ok()) Die(loaded);
  std::printf("loaded %zu documents, %llu nodes\n", db->documents().size(),
              static_cast<unsigned long long>(db->num_nodes()));

  // 2. Build the inverted index (term -> (doc, text node, word offset)).
  auto index = Check(tix::index::InvertedIndex::Build(db.get()));
  std::printf("index: %llu terms, %llu postings\n",
              static_cast<unsigned long long>(index.stats().num_terms),
              static_cast<unsigned long long>(index.stats().num_postings));

  // Serve the index the one way the engine reads one: saved as
  // index.tix and adopted in place by SegmentedIndex::Open as segment 0.
  const tix::Status saved = index.SaveToFile("/tmp/tix_quickstart/index.tix");
  if (!saved.ok()) Die(saved);
  auto segmented =
      Check(tix::index::SegmentedIndex::Open("/tmp/tix_quickstart"));

  // 3. Run Query 1. The engine evaluates the IR part with the TermJoin
  //    access method and applies Threshold for the final cut.
  tix::query::QueryEngine engine(db.get(), segmented->Acquire());
  const auto output = Check(engine.ExecuteText(kQuery1));

  std::printf("\nQuery 1 returned %zu results:\n\n", output.results.size());
  std::printf("%s", Check(engine.RenderXml(output, 5)).c_str());
  return 0;
}
