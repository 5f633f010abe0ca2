// Result-granularity control: the same relevance query answered at
// different granularities with the Pick operator and different pick
// criteria, plus the score histogram of Sec. 5.3 that helps users choose
// a relevance threshold they could not otherwise know.
//
//   ./build/examples/granularity

#include <cstdio>
#include <cstdlib>

#include "algebra/pick.h"
#include "algebra/scoring.h"
#include "exec/pick_operator.h"
#include "exec/term_join.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "storage/database.h"
#include "workload/paper_example.h"

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

void RunWith(tix::query::QueryEngine& engine, tix::storage::Database& db,
             const char* label, const char* pick_clause) {
  const std::string query = std::string(R"(
    FOR $a IN document("articles.xml")//article//*
    SCORE $a USING foo({"search engine"},
                       {"internet", "information retrieval"})
  )") + pick_clause + R"(
    RETURN $a
  )";
  const auto output = Check(engine.ExecuteText(query));
  std::printf("%-28s %zu results:", label, output.results.size());
  for (const auto& item : output.results) {
    const auto record = Check(db.GetNode(item.node));
    std::printf(" %s[%.1f]", db.TagName(record.tag_id).c_str(), item.score);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  auto db = Check(tix::storage::Database::Create("/tmp/tix_granularity"));
  const tix::Status loaded = tix::workload::LoadPaperExample(db.get());
  if (!loaded.ok()) Die(loaded);
  auto index = Check(tix::index::InvertedIndex::Build(db.get()));
  // Serve the index the one way the engine reads one: saved as
  // index.tix and adopted in place by SegmentedIndex::Open as segment 0.
  const tix::Status saved = index.SaveToFile("/tmp/tix_granularity/index.tix");
  if (!saved.ok()) Die(saved);
  auto segmented =
      Check(tix::index::SegmentedIndex::Open("/tmp/tix_granularity"));
  tix::query::QueryEngine engine(db.get(), segmented->Acquire());

  std::printf("Same query, different granularity policies:\n\n");
  RunWith(engine, *db, "no pick (all components)", "");
  RunWith(engine, *db, "pickfoo(0.8, 0.5)", "PICK $a USING pickfoo(0.8, 0.5)");
  RunWith(engine, *db, "pickfoo(0.5, 0.3)", "PICK $a USING pickfoo(0.5, 0.3)");
  RunWith(engine, *db, "parity(0.8, 0.5)", "PICK $a USING parity(0.8, 0.5)");
  // Histogram-driven: "relevant = top 25% of scores" (Sec. 5.3).
  RunWith(engine, *db, "topfraction(0.25, 0.3)",
          "PICK $a USING topfraction(0.25, 0.3)");

  // The auxiliary histogram of Sec. 5.3: score distribution over all
  // scored components, so a user can pick "the top 20%" instead of
  // guessing an absolute threshold.
  tix::algebra::IrPredicate predicate = tix::algebra::IrPredicate::FooStyle(
      {"search engine"}, {"internet", "information retrieval"});
  tix::algebra::WeightedCountScorer scorer(predicate.Weights());
  tix::exec::TermJoin join(db.get(), &index, &predicate, &scorer);
  const auto scored = Check(join.Run());
  std::vector<double> scores;
  for (const auto& element : scored) scores.push_back(element.score);
  tix::algebra::ScoreHistogram histogram(scores, 16);
  std::printf(
      "\nscore histogram over %llu scored components: min %.2f max %.2f\n",
      static_cast<unsigned long long>(histogram.total()),
      histogram.min_score(), histogram.max_score());
  for (double fraction : {0.1, 0.25, 0.5}) {
    std::printf("  top %2.0f%% of components have score >= %.2f\n",
                fraction * 100, histogram.ThresholdForTopFraction(fraction));
  }
  return 0;
}
