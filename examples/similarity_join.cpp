// IR-style join (Query 3 of the paper): find relevant components in
// articles, then join the containing articles with reviews whose titles
// are similar (ScoreSim), combining scores with ScoreBar.
//
//   ./build/examples/similarity_join [num_articles]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "algebra/scoring.h"
#include "exec/structural_join.h"
#include "exec/term_join.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "query/similarity_join.h"
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
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100;

  auto db =
      Check(tix::storage::Database::Create("/tmp/tix_similarity_join"));
  tix::workload::CorpusOptions options;
  options.num_articles = num_articles;
  options.generate_reviews = true;
  options.num_reviews = 50;
  options.planted_terms = {{"xquery", 60}, {"xalgebra", 40}};
  Check(tix::workload::GenerateCorpus(db.get(), options));
  auto index = Check(tix::index::InvertedIndex::Build(db.get()));

  // Step 1 (the inner FLWR of Query 3): score components about the
  // query phrases with TermJoin, keep the best component per article.
  tix::algebra::IrPredicate predicate =
      tix::algebra::IrPredicate::FooStyle({"xquery"}, {"xalgebra"});
  tix::algebra::WeightedCountScorer scorer(predicate.Weights());
  tix::exec::TermJoin join(db.get(), &index, &predicate, &scorer);
  auto scored = Check(join.Run());
  std::sort(scored.begin(), scored.end(), tix::exec::DocumentOrderLess);

  const auto articles = Check(tix::exec::TagScan(db.get(), "article"));
  // Best IR score per article (the $d/@score of Query 3).
  std::vector<double> article_score(articles.size(), 0.0);
  std::vector<tix::storage::NodeId> article_nodes;
  for (const auto& article : articles) article_nodes.push_back(article.node);
  for (const auto& element : scored) {
    for (size_t i = 0; i < articles.size(); ++i) {
      if (articles[i].doc == element.doc &&
          articles[i].start <= element.start &&
          element.end <= articles[i].end) {
        article_score[i] = std::max(article_score[i], element.score);
      }
    }
  }

  // Step 2: similarity join between article titles and review titles
  // with Query 3's "Threshold simScore > 1".
  const auto titles = Check(tix::query::FirstDescendantWithTag(
      db.get(), article_nodes, "atl"));
  const auto reviews = Check(tix::exec::TagScan(db.get(), "review"));
  std::vector<tix::storage::NodeId> review_nodes;
  for (const auto& review : reviews) review_nodes.push_back(review.node);
  const auto review_titles = Check(tix::query::FirstDescendantWithTag(
      db.get(), review_nodes, "title"));

  tix::query::SimilarityJoinOptions join_options;
  join_options.min_similarity = 1.0;
  const auto pairs = Check(tix::query::SimilarityJoin(
      db.get(), titles, review_titles, join_options));
  std::printf("similarity join produced %zu (article, review) pairs\n",
              pairs.size());

  // Step 3: combine with ScoreBar — join score + IR score when the
  // article is relevant, else 0 — and report the top pairs.
  struct Combined {
    tix::storage::NodeId article;
    tix::storage::NodeId review;
    double score;
  };
  std::vector<Combined> combined;
  for (const auto& pair : pairs) {
    // Map the title back to its article index.
    for (size_t i = 0; i < titles.size(); ++i) {
      if (titles[i] == pair.left) {
        const double score =
            tix::algebra::ScoreBar(pair.similarity, article_score[i]);
        if (score > 0.0) {
          combined.push_back(
              Combined{article_nodes[i], pair.right, score});
        }
      }
    }
  }
  std::sort(combined.begin(), combined.end(),
            [](const Combined& a, const Combined& b) {
              return a.score > b.score;
            });

  std::printf("%zu pairs survive ScoreBar; top 5:\n", combined.size());
  for (size_t i = 0; i < std::min<size_t>(5, combined.size()); ++i) {
    const auto article = Check(db->GetNode(combined[i].article));
    std::printf("  score %.2f  article doc %u  review node %u\n",
                combined[i].score, article.doc_id, combined[i].review);
  }

  // The same join, written in the query language (SIMJOIN clause) —
  // scoped to one article document per FLWR iteration.
  // Serve the index the one way the engine reads one: saved as
  // index.tix and adopted in place by SegmentedIndex::Open as segment 0.
  const tix::Status saved =
      index.SaveToFile("/tmp/tix_similarity_join/index.tix");
  if (!saved.ok()) Die(saved);
  auto segmented =
      Check(tix::index::SegmentedIndex::Open("/tmp/tix_similarity_join"));
  tix::query::QueryEngine engine(db.get(), segmented->Acquire());
  const auto language = Check(engine.ExecuteText(R"(
      FOR $a IN document("article0.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/atl WITH $b/title SIMSCORE > 1
      SCORE $a USING foo({"xquery"}, {"xalgebra"})
      RETURN $a)"));
  std::printf(
      "\nSIMJOIN query over article0.xml found %zu review pair(s)\n",
      language.pairs.size());
  return 0;
}
