#include <memory>

#include <gtest/gtest.h>

#include "query/engine.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/similarity_join.h"
#include "tests/test_util.h"
#include "workload/paper_example.h"

namespace tix::query {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// ------------------------------------------------------------------ Lexer

TEST(LexerTest, TokenizesRepresentativeQuery) {
  const auto tokens = Unwrap(Lex(
      R"(FOR $a IN document("articles.xml")//article[@id = "1"]//* RETURN $a)"));
  ASSERT_GT(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  const auto tokens = Unwrap(Lex("for return DOCUMENT"));
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].text, "RETURN");
  EXPECT_EQ(tokens[2].text, "DOCUMENT");
}

TEST(LexerTest, NumbersAndStrings) {
  const auto tokens = Unwrap(Lex("4.5 'single' \"double\" 42"));
  EXPECT_DOUBLE_EQ(tokens[0].number, 4.5);
  EXPECT_EQ(tokens[1].text, "single");
  EXPECT_EQ(tokens[2].text, "double");
  EXPECT_DOUBLE_EQ(tokens[3].number, 42.0);
}

TEST(LexerTest, CommentsIgnored) {
  const auto tokens = Unwrap(Lex("FOR # a comment\n$a"));
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("$").ok());
  EXPECT_FALSE(Lex("%").ok());
}

// ----------------------------------------------------------------- Parser

constexpr char kQuery2Text[] = R"(
  FOR $a IN document("articles.xml")//article[author/sname = "Doe"]//*
  SCORE $a USING foo({"search engine"}, {"internet", "information retrieval"})
  PICK $a USING pickfoo(0.8, 0.5)
  THRESHOLD score > 0.5 STOP AFTER 5
  RETURN $a
)";

TEST(ParserTest, ParsesQuery2) {
  const Query query = Unwrap(ParseQuery(kQuery2Text));
  EXPECT_EQ(query.variable, "a");
  EXPECT_EQ(query.path.document, "articles.xml");
  ASSERT_EQ(query.path.steps.size(), 2u);
  EXPECT_TRUE(query.path.steps[0].descendant);
  EXPECT_EQ(query.path.steps[0].name, "article");
  ASSERT_EQ(query.path.steps[0].predicates.size(), 1u);
  EXPECT_EQ(query.path.steps[0].predicates[0].path,
            (std::vector<std::string>{"author", "sname"}));
  EXPECT_EQ(*query.path.steps[0].predicates[0].value, "Doe");
  EXPECT_EQ(query.path.steps[1].name, "*");

  ASSERT_TRUE(query.score.has_value());
  EXPECT_EQ(query.score->scorer, "foo");
  EXPECT_EQ(query.score->primary,
            (std::vector<std::string>{"search engine"}));
  ASSERT_TRUE(query.pick.has_value());
  EXPECT_DOUBLE_EQ(query.pick->threshold, 0.8);
  ASSERT_TRUE(query.threshold.has_value());
  EXPECT_DOUBLE_EQ(*query.threshold->min_score, 0.5);
  EXPECT_EQ(*query.threshold->top_k, 5u);
}

TEST(ParserTest, AttributePredicate) {
  const Query query = Unwrap(ParseQuery(
      R"(FOR $r IN document("reviews.xml")//review[@id = "1"] RETURN $r)"));
  ASSERT_EQ(query.path.steps.size(), 1u);
  const StepPredicate& predicate = query.path.steps[0].predicates[0];
  EXPECT_TRUE(predicate.path.empty());
  EXPECT_EQ(predicate.attribute, "id");
  EXPECT_EQ(*predicate.value, "1");
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("RETURN $a").ok());
  EXPECT_FALSE(ParseQuery("FOR $a IN document(\"d\") RETURN $a").ok());
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x RETURN $b").ok());
  EXPECT_FALSE(
      ParseQuery(
          "FOR $a IN document(\"d\")//x PICK $a USING pickfoo RETURN $a")
          .ok());  // PICK without SCORE
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x SCORE $a USING bogus({\"t\"}) "
                 "RETURN $a")
          .ok());
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x THRESHOLD RETURN $a").ok());
}

// ----------------------------------------------------------------- Engine

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    segmented_ = testing::AdoptIndex(
        dir_.path(), Unwrap(index::InvertedIndex::Build(db_.get())));
    engine_ = std::make_unique<QueryEngine>(db_.get(), segmented_->Acquire());
  }

  std::string TagOf(storage::NodeId node) {
    const storage::NodeRecord record = Unwrap(db_->GetNode(node));
    return db_->TagName(record.tag_id);
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::SegmentedIndex> segmented_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(EngineTest, BooleanQueryReturnsMatches) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(
      R"(FOR $s IN document("articles.xml")//chapter/section RETURN $s)"));
  EXPECT_EQ(output.results.size(), 3u);
  for (const QueryResultItem& item : output.results) {
    EXPECT_EQ(TagOf(item.node), "section");
  }
}

TEST_F(EngineTest, BooleanQueryWithValuePredicate) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(
      R"(FOR $r IN document("reviews.xml")//review[rating = "5"] RETURN $r)"));
  ASSERT_EQ(output.results.size(), 1u);
  EXPECT_EQ(TagOf(output.results[0].node), "review");
}

TEST_F(EngineTest, Query1StyleScoring) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      THRESHOLD STOP AFTER 3
      RETURN $a)"));
  ASSERT_EQ(output.results.size(), 3u);
  // Scores descend.
  EXPECT_GE(output.results[0].score, output.results[1].score);
  EXPECT_GE(output.results[1].score, output.results[2].score);
  // The top element is the article (contains everything); the runner-up
  // is the search chapter (the paper's target result).
  EXPECT_EQ(TagOf(output.results[0].node), "article");
  EXPECT_EQ(TagOf(output.results[1].node), "chapter");
}

TEST_F(EngineTest, Query2StructurePlusScoring) {
  const QueryOutput query2 = Unwrap(engine_->ExecuteText(kQuery2Text));
  ASSERT_FALSE(query2.results.empty());
  EXPECT_LE(query2.results.size(), 5u);
  for (const QueryResultItem& item : query2.results) {
    EXPECT_GT(item.score, 0.5);
  }
  // With an author that does not exist, the same query is empty.
  const QueryOutput none = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Roe"]//*
      SCORE $a USING foo({"search engine"})
      RETURN $a)"));
  EXPECT_TRUE(none.results.empty());
  EXPECT_EQ(none.stats.anchors, 0u);
}

TEST_F(EngineTest, PickReducesGranularityRedundancy) {
  const QueryOutput unpicked = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      RETURN $a)"));
  const QueryOutput picked = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      PICK $a USING pickfoo(0.8, 0.5)
      RETURN $a)"));
  EXPECT_LT(picked.results.size(), unpicked.results.size());
  ASSERT_FALSE(picked.results.empty());
}

TEST_F(EngineTest, ComplexScorerRuns) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING complexfoo({"search engine"}, {"internet"})
      THRESHOLD STOP AFTER 5
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  for (const QueryResultItem& item : output.results) {
    EXPECT_GT(item.score, 0.0);
  }
}

TEST_F(EngineTest, TfIdfScorerRuns) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING tfidf({"newsinessence"})
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
}

TEST_F(EngineTest, Bm25ScorerRanksShortFocusedElements) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING bm25({"search engine"}, {"internet"})
      THRESHOLD STOP AFTER 3
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  // Length normalization must not rank the whole article first: a
  // focused descendant wins.
  EXPECT_NE(TagOf(output.results[0].node), "article");
}

TEST_F(EngineTest, TopFractionPickUsesHistogram) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      PICK $a USING topfraction(0.3, 0.2)
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  // The histogram-driven criterion picks a granularity without an
  // absolute threshold; results are a strict subset of the unpicked set.
  EXPECT_LT(output.results.size(), 12u);
}

TEST_F(EngineTest, NamedTargetStep) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $p IN document("articles.xml")//article//p
      SCORE $p USING foo({"search engine"})
      RETURN $p)"));
  ASSERT_FALSE(output.results.empty());
  for (const QueryResultItem& item : output.results) {
    EXPECT_EQ(TagOf(item.node), "p");
  }
}

TEST_F(EngineTest, UnknownDocumentIsNotFound) {
  EXPECT_TRUE(engine_->ExecuteText(
                     R"(FOR $a IN document("nope.xml")//a RETURN $a)")
                  .status()
                  .IsNotFound());
}

TEST_F(EngineTest, RenderXmlEmitsResults) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//p
      SCORE $a USING foo({"search engine"})
      THRESHOLD STOP AFTER 1
      RETURN $a)"));
  const std::string xml = Unwrap(engine_->RenderXml(output));
  EXPECT_NE(xml.find("<result>"), std::string::npos);
  EXPECT_NE(xml.find("<score>"), std::string::npos);
  EXPECT_NE(xml.find("<p>"), std::string::npos);
}

TEST_F(EngineTest, EnhancedEngineAgreesWithPlain) {
  EngineOptions options;
  options.enhanced_term_join = true;
  QueryEngine enhanced(db_.get(), segmented_->Acquire(), options);
  const QueryOutput a = Unwrap(engine_->ExecuteText(kQuery2Text));
  const QueryOutput b = Unwrap(enhanced.ExecuteText(kQuery2Text));
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].node, b.results[i].node);
    EXPECT_NEAR(a.results[i].score, b.results[i].score, 1e-9);
  }
}

// ---------------------------------------------------------- join queries

TEST_F(EngineTest, Query3InTheLanguage) {
  // The paper's Query 3, end to end in the query language: articles by
  // Doe joined with reviews on title similarity, IR-scored, combined
  // with ScoreBar.
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Doe"]
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 1
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      RETURN $a)"));
  // Only review 1 ("Internet Technologies", sim 2) passes SIMSCORE > 1.
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(output.pairs[0].similarity, 2.0);
  // Combined = ScoreBar(2, best component score) > 2.
  EXPECT_GT(output.pairs[0].combined, 2.0);
  EXPECT_EQ(output.results.size(), 1u);
  EXPECT_EQ(output.results[0].node, output.pairs[0].left);
  EXPECT_EQ(TagOf(output.pairs[0].left), "article");
  EXPECT_EQ(TagOf(output.pairs[0].right), "review");
}

TEST_F(EngineTest, JoinWithoutScoreUsesSimilarity) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 0.5
      RETURN $a)"));
  // Both reviews match "Internet Technologies" (sim 2 and 1).
  ASSERT_EQ(output.pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(output.pairs[0].combined, 2.0);
  EXPECT_DOUBLE_EQ(output.pairs[1].combined, 1.0);
}

TEST_F(EngineTest, JoinThresholdAndTopK) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      THRESHOLD score > 0.5 STOP AFTER 1
      RETURN $a)"));
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(output.pairs[0].combined, 2.0);
}

TEST_F(EngineTest, JoinEdgeCases) {
  // Missing key tag: no pairs, no error.
  const QueryOutput no_tag = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/nonexistent WITH $b/title
      RETURN $a)"));
  EXPECT_TRUE(no_tag.pairs.empty());
  // No matching left anchors: empty output.
  const QueryOutput no_anchor = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Roe"]
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      RETURN $a)"));
  EXPECT_TRUE(no_anchor.pairs.empty());
  // Default SIMSCORE threshold is 0: any positive similarity joins.
  const QueryOutput default_threshold = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      RETURN $a)"));
  EXPECT_EQ(default_threshold.pairs.size(), 2u);
}

TEST_F(EngineTest, JoinWithComplexScorer) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 1
      SCORE $a USING complexfoo({"search engine"}, {"internet"})
      RETURN $a)"));
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_GT(output.pairs[0].combined, output.pairs[0].similarity);
}

TEST_F(EngineTest, JoinGrammarErrors) {
  // SIMJOIN without a second FOR.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      SIMJOIN $a/atl WITH $b/title
      RETURN $a)")
                   .ok());
  // Second FOR without SIMJOIN.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      RETURN $a)")
                   .ok());
  // PICK in a join query.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      SCORE $a USING foo({"x"})
      PICK $a USING pickfoo
      RETURN $a)")
                   .ok());
  // Variables in the wrong order.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $b/title WITH $a/article-title
      RETURN $a)")
                   .ok());
}

// -------------------------------------------------------- SimilarityJoin

TEST_F(EngineTest, SimilarityJoinQuery3Shape) {
  // Query 3: join article titles with review titles.
  const auto* articles = db_->ElementsWithTag(db_->LookupTag("article"));
  const auto* reviews = db_->ElementsWithTag(db_->LookupTag("review"));
  ASSERT_NE(articles, nullptr);
  ASSERT_NE(reviews, nullptr);
  const auto titles = Unwrap(
      FirstDescendantWithTag(db_.get(), *articles, "article-title"));
  const auto review_titles =
      Unwrap(FirstDescendantWithTag(db_.get(), *reviews, "title"));
  ASSERT_EQ(titles.size(), 1u);
  ASSERT_EQ(review_titles.size(), 2u);

  SimilarityJoinOptions options;
  options.min_similarity = 1.0;  // Query 3's "Threshold simScore > 1"
  const auto pairs = Unwrap(SimilarityJoin(db_.get(), titles,
                                           review_titles, options));
  // "Internet Technologies" vs "Internet Technologies" (sim 2) survives;
  // vs "WWW Technologies" (sim 1) does not (> 1 strict).
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 2.0);
  EXPECT_EQ(pairs[0].right, review_titles[0]);
}

TEST_F(EngineTest, FirstDescendantWithTagMissing) {
  const auto* articles = db_->ElementsWithTag(db_->LookupTag("article"));
  const auto missing =
      Unwrap(FirstDescendantWithTag(db_.get(), *articles, "nonexistent"));
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], storage::kInvalidNodeId);
}

}  // namespace
}  // namespace tix::query
