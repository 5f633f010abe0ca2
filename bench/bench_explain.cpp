// Observability overhead: times the TermJoin access path and a full
// engine query with metrics collection off (EngineOptions default; no
// obs context installed, counting hooks hit the null thread-local check
// only) versus on (per-query MetricsContext + per-operator spans), and
// emits the measured overhead plus one example EXPLAIN plan to
// BENCH_explain.json.
//
//   ./build/bench/bench_explain [--articles=3000] [--runs=5]
//                               [--freq=1000] [--data-dir=/tmp/tix_bench]
//                               [--out=BENCH_explain.json]
//
// The acceptance bar is the *off* column: with metrics disabled the
// instrumented engine must stay within noise (< 2%) of the pre-layer
// engine, i.e. the hooks themselves must be free. The on/off delta is
// also reported — that is the price of EXPLAIN ANALYZE when a caller
// asks for it.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_corpus.h"
#include "bench/bench_util.h"
#include "bench/table_runner.h"
#include "common/obs.h"
#include "index/segmented_index.h"
#include "query/engine.h"

namespace {

struct Variant {
  std::string name;
  double seconds_off = 0;
  double seconds_on = 0;
  size_t outputs = 0;

  double OverheadPct() const {
    return seconds_off > 0
               ? (seconds_on - seconds_off) / seconds_off * 100.0
               : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tix::bench;
  const Flags flags(argc, argv);
  const uint64_t articles = flags.GetInt("articles", 3000);
  const int runs = static_cast<int>(flags.GetInt("runs", 5));
  const uint64_t freq = flags.GetInt("freq", 1000);
  const std::string dir = flags.GetString("data-dir", "/tmp/tix_bench");
  const std::string out = flags.GetString("out", "BENCH_explain.json");

  auto env_result = GetOrBuildBenchEnv(dir, articles, flags.GetInt("seed", 42));
  if (!env_result.ok()) {
    std::fprintf(stderr, "%s\n", env_result.status().ToString().c_str());
    return 1;
  }
  BenchEnv env = std::move(env_result).value();
  // The engine reads the cached index.tix adopted in place as segment 0.
  auto segmented = tix::index::SegmentedIndex::Open(dir);
  if (!segmented.ok()) {
    std::fprintf(stderr, "%s\n", segmented.status().ToString().c_str());
    return 1;
  }

  const tix::algebra::IrPredicate two_term =
      TwoTermPredicate(Table1Term(1, freq), Table1Term(2, freq));
  const tix::algebra::WeightedCountScorer simple(two_term.Weights());
  const tix::algebra::ComplexProximityScorer complex_scorer(two_term.Weights());

  std::vector<Variant> variants = {
      {"term_join_simple"},
      {"term_join_complex"},
      {"engine_query"},
  };

  // The engine query runs the whole pipeline (anchors, scored TermJoin,
  // threshold) over the first synthetic article's document.
  const std::string query_text =
      "FOR $a IN document(\"article0.xml\")//article//* "
      "SCORE $a USING foo({\"" + Table1Term(1, freq) + "\"}, {\"" +
      Table1Term(2, freq) + "\"}) "
      "THRESHOLD STOP AFTER 10 "
      "RETURN $a";

  auto run_term_join = [&](const tix::algebra::Scorer* scorer,
                           bool with_metrics, size_t* outputs) {
    return Measure(
        [&]() -> tix::Status {
          tix::obs::MetricsContext context;
          std::optional<tix::obs::ScopedMetrics> scope;
          if (with_metrics) scope.emplace(&context);
          tix::exec::TermJoin method(env.db.get(), env.index.get(), &two_term,
                                     scorer);
          auto result = method.Run();
          if (result.ok() && outputs != nullptr) {
            *outputs = result.value().size();
          }
          return result.status();
        },
        runs);
  };
  auto run_engine = [&](bool with_metrics, size_t* outputs) {
    return Measure(
        [&]() -> tix::Status {
          tix::query::EngineOptions options;
          options.collect_metrics = with_metrics;
          tix::query::QueryEngine engine(
              env.db.get(), segmented.value()->Acquire(), options);
          auto result = engine.ExecuteText(query_text);
          if (result.ok() && outputs != nullptr) {
            *outputs = result.value().results.size();
          }
          return result.status();
        },
        runs);
  };

  std::printf(
      "Observability overhead — metrics off vs on\n"
      "corpus: %llu articles, %llu nodes; term freq %llu; %d runs\n\n",
      static_cast<unsigned long long>(env.num_articles),
      static_cast<unsigned long long>(env.db->num_nodes()),
      static_cast<unsigned long long>(ScaledFreq(freq, env.scale)), runs);
  std::printf("%18s | %10s %10s | %9s\n", "variant", "off(s)", "on(s)",
              "overhead");
  PrintRule(56);

  for (Variant& variant : variants) {
    if (variant.name == "engine_query") {
      run_engine(false, nullptr);  // warm caches before timing
      variant.seconds_off = run_engine(false, &variant.outputs);
      variant.seconds_on = run_engine(true, nullptr);
    } else {
      const tix::algebra::Scorer* scorer =
          variant.name == "term_join_simple"
              ? static_cast<const tix::algebra::Scorer*>(&simple)
              : &complex_scorer;
      run_term_join(scorer, false, nullptr);  // warm caches before timing
      variant.seconds_off = run_term_join(scorer, false, &variant.outputs);
      variant.seconds_on = run_term_join(scorer, true, nullptr);
    }
    std::printf("%18s | %10.4f %10.4f | %8.2f%%\n", variant.name.c_str(),
                variant.seconds_off, variant.seconds_on,
                variant.OverheadPct());
  }

  // One metrics-on engine run for the example plan in the JSON.
  std::string example_plan = "{}";
  {
    tix::query::EngineOptions options;
    options.collect_metrics = true;
    tix::query::QueryEngine engine(env.db.get(), segmented.value()->Acquire(),
                                   options);
    auto result = engine.ExecuteText(query_text);
    if (result.ok() && result.value().plan.has_value()) {
      example_plan = tix::obs::RenderJson(*result.value().plan);
      if (!example_plan.empty() && example_plan.back() == '\n') {
        example_plan.pop_back();
      }
    }
  }

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(file,
               "{\n"
               "  \"bench\": \"explain_overhead\",\n"
               "  \"articles\": %llu,\n"
               "  \"nodes\": %llu,\n"
               "  \"term_frequency\": %llu,\n"
               "  \"runs\": %d,\n"
               "  \"variants\": [\n",
               static_cast<unsigned long long>(env.num_articles),
               static_cast<unsigned long long>(env.db->num_nodes()),
               static_cast<unsigned long long>(ScaledFreq(freq, env.scale)),
               runs);
  for (size_t i = 0; i < variants.size(); ++i) {
    const Variant& variant = variants[i];
    std::fprintf(
        file,
        "    {\"name\": \"%s\", \"outputs\": %zu,\n"
        "     \"seconds_metrics_off\": %.6f, \"seconds_metrics_on\": %.6f,\n"
        "     \"overhead_pct\": %.4f}%s\n",
        variant.name.c_str(), variant.outputs, variant.seconds_off,
        variant.seconds_on, variant.OverheadPct(),
        i + 1 < variants.size() ? "," : "");
  }
  std::fprintf(file,
               "  ],\n"
               "  \"example_plan\": %s\n"
               "}\n",
               example_plan.c_str());
  std::fclose(file);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
