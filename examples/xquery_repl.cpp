// Interactive shell for the TIX query language. Loads XML files given on
// the command line (or the paper's Figure 1 example when none are
// given), builds the index, then reads queries from stdin — one query
// per blank-line-terminated block.
//
//   ./build/examples/xquery_repl [file.xml ...]
//
// Example session:
//   tix> FOR $a IN document("articles.xml")//article//*
//        SCORE $a USING foo({"search engine"})
//        THRESHOLD STOP AFTER 3
//        RETURN $a
//        <empty line>

#include <cstdio>
#include <iostream>
#include <string>

#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "storage/database.h"
#include "workload/paper_example.h"
#include "xml/parser.h"

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
  auto db = Check(tix::storage::Database::Create("/tmp/tix_repl"));
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      auto document = Check(tix::xml::ParseXmlFile(argv[i]));
      // Use the basename as the document name for document("...").
      std::string name = argv[i];
      const size_t slash = name.find_last_of('/');
      if (slash != std::string::npos) name = name.substr(slash + 1);
      document.set_name(name);
      Check(db->AddDocument(document));
      std::printf("loaded %s\n", name.c_str());
    }
  } else {
    const tix::Status loaded = tix::workload::LoadPaperExample(db.get());
    if (!loaded.ok()) Die(loaded);
    std::printf("loaded built-in example: articles.xml, reviews.xml\n");
  }

  auto index = Check(tix::index::InvertedIndex::Build(db.get()));
  std::printf("indexed %llu terms / %llu postings\n\n",
              static_cast<unsigned long long>(index.stats().num_terms),
              static_cast<unsigned long long>(index.stats().num_postings));
  std::printf(
      "enter a query terminated by an empty line (ctrl-d to exit), e.g.\n"
      "  FOR $a IN document(\"articles.xml\")//article//*\n"
      "  SCORE $a USING foo({\"search engine\"})\n"
      "  THRESHOLD STOP AFTER 3\n"
      "  RETURN $a\n\n");

  // Serve the index the one way the engine reads one: saved as
  // index.tix and adopted in place by SegmentedIndex::Open as segment 0.
  const tix::Status saved = index.SaveToFile("/tmp/tix_repl/index.tix");
  if (!saved.ok()) Die(saved);
  auto segmented = Check(tix::index::SegmentedIndex::Open("/tmp/tix_repl"));
  tix::query::QueryEngine engine(db.get(), segmented->Acquire());
  std::string buffer;
  std::string line;
  std::printf("tix> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (!line.empty()) {
      buffer += line;
      buffer += '\n';
      std::printf("...> ");
      std::fflush(stdout);
      continue;
    }
    if (buffer.empty()) {
      std::printf("tix> ");
      std::fflush(stdout);
      continue;
    }
    const auto output = engine.ExecuteText(buffer);
    buffer.clear();
    if (!output.ok()) {
      std::printf("error: %s\n", output.status().ToString().c_str());
    } else {
      std::printf("%zu results (anchors %llu, scored %llu)\n",
                  output.value().results.size(),
                  static_cast<unsigned long long>(output.value().stats.anchors),
                  static_cast<unsigned long long>(
                      output.value().stats.scored_elements));
      const auto xml = engine.RenderXml(output.value(), 5);
      if (xml.ok()) std::printf("%s", xml.value().c_str());
    }
    std::printf("tix> ");
    std::fflush(stdout);
  }
  std::printf("\nbye\n");
  return 0;
}
