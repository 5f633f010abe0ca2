#ifndef TIX_TESTS_TEST_UTIL_H_
#define TIX_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/result.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "storage/database.h"

/// \file
/// Shared test scaffolding: temporary directories and database fixtures.

namespace tix::testing {

/// RAII temporary directory under $TMPDIR (removed on destruction).
class TempDir {
 public:
  TempDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "tix_test_XXXXXX").string();
    char* made = ::mkdtemp(templ.data());
    EXPECT_NE(made, nullptr);
    path_ = templ;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Unwraps a Result in a test, failing loudly on error.
template <typename T>
T Unwrap(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

inline void ExpectOk(const Status& status) {
  EXPECT_TRUE(status.ok()) << status.ToString();
}

/// Saves `built` as `dir`/index.tix and opens `dir` as a segmented
/// index, which adopts the file in place as segment 0 — the way a built
/// monolithic index is served.
inline std::unique_ptr<index::SegmentedIndex> AdoptIndex(
    const std::string& dir, const index::InvertedIndex& built) {
  ExpectOk(built.SaveToFile(dir + "/index.tix"));
  return Unwrap(index::SegmentedIndex::Open(dir));
}

/// Creates a fresh database in `dir` with a small buffer pool so paging
/// paths get exercised even by unit tests.
inline std::unique_ptr<storage::Database> MakeTestDatabase(
    const std::string& dir, size_t pool_pages = 64) {
  storage::DatabaseOptions options;
  options.buffer_pool_pages = pool_pages;
  return Unwrap(storage::Database::Create(dir, options));
}

}  // namespace tix::testing

#endif  // TIX_TESTS_TEST_UTIL_H_
