#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "query/engine.h"
#include "storage/database.h"
#include "storage/fault.h"
#include "storage/file_manager.h"
#include "tests/test_util.h"
#include "workload/paper_example.h"

namespace tix::storage {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

constexpr char kProbeQuery[] = R"(
    FOR $a IN document("articles.xml")//article//*
    SCORE $a USING foo({"search engine"}, {"internet", "information retrieval"})
    THRESHOLD STOP AFTER 3
    RETURN $a)";

/// Builds the paper-example database + index in `dir` and persists both.
void BuildSavedDatabase(const std::string& dir) {
  auto db = MakeTestDatabase(dir);
  ExpectOk(workload::LoadPaperExample(db.get()));
  const index::InvertedIndex index =
      Unwrap(index::InvertedIndex::Build(db.get()));
  ExpectOk(index.SaveToFile(dir + "/index.tix"));
  ExpectOk(db->Save());
}

/// Opens the saved database, loads the index, and runs the probe query.
/// Every step must either succeed or return a Status — never crash.
Status OpenAndQuery(const std::string& dir, size_t pool_pages = 64,
                    std::shared_ptr<FaultInjector> injector = nullptr) {
  DatabaseOptions options;
  options.buffer_pool_pages = pool_pages;
  options.fault_injector = std::move(injector);
  auto db_result = Database::Open(dir, options);
  if (!db_result.ok()) return db_result.status();
  std::unique_ptr<Database> db = std::move(db_result).value();
  auto index_result = index::SegmentedIndex::Open(dir);
  if (!index_result.ok()) return index_result.status();
  query::QueryEngine engine(db.get(), index_result.value()->Acquire());
  auto output = engine.ExecuteText(kProbeQuery);
  if (!output.ok()) return output.status();
  auto xml = engine.RenderXml(output.value());
  return xml.ok() ? Status::OK() : xml.status();
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, DeterministicAcrossRuns) {
  const FaultPolicy policy{/*seed=*/42, 0, 0, 0, /*short_read_at=*/0, 0,
                           /*bit_flip_read_at=*/1};
  std::vector<size_t> flipped_bytes;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(policy);
    std::string buffer(kPageSize, '\0');
    size_t len = buffer.size();
    ExpectOk(injector.OnRead("f", buffer.data(), &len));
    EXPECT_EQ(len, buffer.size());
    size_t flipped = buffer.size();
    for (size_t i = 0; i < buffer.size(); ++i) {
      if (buffer[i] != 0) {
        flipped = i;
        break;
      }
    }
    ASSERT_LT(flipped, buffer.size()) << "no bit was flipped";
    flipped_bytes.push_back(flipped);
    EXPECT_EQ(injector.injected(), 1u);
  }
  EXPECT_EQ(flipped_bytes[0], flipped_bytes[1]);
}

TEST(FaultInjectorTest, FailsExactlyTheNthOperation) {
  FaultPolicy policy;
  policy.fail_read_at = 2;
  policy.fail_write_at = 1;
  policy.fail_sync_at = 3;
  FaultInjector injector(policy);

  char byte = 0;
  size_t len = 1;
  ExpectOk(injector.OnRead("f", &byte, &len));             // read #1
  EXPECT_TRUE(injector.OnRead("f", &byte, &len).IsIOError());  // read #2
  ExpectOk(injector.OnRead("f", &byte, &len));             // read #3

  size_t wlen = 1;
  EXPECT_TRUE(injector.OnWrite("f", &wlen).IsIOError());  // write #1
  EXPECT_EQ(wlen, 0u);  // failed write persists nothing

  ExpectOk(injector.OnSync("f"));
  ExpectOk(injector.OnSync("f"));
  EXPECT_TRUE(injector.OnSync("f").IsIOError());

  EXPECT_EQ(injector.reads(), 3u);
  EXPECT_EQ(injector.writes(), 1u);
  EXPECT_EQ(injector.syncs(), 3u);
  EXPECT_EQ(injector.injected(), 3u);
}

// ------------------------------------------------- PagedFile under faults

TEST(PagedFileFaultTest, FailedReadSurfacesAsIOError) {
  TempDir dir;
  FaultPolicy policy;
  policy.fail_read_at = 1;
  PagedFileOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(policy);
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix", options));
  char page[kPageSize] = {};
  ExpectOk(file->WritePage(0, page));
  char read[kPageSize];
  const Status status = file->ReadPage(0, read);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  // The next read succeeds: the fault fires exactly once.
  ExpectOk(file->ReadPage(0, read));
}

TEST(PagedFileFaultTest, ShortReadIsCorruption) {
  TempDir dir;
  FaultPolicy policy;
  policy.short_read_at = 1;
  PagedFileOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(policy);
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix", options));
  char page[kPageSize] = {};
  ExpectOk(file->WritePage(0, page));
  char read[kPageSize];
  const Status status = file->ReadPage(0, read);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("f.tix"), std::string::npos)
      << "error must name the file: " << status.ToString();
}

TEST(PagedFileFaultTest, BitFlipPassesWhenVerificationIsOff) {
  TempDir dir;
  FaultPolicy policy;
  policy.seed = 7;
  policy.bit_flip_read_at = 1;
  PagedFileOptions options;
  options.verify_checksums = false;
  options.fault_injector = std::make_shared<FaultInjector>(policy);
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix", options));
  char page[kPageSize] = {};
  ExpectOk(file->WritePage(0, page));
  char read[kPageSize];
  // With verification off the flipped frame is served as-is: silent
  // corruption, which is exactly what checksums exist to prevent.
  ExpectOk(file->ReadPage(0, read));
  EXPECT_EQ(options.fault_injector->injected(), 1u);
}

TEST(PagedFileFaultTest, TornWriteThenReopenReportsCorruption) {
  TempDir dir;
  const std::string path = dir.path() + "/f.tix";
  FaultPolicy policy;
  policy.seed = 5;
  policy.torn_write_at = 1;

  // Learn how many bytes this policy lets through, so the assertions
  // below match the injector's deterministic choice.
  size_t torn_len = kPageFrameSize;
  ExpectOk([&] {
    FaultInjector probe(policy);
    return probe.OnWrite("probe", &torn_len).IsIOError()
               ? Status::OK()
               : Status::Internal("torn write did not fire");
  }());

  {
    PagedFileOptions options;
    options.fault_injector = std::make_shared<FaultInjector>(policy);
    auto file = Unwrap(PagedFile::Create(path, options));
    char page[kPageSize];
    std::memset(page, 'x', kPageSize);
    const Status status = file->WritePage(0, page);
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
  }

  // Reopen without the injector: the file holds only a prefix of the
  // frame (power loss mid-write).
  auto file = Unwrap(PagedFile::Open(path));
  EXPECT_EQ(file->page_count(), 0u);
  char read[kPageSize];
  const Status status = file->ReadPage(0, read);
  if (torn_len > 0) {
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  } else {
    // Nothing reached the disk: the page was never allocated and reads
    // as fresh zeros.
    ExpectOk(status);
    EXPECT_EQ(read[0], 0);
  }
}

TEST(PagedFileFaultTest, ReadAndWriteAfterCloseReturnStatus) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix"));
  char page[kPageSize] = {};
  ExpectOk(file->WritePage(0, page));
  file->Close();
  EXPECT_TRUE(file->ReadPage(0, page).IsIOError());
  EXPECT_TRUE(file->WritePage(0, page).IsIOError());
  ExpectOk(file->Sync());  // sync of a closed file is a no-op
}

// ------------------------------------------------------ checksums on disk

TEST(PageChecksumTest, OnDiskBitFlipIsCaught) {
  TempDir dir;
  const std::string path = dir.path() + "/f.tix";
  {
    auto file = Unwrap(PagedFile::Create(path));
    char page[kPageSize];
    std::memset(page, 'x', kPageSize);
    ExpectOk(file->WritePage(0, page));
    ExpectOk(file->Sync());
  }
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), kFileHeaderSize + kPageFrameSize);
  // Flip one payload byte behind the checksum's back.
  bytes[kFileHeaderSize + kPageHeaderSize + 100] ^= 0x40;
  WriteFileBytes(path, bytes);

  auto file = Unwrap(PagedFile::Open(path));
  char read[kPageSize];
  const Status status = file->ReadPage(0, read);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("page 0"), std::string::npos)
      << status.ToString();

  // Opting out of verification serves the flipped payload unchecked.
  PagedFileOptions no_verify;
  no_verify.verify_checksums = false;
  auto unchecked = Unwrap(PagedFile::Open(path, no_verify));
  ExpectOk(unchecked->ReadPage(0, read));
  EXPECT_EQ(read[100], 'x' ^ 0x40);
}

TEST(PageChecksumTest, MisplacedPageIsCaught) {
  TempDir dir;
  const std::string path = dir.path() + "/f.tix";
  {
    auto file = Unwrap(PagedFile::Create(path));
    char page[kPageSize];
    std::memset(page, 'a', kPageSize);
    ExpectOk(file->WritePage(0, page));
    std::memset(page, 'b', kPageSize);
    ExpectOk(file->WritePage(1, page));
  }
  // Simulate a misplaced write: copy frame 0 over frame 1. The payload
  // checksum still matches, but the page number in the header does not.
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), kFileHeaderSize + 2 * kPageFrameSize);
  bytes.replace(kFileHeaderSize + kPageFrameSize, kPageFrameSize,
                bytes.substr(kFileHeaderSize, kPageFrameSize));
  WriteFileBytes(path, bytes);

  auto file = Unwrap(PagedFile::Open(path));
  char read[kPageSize];
  ExpectOk(file->ReadPage(0, read));
  const Status status = file->ReadPage(1, read);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("misplaced write"), std::string::npos)
      << status.ToString();
}

TEST(PageChecksumTest, CorruptFileHeaderIsNotServedAsRaw) {
  TempDir dir;
  const std::string path = dir.path() + "/f.tix";
  {
    auto file = Unwrap(PagedFile::Create(path));
    char page[kPageSize] = {};
    ExpectOk(file->WritePage(0, page));
  }
  std::string bytes = ReadFileBytes(path);
  bytes[5] ^= 0x01;  // corrupt the version field; magic still matches
  WriteFileBytes(path, bytes);
  const auto result = PagedFile::Open(path);
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

// ------------------------------------------------------- legacy raw files

TEST(LegacyFormatTest, RawFileRoundTripsAndStaysRaw) {
  TempDir dir;
  const std::string path = dir.path() + "/legacy.tix";
  // A pre-v3 file: two raw pages, no header, no frames.
  std::string raw(2 * kPageSize, '\0');
  raw[0] = 'A';
  raw[kPageSize] = 'B';
  WriteFileBytes(path, raw);

  auto file = Unwrap(PagedFile::Open(path));
  EXPECT_FALSE(file->checksummed());
  EXPECT_EQ(file->page_count(), 2u);
  char read[kPageSize];
  ExpectOk(file->ReadPage(0, read));
  EXPECT_EQ(read[0], 'A');
  ExpectOk(file->ReadPage(1, read));
  EXPECT_EQ(read[0], 'B');

  // Writing through keeps the file raw so older builds can still read it.
  char page[kPageSize];
  std::memset(page, 'C', kPageSize);
  ExpectOk(file->WritePage(2, page));
  file->Close();
  const std::string after = ReadFileBytes(path);
  EXPECT_EQ(after.size(), 3 * kPageSize);
  EXPECT_EQ(after[0], 'A');
  EXPECT_EQ(after[2 * kPageSize], 'C');
}

TEST(LegacyFormatTest, V2DatabaseOpensAndQueriesIdentically) {
  TempDir dir;
  BuildSavedDatabase(dir.path());

  // Baseline: results from the v3 database.
  DatabaseOptions options;
  auto db = Unwrap(Database::Open(dir.path(), options));
  const auto index = Unwrap(index::SegmentedIndex::Open(dir.path()));
  query::QueryEngine engine(db.get(), index->Acquire());
  const query::QueryOutput baseline = Unwrap(engine.ExecuteText(kProbeQuery));
  db.reset();

  // Strip the node and text files down to the legacy raw layout: drop
  // the 16-byte file header and each frame's 16-byte page header.
  for (const char* name : {"/nodes.tix", "/text.tix"}) {
    const std::string path = dir.path() + name;
    const std::string v3 = ReadFileBytes(path);
    ASSERT_GE(v3.size(), kFileHeaderSize);
    ASSERT_EQ((v3.size() - kFileHeaderSize) % kPageFrameSize, 0u);
    std::string raw;
    for (size_t offset = kFileHeaderSize; offset < v3.size();
         offset += kPageFrameSize) {
      raw += v3.substr(offset + kPageHeaderSize, kPageSize);
    }
    WriteFileBytes(path, raw);
  }

  auto legacy_db = Unwrap(Database::Open(dir.path(), options));
  EXPECT_FALSE(legacy_db->node_store().file()->checksummed());
  query::QueryEngine legacy_engine(legacy_db.get(), index->Acquire());
  const query::QueryOutput legacy = Unwrap(legacy_engine.ExecuteText(kProbeQuery));

  ASSERT_EQ(legacy.results.size(), baseline.results.size());
  for (size_t i = 0; i < baseline.results.size(); ++i) {
    EXPECT_EQ(legacy.results[i].node, baseline.results[i].node);
    EXPECT_DOUBLE_EQ(legacy.results[i].score, baseline.results[i].score);
  }
}

// -------------------------------------------------------- atomic replace

TEST(AtomicWriteFileTest, ReplacesContentAndLeavesNoTemp) {
  TempDir dir;
  const std::string path = dir.path() + "/blob";
  WriteFileBytes(path, "old content");
  ExpectOk(AtomicWriteFile(path, "new content"));
  EXPECT_EQ(ReadFileBytes(path), "new content");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicWriteFileTest, CreatesMissingFile) {
  TempDir dir;
  const std::string path = dir.path() + "/fresh";
  ExpectOk(AtomicWriteFile(path, "data"));
  EXPECT_EQ(ReadFileBytes(path), "data");
}

// ----------------------------------------------- database-level failures

TEST(DatabaseFaultTest, TruncatedNodeFileFailsOpenWithCorruption) {
  TempDir dir;
  BuildSavedDatabase(dir.path());
  const std::string path = dir.path() + "/nodes.tix";
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), kFileHeaderSize + kPageFrameSize);
  // Drop the last whole frame: the catalog's node count no longer fits.
  WriteFileBytes(path,
                 bytes.substr(0, bytes.size() - kPageFrameSize));
  const auto result = Database::Open(dir.path());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("truncated"), std::string::npos);
}

TEST(DatabaseFaultTest, InjectedReadErrorPropagatesThroughEngine) {
  TempDir dir;
  BuildSavedDatabase(dir.path());

  // First pass: count the reads a clean open + query performs. A tiny
  // pool forces query-time page reads instead of pure cache hits.
  auto counting = std::make_shared<FaultInjector>(FaultPolicy{});
  ExpectOk(OpenAndQuery(dir.path(), /*pool_pages=*/2, counting));
  const uint64_t reads_total = counting->reads();

  DatabaseOptions probe_options;
  probe_options.buffer_pool_pages = 2;
  probe_options.fault_injector = std::make_shared<FaultInjector>(FaultPolicy{});
  {
    auto db = Unwrap(Database::Open(dir.path(), probe_options));
    EXPECT_GT(reads_total, probe_options.fault_injector->reads())
        << "query performed no reads; shrink the pool further";
  }
  const uint64_t reads_during_open = probe_options.fault_injector->reads();

  // Second pass: fail the first read that happens *after* Open, i.e.
  // during query execution. The error must come back as a Status from
  // the engine — not an abort.
  FaultPolicy policy;
  policy.fail_read_at = reads_during_open + 1;
  const Status status = OpenAndQuery(
      dir.path(), /*pool_pages=*/2, std::make_shared<FaultInjector>(policy));
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.message().find("injected"), std::string::npos)
      << status.ToString();
}

// ----------------------------------------------- index blob truncation

TEST(IndexBlobTest, EveryPrefixTruncationFailsCleanly) {
  TempDir dir;
  BuildSavedDatabase(dir.path());
  const std::string path = dir.path() + "/index.tix";
  const std::string blob = ReadFileBytes(path);
  ASSERT_GT(blob.size(), 16u);

  // Table-driven: every proper prefix must load as an error (typically
  // Corruption), and the full blob must load cleanly. No length may
  // crash or hang.
  for (size_t len = 0; len < blob.size(); ++len) {
    WriteFileBytes(path, blob.substr(0, len));
    const auto result = index::InvertedIndex::LoadFromFile(path);
    EXPECT_FALSE(result.ok()) << "prefix of length " << len
                              << " parsed as a complete index";
  }
  WriteFileBytes(path, blob);
  const auto full = index::InvertedIndex::LoadFromFile(path);
  ExpectOk(full.status());
}

TEST(IndexBlobTest, HeaderBitFlipsNeverCrash) {
  TempDir dir;
  BuildSavedDatabase(dir.path());
  const std::string path = dir.path() + "/index.tix";
  const std::string blob = ReadFileBytes(path);
  // The first bytes cover the magic, the skip-block interval, and the
  // tokenizer options; flip every bit of each in turn.
  const size_t header_bytes = std::min<size_t>(blob.size(), 24);
  for (size_t byte = 0; byte < header_bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = blob;
      mutated[byte] ^= static_cast<char>(1 << bit);
      WriteFileBytes(path, mutated);
      const auto result = index::InvertedIndex::LoadFromFile(path);
      // Either a clean load (the flip landed somewhere harmless, e.g. a
      // tokenizer flag) or an error Status. The point is: no crash.
      if (!result.ok()) {
        EXPECT_FALSE(result.status().ok());
      }
    }
  }
}

// ------------------------------------------------------- corruption fuzz

TEST(DatabaseFuzzTest, RandomCorruptionNeverCrashes) {
  TempDir dir;
  BuildSavedDatabase(dir.path());

  const std::vector<std::string> files = {
      dir.path() + "/nodes.tix", dir.path() + "/text.tix",
      dir.path() + "/catalog.tix", dir.path() + "/index.tix"};
  std::vector<std::string> pristine;
  pristine.reserve(files.size());
  for (const std::string& file : files) {
    pristine.push_back(ReadFileBytes(file));
  }

  // Sanity: the uncorrupted database opens and answers the probe query.
  ExpectOk(OpenAndQuery(dir.path()));

  // Deterministic xorshift64* so a failure reproduces byte-for-byte.
  uint64_t rng = 0x9E3779B97F4A7C15ULL;
  const auto next = [&rng]() {
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    return rng * 0x2545F4914F6CDD1DULL;
  };

  constexpr int kIterations = 600;
  int opened_ok = 0;
  int rejected = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const size_t target = next() % files.size();
    std::string mutated = pristine[target];
    const uint64_t kind = next() % 3;
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " on " +
                 files[target] + " kind " + std::to_string(kind));
    if (mutated.empty() || kind == 1) {
      // Truncate to a random (possibly zero) length.
      mutated.resize(mutated.empty() ? 0 : next() % mutated.size());
    } else if (kind == 0) {
      // Flip 1-8 random bits.
      const int flips = 1 + static_cast<int>(next() % 8);
      for (int f = 0; f < flips; ++f) {
        const uint64_t bit = next() % (mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      }
    } else {
      // Append random garbage.
      const size_t extra = 1 + next() % 64;
      for (size_t i = 0; i < extra; ++i) {
        mutated.push_back(static_cast<char>(next() & 0xFF));
      }
    }
    WriteFileBytes(files[target], mutated);

    // The only acceptable outcomes are success or an error Status.
    // Anything else — abort, UB, hang — fails the test (and the
    // sanitizer jobs run this same test under ASan/UBSan and TSan).
    const Status status = OpenAndQuery(dir.path());
    if (status.ok()) {
      ++opened_ok;
    } else {
      ++rejected;
      EXPECT_FALSE(status.message().empty());
    }

    WriteFileBytes(files[target], pristine[target]);
  }
  // The harness must have actually exercised both outcomes: plenty of
  // rejections (most mutations are fatal) and at least one clean pass
  // would be suspicious to *require*, but zero rejections means the
  // mutator is broken.
  EXPECT_GT(rejected, kIterations / 2);
  ExpectOk(OpenAndQuery(dir.path()));
}

}  // namespace
}  // namespace tix::storage
