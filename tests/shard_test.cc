// Scatter-gather sharding tests (docs/SHARDING.md): serial == sharded
// byte-equivalence at 1/2/4 shards across k in {1, 3, 10, unlimited},
// heap-floor gossip on/off equivalence, shard-death partial-failure
// semantics (error, never a hang), per-query deadline propagation to
// slow shards, client I/O timeouts against silent peers, and protocol
// robustness on the coordinator paths (malformed kPartialResult /
// kFloor payloads, truncated and oversized frames, plus a seeded
// corruption fuzz of the shard-partial codec). Runs under TSan/ASan
// via scripts/check_sanitizers.sh — the coordinator fan-out threads and
// the mid-query gossip exchange are the new concurrency surface.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/shard_protocol.h"
#include "storage/database.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace tix::server {
namespace {

using ::tix::testing::ExpectOk;
using ::tix::testing::MakeTestDatabase;
using ::tix::testing::TempDir;
using ::tix::testing::Unwrap;

// ---------------------------------------------------------------------------
// Shard-protocol codecs

TEST(ShardProtocolTest, QueryRequestRoundTrip) {
  ShardQueryRequest request;
  request.deadline_ms = 1234;
  request.render_limit = 7;
  request.floor_gossip = false;
  request.query = "FOR $a IN document(\"*\")//article//* RETURN $a";
  const ShardQueryRequest decoded =
      Unwrap(DecodeShardQuery(EncodeShardQuery(request)));
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.render_limit, request.render_limit);
  EXPECT_EQ(decoded.floor_gossip, request.floor_gossip);
  EXPECT_EQ(decoded.query, request.query);
}

TEST(ShardProtocolTest, FloorRoundTripAndRejects) {
  EXPECT_EQ(Unwrap(DecodeFloor(EncodeFloor(3.25))), 3.25);
  const double neg_inf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(Unwrap(DecodeFloor(EncodeFloor(neg_inf))), neg_inf);
  EXPECT_FALSE(DecodeFloor("").ok());
  EXPECT_FALSE(DecodeFloor("1234567").ok());
  EXPECT_FALSE(DecodeFloor("123456789").ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DecodeFloor(EncodeFloor(nan)).ok());
}

ShardPartialResult SamplePartial() {
  ShardPartialResult partial;
  partial.anchors = 11;
  partial.scored = 5;
  partial.total_count = 3;
  for (uint64_t i = 0; i < 3; ++i) {
    ShardResultEntry entry;
    entry.node = 100 + i;
    entry.doc = static_cast<uint32_t>(2 * i);
    entry.start = static_cast<uint32_t>(10 * i);
    entry.end = static_cast<uint32_t>(10 * i + 5);
    entry.level = static_cast<uint16_t>(i);
    entry.score = 1.5 - 0.25 * static_cast<double>(i);
    partial.entries.push_back(entry);
  }
  partial.fragments = {"<result>a</result>\n", "<result>b</result>\n"};
  return partial;
}

TEST(ShardProtocolTest, PartialResultRoundTrip) {
  const ShardPartialResult original = SamplePartial();
  const ShardPartialResult decoded =
      Unwrap(DecodeShardPartial(EncodeShardPartial(original)));
  EXPECT_EQ(decoded.anchors, original.anchors);
  EXPECT_EQ(decoded.scored, original.scored);
  EXPECT_EQ(decoded.total_count, original.total_count);
  ASSERT_EQ(decoded.entries.size(), original.entries.size());
  for (size_t i = 0; i < decoded.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].node, original.entries[i].node);
    EXPECT_EQ(decoded.entries[i].doc, original.entries[i].doc);
    EXPECT_EQ(decoded.entries[i].start, original.entries[i].start);
    EXPECT_EQ(decoded.entries[i].end, original.entries[i].end);
    EXPECT_EQ(decoded.entries[i].level, original.entries[i].level);
    EXPECT_EQ(decoded.entries[i].score, original.entries[i].score);
  }
  EXPECT_EQ(decoded.fragments, original.fragments);
}

TEST(ShardProtocolTest, TruncatedPartialRejectedAtEveryLength) {
  const std::string encoded = EncodeShardPartial(SamplePartial());
  for (size_t length = 0; length < encoded.size(); ++length) {
    EXPECT_FALSE(DecodeShardPartial(encoded.substr(0, length)).ok())
        << "prefix of length " << length << " decoded";
  }
}

TEST(ShardProtocolTest, TrailingGarbageRejected) {
  std::string encoded = EncodeShardPartial(SamplePartial());
  encoded += 'x';
  EXPECT_FALSE(DecodeShardPartial(encoded).ok());
}

TEST(ShardProtocolTest, CorruptionFuzzNeverCrashes) {
  // Seeded xorshift corruption loop (fault_test.cc style): flip a few
  // bytes anywhere in a valid encoding; the decoder must either reject
  // or produce a structurally sane value — never crash or overread
  // (ASan is the real assertion here).
  const std::string clean = EncodeShardPartial(SamplePartial());
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 500; ++round) {
    std::string corrupted = clean;
    const int flips = 1 + static_cast<int>(next() % 4);
    for (int f = 0; f < flips; ++f) {
      corrupted[next() % corrupted.size()] ^=
          static_cast<char>(1 + next() % 255);
    }
    const Result<ShardPartialResult> decoded = DecodeShardPartial(corrupted);
    if (decoded.ok()) {
      EXPECT_LE(decoded.value().fragments.size(),
                decoded.value().entries.size());
    }
  }
}

TEST(ShardProtocolTest, QueryRequestRejectsTruncationAndUnknownFlags) {
  const std::string encoded = EncodeShardQuery(ShardQueryRequest{});
  for (size_t length = 0; length < 9; ++length) {
    EXPECT_FALSE(DecodeShardQuery(encoded.substr(0, length)).ok());
  }
  std::string bad_flags = encoded;
  bad_flags[8] = static_cast<char>(0x80);
  EXPECT_FALSE(DecodeShardQuery(bad_flags).ok());
}

TEST(ShardListTest, ParsesAndValidates) {
  const std::vector<ShardEndpoint> shards =
      Unwrap(ParseShardList("127.0.0.1:7001,localhost:7002"));
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].host, "127.0.0.1");
  EXPECT_EQ(shards[0].port, 7001);
  EXPECT_EQ(shards[1].host, "localhost");
  EXPECT_EQ(shards[1].port, 7002);
  EXPECT_FALSE(ParseShardList("").ok());
  EXPECT_FALSE(ParseShardList("127.0.0.1").ok());
  EXPECT_FALSE(ParseShardList("127.0.0.1:0").ok());
  EXPECT_FALSE(ParseShardList("127.0.0.1:99999").ok());
  EXPECT_FALSE(ParseShardList("127.0.0.1:7001,").ok());
  EXPECT_FALSE(ParseShardList(":7001").ok());
  EXPECT_FALSE(ParseShardList("host:12x").ok());
}

// ---------------------------------------------------------------------------
// End-to-end fleet fixture

/// One running fleet: N shard servers over round-robin-dealt copies of
/// the corpus, plus a coordinator fronting them.
struct Fleet {
  std::vector<std::unique_ptr<storage::Database>> dbs;
  std::vector<std::unique_ptr<index::SegmentedIndex>> indexes;
  std::vector<std::unique_ptr<TixServer>> shards;
  std::unique_ptr<TixServer> coordinator;

  Fleet() = default;
  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;
  ~Fleet() {
    if (coordinator != nullptr) coordinator->Stop();
    for (const auto& shard : shards) {
      if (shard != nullptr) shard->Stop();
    }
  }
};

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One master corpus, serialized per document; every shard layout
    // (including the 1-shard serial baseline) re-ingests these exact
    // bytes, so equivalence checks compare identical logical data.
    auto master = MakeTestDatabase(dir_.path() + "/master", 256);
    workload::CorpusOptions options;
    options.num_articles = 24;
    options.seed = 7;
    options.planted_terms = {{"xhot", 300}, {"xwarm", 60}, {"xcold", 6}};
    Unwrap(workload::GenerateCorpus(master.get(), options));
    for (const storage::DocumentInfo& info : master->documents()) {
      const auto subtree = Unwrap(master->ReconstructSubtree(info.root));
      documents_.push_back({info.name, xml::SerializeNode(*subtree)});
    }
  }

  /// Deals document g to shard g % n (local id g / n), matching the
  /// server's global-id reconstruction local * n + shard_id.
  Fleet MakeFleet(size_t n, bool gossip = true,
                  ServerOptions shard_options = {},
                  ServerOptions coordinator_options = {},
                  uint64_t io_timeout_ms = 5000) {
    Fleet fleet;
    ShardFleetOptions fleet_options;
    fleet_options.floor_gossip = gossip;
    fleet_options.io_timeout_ms = io_timeout_ms;
    // Every shard of every fleet gets its own directory: a test may run
    // two fleets of the same width side by side.
    const size_t fleet_id = fleets_made_++;
    for (size_t i = 0; i < n; ++i) {
      const std::string shard_dir = dir_.path() + "/f" +
                                    std::to_string(fleet_id) + "_s" +
                                    std::to_string(i);
      auto db = MakeTestDatabase(shard_dir, 256);
      for (size_t g = i; g < documents_.size(); g += n) {
        const auto parsed = Unwrap(
            xml::ParseXml(documents_[g].second, documents_[g].first));
        Unwrap(db->AddDocument(parsed));
      }
      auto index = testing::AdoptIndex(
          shard_dir, Unwrap(index::InvertedIndex::Build(db.get())));
      ServerOptions options = shard_options;
      options.shard_id = static_cast<uint32_t>(i);
      options.shard_count = static_cast<uint32_t>(n);
      options.result_cache_bytes = 0;
      auto server =
          std::make_unique<TixServer>(db.get(), index.get(), options);
      ExpectOk(server->Start());
      fleet_options.shards.push_back({"127.0.0.1", server->port()});
      fleet.dbs.push_back(std::move(db));
      fleet.indexes.push_back(std::move(index));
      fleet.shards.push_back(std::move(server));
    }
    fleet.coordinator = std::make_unique<TixServer>(
        std::move(fleet_options), coordinator_options);
    ExpectOk(fleet.coordinator->Start());
    return fleet;
  }

  static Client ConnectTo(const TixServer& server) {
    return Unwrap(Client::Connect("127.0.0.1", server.port()));
  }

  /// The equivalence contract masks the header's `scored` statistic:
  /// it counts elements surviving pruning, which legitimately differs
  /// with pruning tightness (even single-node pushdown on/off differ).
  /// Result count, anchors and every rendered byte must match exactly.
  static std::string MaskScored(std::string response) {
    const size_t begin = response.find(", scored ");
    if (begin == std::string::npos) return response;
    const size_t end = response.find(')', begin);
    if (end == std::string::npos) return response;
    return response.replace(begin, end - begin, ", scored _");
  }

  /// The canonical query set: every k regime from ISSUE (1, 3, 10,
  /// unlimited), fleet-wide and single-document scopes, a min-score
  /// threshold, and an unscored structural query. The single-step
  /// `//*` queries are top-K-pushdown eligible, so with gossip on the
  /// shards exchange kFloor frames mid-query; the `//article//...`
  /// shapes take the unpruned path and exercise the plain merge.
  static std::vector<std::string> Queries() {
    return {
        R"(FOR $a IN document("*")//*
           SCORE $a USING foo({"xhot"}) THRESHOLD STOP AFTER 1 RETURN $a)",
        R"(FOR $a IN document("*")//*
           SCORE $a USING foo({"xhot", "xwarm"}) THRESHOLD STOP AFTER 3 RETURN $a)",
        R"(FOR $a IN document("*")//*
           SCORE $a USING foo({"xwarm"}) THRESHOLD STOP AFTER 10 RETURN $a)",
        R"(FOR $a IN document("*")//article//*
           SCORE $a USING foo({"xhot"}) THRESHOLD STOP AFTER 3 RETURN $a)",
        R"(FOR $a IN document("*")//article//sec
           SCORE $a USING foo({"xcold", "xwarm"}) RETURN $a)",
        R"(FOR $a IN document("*")//article//p
           SCORE $a USING foo({"xhot", "xcold"}) THRESHOLD score > 0.1 RETURN $a)",
        R"(FOR $a IN document("article3.xml")//article//*
           SCORE $a USING foo({"xhot"}) THRESHOLD STOP AFTER 5 RETURN $a)",
        R"(FOR $a IN document("article7.xml")//article//sec
           SCORE $a USING foo({"xwarm"}) RETURN $a)",
    };
  }

  TempDir dir_;
  std::vector<std::pair<std::string, std::string>> documents_;
  size_t fleets_made_ = 0;
};

TEST_F(ShardTest, SerialEqualsShardedAtEveryShardCount) {
  // Serial baseline: the 1-shard database queried directly (no
  // coordinator in the path at all).
  Fleet serial = MakeFleet(1);
  Client baseline = ConnectTo(*serial.shards[0]);
  std::vector<std::string> expected;
  for (const std::string& query : Queries()) {
    expected.push_back(MaskScored(Unwrap(baseline.Query(query))));
  }
  const auto queries = Queries();
  // n=1 reuses the baseline fleet's coordinator (fan-out of one).
  {
    Client client = ConnectTo(*serial.coordinator);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(MaskScored(Unwrap(client.Query(queries[q]))), expected[q])
          << "n=1 query=" << queries[q];
    }
  }
  for (const size_t n : {size_t{2}, size_t{4}}) {
    Fleet fleet = MakeFleet(n);
    Client client = ConnectTo(*fleet.coordinator);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(MaskScored(Unwrap(client.Query(queries[q]))), expected[q])
          << "n=" << n << " query=" << queries[q];
    }
  }
}

TEST_F(ShardTest, GossipOffProducesIdenticalResponses) {
  Fleet with = MakeFleet(2, /*gossip=*/true);
  Fleet without = MakeFleet(2, /*gossip=*/false);
  Client client_with = ConnectTo(*with.coordinator);
  Client client_without = ConnectTo(*without.coordinator);
  for (const std::string& query : Queries()) {
    EXPECT_EQ(MaskScored(Unwrap(client_with.Query(query))),
              MaskScored(Unwrap(client_without.Query(query))))
        << query;
  }
  EXPECT_EQ(without.coordinator->Stats().queries_error, 0u);
}

TEST_F(ShardTest, GossipActuallyExchangesFloorsOnPushdownQueries) {
  Fleet fleet = MakeFleet(2, /*gossip=*/true);
  Client client = ConnectTo(*fleet.coordinator);
  // Queries()[0] is pushdown eligible (single-step //* with STOP
  // AFTER), so each shard polls the coordinator at least once.
  ExpectOk(client.Query(Queries()[0]).status());
  const std::string stats = Unwrap(client.Stats());
  const size_t key = stats.find("\"floor_exchanges\":");
  ASSERT_NE(key, std::string::npos) << stats;
  const uint64_t exchanges =
      std::strtoull(stats.c_str() + key + strlen("\"floor_exchanges\":"),
                    nullptr, 10);
  EXPECT_GE(exchanges, 2u) << stats;
}

TEST_F(ShardTest, MissingDocumentEverywhereIsNotFound) {
  Fleet fleet = MakeFleet(2);
  Client client = ConnectTo(*fleet.coordinator);
  const auto result = client.Query(
      R"(FOR $a IN document("nosuch.xml")//article//* RETURN $a)");
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
}

TEST_F(ShardTest, CoordinatorRejectsMutationsExplainAndNesting) {
  Fleet fleet = MakeFleet(2);
  Client client = ConnectTo(*fleet.coordinator);
  EXPECT_FALSE(client.Ingest("x.xml", "<a>hi</a>").ok());
  EXPECT_FALSE(client.Delete("article0.xml").ok());
  EXPECT_FALSE(client.Compact().ok());
  EXPECT_FALSE(
      client
          .QueryExplain(
              R"(FOR $a IN document("*")//article//sec RETURN $a)")
          .ok());
  // kQueryShard against a coordinator: fleets do not nest.
  ShardQueryRequest request;
  request.query = R"(FOR $a IN document("*")//article//sec RETURN $a)";
  Client nested = ConnectTo(*fleet.coordinator);
  EXPECT_FALSE(nested.ShardQuery(EncodeShardQuery(request), nullptr).ok());
  // The connection survives each rejection (error frames, not closes).
  ExpectOk(client.Ping());
}

TEST_F(ShardTest, ShardDeathFailsFastNotHangs) {
  Fleet fleet = MakeFleet(2, /*gossip=*/true, {}, {}, /*io_timeout_ms=*/500);
  fleet.shards[1]->Stop();
  Client client = ConnectTo(*fleet.coordinator);
  const auto start = std::chrono::steady_clock::now();
  const auto result = client.Query(Queries()[0]);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(result.ok());
  // Partial failure is an error naming the dead shard, never a hang:
  // the dial/read is bounded by io_timeout_ms.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  EXPECT_NE(result.status().ToString().find("shard 1"), std::string::npos)
      << result.status().ToString();
  EXPECT_GE(fleet.coordinator->Stats().queries_error, 1u);
}

TEST_F(ShardTest, ForwardedDeadlineCutsOffSlowShard) {
  // The coordinator's 100ms budget is forwarded over the wire; a shard
  // stalled 400ms (after admission, before execution) must then fail
  // its own execution deadline — even though the shard itself has no
  // --timeout-ms configured and the I/O timeout (5s) never fires.
  ServerOptions slow;
  slow.test_query_hook = [](const std::string&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };
  ServerOptions coordinator_options;
  coordinator_options.query_timeout_ms = 100;
  Fleet fleet = MakeFleet(2, /*gossip=*/true, slow, coordinator_options);
  Client client = ConnectTo(*fleet.coordinator);
  const auto result = client.Query(Queries()[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_GE(fleet.coordinator->Stats().queries_timeout, 1u);
}

// ---------------------------------------------------------------------------
// Client I/O timeouts (satellite: Options::io_timeout_ms)

/// A listening socket that completes TCP handshakes (kernel backlog)
/// but never reads or writes — the canonical silent dead peer.
class SilentPeer {
 public:
  SilentPeer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~SilentPeer() {
    if (fd_ >= 0) ::close(fd_);
  }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

TEST(ClientTimeoutTest, SilentPeerYieldsDeadlineExceeded) {
  SilentPeer peer;
  ClientOptions options;
  options.io_timeout_ms = 200;
  Client client = Unwrap(Client::Connect("127.0.0.1", peer.port(), options));
  const auto start = std::chrono::steady_clock::now();
  const auto result = client.Query("FOR $a IN document(\"x\") RETURN $a");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

TEST(ClientTimeoutTest, ConnectTimeoutOnBlackholeAddress) {
  ClientOptions options;
  options.io_timeout_ms = 200;
  // RFC 5737 TEST-NET-1: normally unrouted, so the SYN gets no answer
  // and only the bounded poll brings us back. Sandboxed/NATed networks
  // sometimes intercept the connect; all we can assert portably is that
  // the call returns promptly either way.
  const auto start = std::chrono::steady_clock::now();
  const auto result = Client::Connect("192.0.2.1", 9, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  if (result.ok()) {
    GTEST_SKIP() << "test network is routed here; timeout path not reachable";
  }
}

// ---------------------------------------------------------------------------
// Hostile shard responses on the coordinator path

/// A fake shard: accepts one connection, reads one frame, writes a
/// scripted raw byte response, and holds the socket open until torn
/// down (so reads see the bytes, not a reset).
class FakeShard {
 public:
  explicit FakeShard(std::string response) : response_(std::move(response)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 1);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
      if (conn_fd_ < 0) return;
      // Read (and discard) the request frame, then answer with the
      // scripted bytes.
      char buffer[4096];
      (void)::read(conn_fd_, buffer, sizeof buffer);
      (void)::write(conn_fd_, response_.data(), response_.size());
    });
  }
  ~FakeShard() {
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  uint16_t port() const { return port_; }

 private:
  std::string response_;
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

std::string RawFrame(uint8_t type, const std::string& payload) {
  // The length field counts the type byte plus the payload.
  const uint32_t length = static_cast<uint32_t>(payload.size()) + 1;
  std::string frame;
  frame.push_back(static_cast<char>(length & 0xff));
  frame.push_back(static_cast<char>((length >> 8) & 0xff));
  frame.push_back(static_cast<char>((length >> 16) & 0xff));
  frame.push_back(static_cast<char>((length >> 24) & 0xff));
  frame.push_back(static_cast<char>(type));
  frame += payload;
  return frame;
}

Result<std::string> AskFakeShard(const std::string& raw_response) {
  FakeShard shard(raw_response);
  ShardFleetOptions options;
  options.shards = {{"127.0.0.1", shard.port()}};
  options.io_timeout_ms = 1000;
  ShardFleet fleet(options);
  return fleet.Execute(
      R"(FOR $a IN document("*")//article//*
         SCORE $a USING foo({"xhot"}) THRESHOLD STOP AFTER 3 RETURN $a)",
      Deadline());
}

TEST(HostileShardTest, GarbagePartialResultIsCorruption) {
  const auto result =
      AskFakeShard(RawFrame(0x85, "definitely not a partial result"));
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

TEST(HostileShardTest, UnknownFrameTypeIsError) {
  const auto result = AskFakeShard(RawFrame(0x77, "mystery"));
  EXPECT_FALSE(result.ok());
}

TEST(HostileShardTest, OversizedFrameHeaderIsCorruption) {
  // Length field beyond kMaxFrameBytes: rejected before any allocation.
  std::string raw = "\xff\xff\xff\xff";
  raw.push_back(static_cast<char>(0x85));
  const auto result = AskFakeShard(raw);
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

TEST(HostileShardTest, TruncatedFrameIsError) {
  // Claims 100 payload bytes, delivers 3, then the connection idles
  // until the io timeout (the fake holds it open): bounded failure.
  std::string raw = RawFrame(0x85, "abc");
  raw[0] = 100;
  const auto result = AskFakeShard(raw);
  EXPECT_FALSE(result.ok());
}

TEST(HostileShardTest, MalformedFloorFrameAbortsQuery) {
  // A kFloor frame with a bad payload mid-exchange: the client must
  // fail the leg (and thus the query), not loop or crash.
  const auto result = AskFakeShard(RawFrame(0x0A, "bad"));
  EXPECT_FALSE(result.ok());
}

TEST(HostileShardTest, ErrorFrameSurfacesDecodedStatus) {
  const auto result = AskFakeShard(
      RawFrame(0x82, std::string(1, '\x01') + "shard says no"));
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("shard says no"),
            std::string::npos);
}

}  // namespace
}  // namespace tix::server
