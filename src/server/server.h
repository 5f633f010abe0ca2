#ifndef TIX_SERVER_SERVER_H_
#define TIX_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/obs.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "server/coordinator.h"
#include "server/result_cache.h"
#include "server/shard_protocol.h"
#include "storage/database.h"

/// \file
/// The resident query server behind `tixd`: opens the database once and
/// serves concurrent sessions over the length-prefixed TCP protocol
/// (server/protocol.h, docs/SERVING.md). One process-wide index,
/// decoded-block cache and result cache are shared by every session;
/// each session runs as a task on a tix::ThreadPool and carries its own
/// obs::MetricsContext (parented to a server-wide root context, so
/// per-query EXPLAIN stays exact under concurrency while server totals
/// roll up for free).
///
/// Two modes. A data server serves a SegmentedIndex and accepts
/// INGEST / DELETE / COMPACT frames: each query pins an index snapshot
/// for its whole run (so concurrent mutations never change its view),
/// result-cache entries are stamped with the snapshot generation (stale
/// ones evict lazily), and a one-thread maintenance pool compacts small
/// segments in the background. The database itself is guarded by a
/// shared_mutex — queries share it, ingestion takes it exclusively —
/// because Database::AddDocument mutates storage that queries read. A
/// monolithic `index.tix` is served the same way: SegmentedIndex::Open
/// adopts it in place as segment 0. A coordinator holds no data and
/// fans queries out to a shard fleet (docs/SHARDING.md).
///
/// Overload degrades to fast rejection, never collapse: connections
/// beyond `max_sessions` get an immediate busy error, queries beyond
/// `max_inflight` wait in a bounded admission queue (bounded in both
/// depth and wait time) and are rejected with ResourceExhausted when it
/// overflows, and `query_timeout_ms` bounds any one query's execution
/// via the engine's deadline plumbing.

namespace tix::server {

struct ServerOptions {
  /// Listen address. The protocol is unauthenticated, so anything but
  /// loopback is a deliberate decision.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read the choice back via port().
  uint16_t port = 0;
  /// Worker pool size == concurrent *sessions* (a session occupies a
  /// worker for the life of its connection).
  size_t session_threads = 8;
  /// Connections at or beyond this get a busy error frame and a close
  /// before ever reaching the pool. Defaults to session_threads when 0.
  size_t max_sessions = 0;
  /// Queries executing at once across all sessions. Sessions over this
  /// wait in the admission queue.
  size_t max_inflight = 4;
  /// Queries allowed to *wait* for an in-flight slot; one more and the
  /// query is rejected immediately with ResourceExhausted.
  size_t admission_queue = 16;
  /// Longest wait in the admission queue before rejection.
  uint64_t admission_wait_ms = 1000;
  /// Per-query execution deadline (0 = unlimited), enforced by
  /// EngineOptions::deadline once the query is admitted.
  uint64_t query_timeout_ms = 0;
  /// Result-cache capacity; 0 disables caching.
  size_t result_cache_bytes = 8u << 20;
  /// Max results rendered into one response (tix_cli's --limit).
  size_t render_limit = 10;
  /// Per-query engine knobs (threads, pushdown). The deadline and
  /// collect_metrics fields are overwritten per request.
  query::EngineOptions engine;
  /// Doc-id namespacing for a shard member of a scatter-gather fleet
  /// (docs/SHARDING.md): kQueryShard responses report global doc ids
  /// `local * shard_count + shard_id`, so a fleet whose documents were
  /// dealt round-robin reproduces the original ids exactly. The default
  /// (shard_count <= 1) is the identity mapping — any tixd answers
  /// kQueryShard, fleet member or not.
  uint32_t shard_id = 0;
  uint32_t shard_count = 1;
  /// Test-only: runs on the session thread after a query is admitted
  /// (in-flight slot held) and before execution. Lets tests hold the
  /// slot to exercise admission control and timeouts deterministically.
  std::function<void(const std::string& normalized_query)> test_query_hook;
};

/// Monotone counters since Start(), plus point-in-time gauges.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< Busy-rejected at accept.
  uint64_t queries = 0;               ///< Query frames received.
  uint64_t queries_ok = 0;
  uint64_t queries_error = 0;     ///< Parse/execution errors.
  uint64_t queries_rejected = 0;  ///< Admission-control rejections.
  uint64_t queries_timeout = 0;   ///< Deadline-exceeded executions.
  uint64_t result_cache_hits = 0;
  uint64_t ingests = 0;       ///< Documents accepted via kIngest.
  uint64_t deletes = 0;       ///< Documents tombstoned via kDelete.
  uint64_t active_sessions = 0;  ///< Gauge.
  uint64_t inflight = 0;         ///< Gauge.
};

class TixServer {
 public:
  /// Data server: serves queries against per-query snapshots of
  /// `segmented` and accepts INGEST / DELETE / COMPACT frames. `db` and
  /// `segmented` must outlive the server; the server owns all mutation
  /// of both while running.
  TixServer(storage::Database* db, index::SegmentedIndex* segmented,
            ServerOptions options);

  /// Coordinator mode (docs/SHARDING.md): no local database or index —
  /// kQuery frames fan out to the fleet's shards and reduce through the
  /// exact top-K merge. Ingest/delete/compact/EXPLAIN are rejected
  /// (mutate the shards directly), the result cache is bypassed (the
  /// coordinator cannot observe shard index generations), and
  /// kQueryShard is rejected too (fleets do not nest).
  TixServer(ShardFleetOptions fleet, ServerOptions options);
  /// Stops the server if still running.
  ~TixServer();
  TIX_DISALLOW_COPY_AND_ASSIGN(TixServer);

  /// Binds, listens and starts the accept thread + session pool.
  Status Start();

  /// Graceful stop: stop accepting, shut down every live session socket
  /// (in-flight requests finish; blocked reads wake and end), drain the
  /// pool, join the accept thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (useful with options.port == 0). 0 before Start().
  uint16_t port() const { return port_; }

  ServerStats Stats() const;
  /// The STATS response: counters above + result-cache, decoded-block
  /// cache and rolled-up obs work counters as one JSON object.
  std::string StatsJson() const;

  ResultCache& result_cache() { return *result_cache_; }

  /// Total work charged by every session since Start (record fetches,
  /// block decodes, cache hits...), via the server root MetricsContext.
  uint64_t WorkCounter(obs::Counter counter) const {
    return root_metrics_.value(counter);
  }

  /// Blocks until a client sends kShutdown or `Stop()` is called.
  /// Returns true when the cause was a client shutdown request. The
  /// daemon's main thread waits here, then calls Stop() itself — Stop()
  /// must not run on a session thread (it joins the pool).
  bool WaitForShutdownRequest();

 private:
  void AcceptLoop();
  void RunSession(int fd);
  /// Handles one query frame end to end (cache, admission, execution),
  /// writing exactly one response frame to `fd`.
  Status HandleQuery(int fd, const std::string& text, bool explain);
  /// Executes against a per-request engine; returns the rendered
  /// response payload. `deadline` is the query's execution budget,
  /// started when the query was admitted. `snapshot` is the pinned
  /// index view.
  Result<std::string> ExecuteQuery(
      const std::string& text, bool explain, const Deadline& deadline,
      std::shared_ptr<const index::IndexSnapshot> snapshot);
  /// kIngest: payload is [u32 name length LE][name][xml]. Parses,
  /// appends to the database and the live index under the exclusive db
  /// lock, answers kResult with the assigned doc id in decimal.
  Status HandleIngest(int fd, const std::string& payload);
  /// kDelete: payload is a document name; tombstones the newest live
  /// document with that name.
  Status HandleDelete(int fd, const std::string& payload);
  /// kCompact: force-seals the write buffer, then runs one compaction.
  Status HandleCompact(int fd);
  /// kQuery in coordinator mode: fan out through fleet_ and answer with
  /// the merged result (or the failing leg's error).
  Status HandleCoordinatorQuery(int fd, const std::string& text,
                                bool explain);
  /// kQueryShard: executes the query locally with the fleet-global
  /// floor gossiped over `fd`, answering kPartialResult (or kError).
  Status HandleShardQuery(int fd, const std::string& payload);
  /// The execution behind HandleShardQuery: runs the query with gossip
  /// wired up and encodes the partial result (global doc ids, rendered
  /// fragments for the first render_limit results).
  Result<std::string> ExecuteShardQuery(
      int fd, const ShardQueryRequest& request, const Deadline& deadline,
      std::shared_ptr<const index::IndexSnapshot> snapshot);

  /// RAII in-flight slot. `ok()` false means rejected (status() says
  /// why); destructor releases the slot and wakes one waiter.
  class AdmissionSlot;

  storage::Database* const db_;
  index::SegmentedIndex* const segmented_;
  /// Coordinator mode (else null; db_ and segmented_ are null then).
  std::unique_ptr<ShardFleet> fleet_;
  const ServerOptions options_;

  /// Guards the database: queries hold it shared for their whole
  /// execution, ingestion exclusively (AddDocument reallocates storage
  /// that queries read).
  mutable std::shared_mutex db_mu_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;
  /// One background thread for segment compaction (data server only).
  std::unique_ptr<ThreadPool> maintenance_pool_;
  std::unique_ptr<ResultCache> result_cache_;

  /// Open session sockets; Stop() shuts them down to wake blocked reads.
  std::mutex sessions_mu_;
  std::unordered_set<int> session_fds_;

  /// Admission control state (max_inflight + bounded wait queue).
  /// Mutable so Stats() can snapshot the inflight gauge.
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  size_t inflight_ = 0;
  size_t waiters_ = 0;

  /// Shutdown-request handshake for WaitForShutdownRequest().
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  /// Every session context parents here, so these atomics accumulate
  /// all sessions' storage/index/cache work without extra locking.
  mutable obs::MetricsContext root_metrics_;

  // Counters (relaxed atomics; read as a snapshot by Stats()).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_error_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> queries_timeout_{0};
  std::atomic<uint64_t> ingests_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> active_sessions_{0};
};

}  // namespace tix::server

#endif  // TIX_SERVER_SERVER_H_
