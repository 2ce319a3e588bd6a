// QueryService: a concurrent SQL front-end over the indexed storage. Many
// client threads submit SQL; the service
//
//  1. admits up to `max_inflight` queries at once, parking up to
//     `max_queue` more behind a condition variable and rejecting the rest
//     with CapacityError (backpressure instead of collapse),
//  2. plans the SQL over the registered live relations in a per-query
//     Session that shares the base executor's thread pool but carries its
//     own metrics and cancellation token — queries interleave morsels on
//     the same workers, and a cancel or an expired deadline stops a query
//     within one morsel,
//  3. pins an MVCC snapshot of every registered table at one epoch
//     boundary (SnapshotManager) and installs it on the query's executor
//     context, so the plan reads a frozen, mutually consistent version
//     while the append stream keeps landing in the live indexes,
//  4. records per-query latency into lock-free histograms, exported as
//     p50/p95/p99 via Stats().
//
// All methods are thread-safe.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "indexed/compactor.h"
#include "service/latency_histogram.h"
#include "service/plan_cache.h"
#include "service/query_context.h"
#include "service/snapshot_manager.h"
#include "sql/session.h"
#include "view/view_manager.h"

namespace idf {

struct ServiceConfig {
  EngineConfig engine;

  /// Queries executing at once. Beyond it, submissions queue.
  size_t max_inflight = 8;

  /// Submissions allowed to wait for a slot. Beyond it, submissions are
  /// rejected with CapacityError immediately (bounded queueing delay).
  size_t max_queue = 32;

  /// Deadline applied to queries that don't bring their own timeout.
  /// Zero: no default deadline.
  std::chrono::nanoseconds default_timeout{0};

  /// Prepared statements cached per normalized SQL fingerprint. Beyond
  /// it, the least recently used plan is evicted (open handles keep
  /// evicted statements alive and executable).
  size_t plan_cache_capacity = 128;

  Status Validate() const;
};

/// A point-in-time view of the service's counters and latency
/// distributions.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t succeeded = 0;
  uint64_t rejected = 0;           ///< queue full (CapacityError)
  uint64_t cancelled = 0;          ///< stopped by client Cancel()
  uint64_t deadline_exceeded = 0;  ///< stopped by deadline
  uint64_t failed = 0;             ///< any other error

  LatencyHistogram::Summary queue;  ///< admission wait, completed queries
  LatencyHistogram::Summary exec;   ///< pin + plan + execute
  LatencyHistogram::Summary total;  ///< submission to completion

  // Batch-at-a-time execution, accumulated over every completed or failed
  // query (each query runs with private metrics; the service folds them in
  // when the query finishes).
  uint64_t rows_filtered_vectorized = 0;  ///< rows rejected by vector filter
  uint64_t vector_batches_evaluated = 0;  ///< internal predicate batches

  // Background compaction (zero unless EnableCompaction was called).
  uint64_t compactions_run = 0;
  uint64_t chain_links_rewritten = 0;
  uint64_t bytes_reclaimed = 0;
  uint64_t retired_pending = 0;  ///< generations waiting on pinned views

  // Secondary indexes: probe counts folded in per query, scan work the
  // probes skipped, and append-path maintenance time accumulated on the
  // service executor.
  uint64_t bitmap_probes = 0;          ///< bitmap-index probes executed
  uint64_t range_probes = 0;           ///< range-index probes executed
  uint64_t index_scans_avoided = 0;    ///< rows a probe skipped scanning
  uint64_t bitmap_maintenance_us = 0;  ///< bitmap upkeep inside appends
  uint64_t range_maintenance_us = 0;   ///< range upkeep inside appends

  // Prepared statements and the parameterized plan cache.
  uint64_t statements_prepared = 0;   ///< successful Prepare() calls
  uint64_t plan_cache_hits = 0;       ///< Prepare served from the cache
  uint64_t plan_cache_misses = 0;     ///< Prepare that built (or rebuilt) a plan
  uint64_t plan_cache_evictions = 0;  ///< LRU evictions beyond capacity
  uint64_t prepared_executions = 0;   ///< successful ExecutePrepared calls
  uint64_t prepared_replans = 0;  ///< non-patchable re-plans + DDL re-prepares

  // Network front end (zero unless a net::Server reports in).
  uint64_t net_connections = 0;      ///< connections accepted
  uint64_t net_requests = 0;         ///< protocol requests served
  uint64_t net_busy_rejections = 0;  ///< requests answered with BUSY

  // Incremental view maintenance (zero unless Subscribe was called).
  uint64_t views_registered = 0;  ///< live maintained arrangements
  uint64_t view_subscribers = 0;  ///< live standing-query subscriptions
  uint64_t arrangements_shared = 0;  ///< subscriptions that joined an existing arrangement
  uint64_t deltas_propagated = 0;  ///< delta batches applied to views
  uint64_t rows_maintained_incrementally = 0;  ///< delta rows folded into resident view state
  uint64_t views_recomputed = 0;  ///< full recompute passes (fallback shapes)
  uint64_t view_trace_runs = 0;   ///< delta runs on the live views' published traces
  uint64_t view_trace_rows = 0;   ///< (row, diff) entries across those runs
  uint64_t view_maintenance_us = 0;  ///< total wall time of view maintenance passes
  uint64_t view_read_errors = 0;  ///< snapshot reads whose ORDER BY/LIMIT failed to evaluate

  std::string ToJson() const;
  std::string ToString() const;
};

/// What Prepare() hands back: an execution handle plus the statement's
/// inferred parameter signature (one type per `?`/`$n` ordinal).
struct PreparedInfo {
  uint64_t handle = 0;
  size_t num_params = 0;
  std::vector<TypeId> param_types;
  SchemaPtr result_schema;
};

class QueryService {
 public:
  static Result<std::shared_ptr<QueryService>> Make(
      const ServiceConfig& config = ServiceConfig());

  /// Registers an updatable table for SQL access and epoch-gated appends.
  Status RegisterTable(const std::string& name, IndexedRelationPtr relation);
  Status RegisterTable(const std::string& name,
                       std::shared_ptr<MultiIndexedTable> table);

  /// Appends one batch to `table` as a single epoch step (all indexes of a
  /// multi-indexed table land atomically w.r.t. snapshot pinning). Safe
  /// from any number of appender threads, concurrent with queries.
  Status Append(const std::string& table, const RowVec& rows);

  /// Executes `sql` against a snapshot pinned at the current epoch
  /// boundary. Blocks while waiting for admission (bounded by deadline /
  /// cancel / slot availability). The outcome — including rejection and
  /// cancellation — is reported in the returned QueryResult's status.
  QueryResult Execute(const std::string& sql,
                      const QueryOptions& options = QueryOptions());

  /// Parses, analyzes, infers parameter types, optimizes, and caches
  /// `sql` (which may contain `?` or `$n` placeholders) once, returning a
  /// handle for repeated execution. Statements with the same normalized
  /// SQL share one cached plan (plan_cache_hits counts reuse).
  Result<PreparedInfo> Prepare(const std::string& sql);

  /// Executes a prepared statement with `params` bound by ordinal. Values
  /// are coerced to the inferred parameter types (NULLs pass through).
  /// Runs the physical plan lowered at Prepare against the current
  /// epoch's pins — compiled predicates patch immediate slots, nothing is
  /// re-parsed, re-lowered, or recompiled — and re-plans only when the
  /// plan shape is not patchable. Admission, deadlines, and cancellation
  /// behave exactly as in Execute().
  QueryResult ExecutePrepared(uint64_t handle, const std::vector<Value>& params,
                              const QueryOptions& options = QueryOptions());

  /// EXPLAIN of `sql` as Execute() plans it: the optimized logical plan
  /// and the physical plan over the registered tables.
  Result<std::string> Explain(const std::string& sql);

  /// The physical plan every execution of a prepared statement runs
  /// (lowered once, at Prepare); for a statement that is not patchable,
  /// the analyzed plan each execution re-plans with its values spliced in.
  Result<std::string> ExplainPrepared(uint64_t handle) const;

  /// Releases a handle. The cached plan stays in the LRU for future
  /// Prepare() calls; in-flight executions on the handle finish normally.
  Status ClosePrepared(uint64_t handle);

  /// Zeroes every counter and latency histogram. Gauges that mirror live
  /// subsystem state (views_registered, retired_pending, ...) are
  /// unaffected. Safe concurrent with queries (samples racing the reset
  /// land on either side).
  void ResetStats();

  /// Entry points for the network front end to report into Stats().
  void NoteNetConnection() { net_connections_.fetch_add(1); }
  void NoteNetRequest() { net_requests_.fetch_add(1); }
  void NoteNetBusyRejection() { net_busy_rejections_.fetch_add(1); }

  /// Starts one background Compactor per registered index (call after
  /// RegisterTable). Compactors share the service metrics and tag retired
  /// generations with the service epoch; they are stopped by the
  /// destructor or DisableCompaction(). Idempotent.
  Status EnableCompaction(const CompactionConfig& config = CompactionConfig());

  /// Stops and discards all background compactors (pending retired
  /// generations are released; pinned views keep their data alive).
  void DisableCompaction();

  /// Registers a standing query: the result is maintained incrementally
  /// from append deltas and readable lock-free via the subscription's
  /// Snapshot(). Subscriptions with the same plan share one maintained
  /// arrangement. The optional callback fires after every new publish.
  Result<ViewSubscriptionPtr> Subscribe(
      const std::string& sql, ViewSubscription::Callback callback = nullptr);

  /// Detaches a standing query (the shared arrangement is torn down with
  /// its last subscriber).
  Status Unsubscribe(const ViewSubscriptionPtr& sub);

  MaterializedViewManager& views() { return *views_; }

  ServiceStats Stats() const;

  SnapshotManager& snapshots() { return *snapshots_; }
  uint64_t epoch() const { return snapshots_->epoch(); }
  const ServiceConfig& config() const { return config_; }

  /// Instantaneous admission state (monitoring and tests).
  size_t inflight() const;
  size_t queued() const;

  ~QueryService();

 private:
  QueryService(ServiceConfig config, ExecutorContextPtr base_exec);

  /// Blocks until a slot is free (then holds it), the token requests stop,
  /// or the wait queue is full. The caller must Release() iff OK.
  Status Admit(const CancellationToken* token);
  void Release();

  /// The admitted path: pin, plan, execute. Factored out so Execute can
  /// uniformly time and classify the outcome.
  Status RunAdmitted(const std::string& sql, const CancellationTokenPtr& token,
                     QueryResult* result);

  /// Parse + analyze + infer + optimize + lower `sql` into a cacheable
  /// statement (the Prepare miss path).
  Result<PreparedStatementPtr> BuildStatement(const std::string& sql,
                                              const std::string& fingerprint);

  /// The admitted prepared path: pin, bind `params`, run the cached plan.
  /// Updates handles_[handle] when DDL invalidation forces a transparent
  /// re-prepare.
  Status RunPreparedAdmitted(uint64_t handle, PreparedStatementPtr stmt,
                             const std::vector<Value>& params,
                             const CancellationTokenPtr& token,
                             QueryResult* result);

  /// The statement behind an open handle, or null.
  PreparedStatementPtr FindPrepared(uint64_t handle) const;

  /// Folds a finished query's executor metrics into the service counters.
  void FoldExecMetrics(ExecutorContext& exec);

  /// Per-query executor contexts are pooled: constructing one (config
  /// resolution, metrics block) costs about as much as executing a point
  /// lookup, so the hot prepared path recycles them instead. Acquire
  /// returns a context with clean metrics and no cancellation, parameters,
  /// or pins (a pooled context never keeps an epoch's storage alive).
  Result<ExecutorContextPtr> AcquireExec();
  /// Scrubs the context and returns it to the pool — unless something
  /// (e.g. a memoized plan) still holds a reference, in which case it is
  /// simply dropped.
  void ReleaseExec(ExecutorContextPtr exec);

  ServiceConfig config_;
  ExecutorContextPtr base_exec_;
  std::unique_ptr<SnapshotManager> snapshots_;
  std::unique_ptr<MaterializedViewManager> views_;

  mutable std::mutex compaction_mu_;  // guards compactors_
  std::vector<std::unique_ptr<Compactor>> compactors_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t inflight_ = 0;
  size_t waiting_ = 0;

  mutable std::mutex exec_pool_mu_;  // guards exec_pool_
  std::vector<ExecutorContextPtr> exec_pool_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> succeeded_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> rows_filtered_vectorized_{0};
  std::atomic<uint64_t> vector_batches_evaluated_{0};
  std::atomic<uint64_t> bitmap_probes_{0};
  std::atomic<uint64_t> range_probes_{0};
  std::atomic<uint64_t> index_scans_avoided_{0};
  LatencyHistogram queue_hist_;
  LatencyHistogram exec_hist_;
  LatencyHistogram total_hist_;

  // Prepared statements. Statements prepared under an older
  // SnapshotManager::ddl_version() are invalidated (the schema, index
  // shape, or table set may have changed under the plan).
  PlanCache plan_cache_;
  mutable std::mutex handles_mu_;  // guards handles_
  std::unordered_map<uint64_t, PreparedStatementPtr> handles_;
  std::atomic<uint64_t> next_handle_{1};
  std::atomic<uint64_t> statements_prepared_{0};
  std::atomic<uint64_t> plan_cache_hits_{0};
  std::atomic<uint64_t> plan_cache_misses_{0};
  std::atomic<uint64_t> eviction_baseline_{0};  // ResetStats() watermark
  std::atomic<uint64_t> prepared_executions_{0};
  std::atomic<uint64_t> prepared_replans_{0};
  std::atomic<uint64_t> net_connections_{0};
  std::atomic<uint64_t> net_requests_{0};
  std::atomic<uint64_t> net_busy_rejections_{0};
};

using QueryServicePtr = std::shared_ptr<QueryService>;

}  // namespace idf
