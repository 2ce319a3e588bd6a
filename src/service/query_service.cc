#include "service/query_service.h"

#include <sstream>

#include "sql/parameters.h"
#include "sql/sql_parser.h"

namespace idf {

namespace {

using Clock = CancellationToken::Clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

// Parked submissions re-check their token at this cadence: a client
// Cancel() cannot signal the service's condition variable, so the wait
// polls. 1ms keeps cancel-while-queued prompt without measurable load.
constexpr std::chrono::milliseconds kAdmissionPoll{1};

}  // namespace

Status ServiceConfig::Validate() const {
  if (max_inflight == 0) {
    return Status::InvalidArgument("max_inflight must be at least 1");
  }
  return Status::OK();
}

QueryService::QueryService(ServiceConfig config, ExecutorContextPtr base_exec)
    : config_(std::move(config)),
      base_exec_(std::move(base_exec)),
      snapshots_(std::make_unique<SnapshotManager>(base_exec_)),
      views_(std::make_unique<MaterializedViewManager>(snapshots_.get(),
                                                       base_exec_)),
      plan_cache_(config_.plan_cache_capacity) {
  snapshots_->SetCommitSink(views_.get());
}

QueryService::~QueryService() {
  DisableCompaction();
  // Detach the delta feed before the view manager dies.
  snapshots_->SetCommitSink(nullptr);
}

Result<QueryServicePtr> QueryService::Make(const ServiceConfig& config) {
  IDF_RETURN_NOT_OK(config.Validate());
  IDF_ASSIGN_OR_RETURN(ExecutorContextPtr exec,
                       ExecutorContext::Make(config.engine));
  return QueryServicePtr(new QueryService(config, std::move(exec)));
}

Status QueryService::RegisterTable(const std::string& name,
                                   IndexedRelationPtr relation) {
  IDF_RETURN_NOT_OK(snapshots_->RegisterTable(name, std::move(relation)));
  // DDL: every cached plan may now be stale (new table shadows a name,
  // schema or index shape changed). Open handles re-prepare lazily.
  plan_cache_.Clear();
  return Status::OK();
}

Status QueryService::RegisterTable(const std::string& name,
                                   std::shared_ptr<MultiIndexedTable> table) {
  IDF_RETURN_NOT_OK(snapshots_->RegisterTable(name, std::move(table)));
  plan_cache_.Clear();
  return Status::OK();
}

Status QueryService::Append(const std::string& table, const RowVec& rows) {
  IDF_RETURN_NOT_OK(snapshots_->Append(table, rows));
  // Standing queries advance as part of the append path: the commit has
  // already landed and its delta is queued, so even if a concurrent
  // appender's pass picks it up first, this call just finds an empty
  // queue.
  if (views_->HasWork()) views_->Propagate();
  return Status::OK();
}

Result<ViewSubscriptionPtr> QueryService::Subscribe(
    const std::string& sql, ViewSubscription::Callback callback) {
  return views_->Subscribe(sql, std::move(callback));
}

Status QueryService::Unsubscribe(const ViewSubscriptionPtr& sub) {
  return views_->Unsubscribe(sub);
}

Status QueryService::EnableCompaction(const CompactionConfig& config) {
  std::lock_guard<std::mutex> lock(compaction_mu_);
  if (!compactors_.empty()) return Status::OK();
  std::vector<IndexedRelationPtr> relations = snapshots_->Relations();
  if (relations.empty()) {
    return Status::InvalidArgument(
        "EnableCompaction: no tables registered yet");
  }
  // The epoch callback only tags retirements for observability; the
  // service must outlive its compactors (they are members), so capturing
  // the raw manager pointer is safe.
  SnapshotManager* snapshots = snapshots_.get();
  for (IndexedRelationPtr& rel : relations) {
    compactors_.push_back(std::make_unique<Compactor>(
        std::move(rel), config, &base_exec_->metrics(),
        [snapshots] { return snapshots->epoch(); }));
    compactors_.back()->Start();
  }
  return Status::OK();
}

void QueryService::DisableCompaction() {
  std::lock_guard<std::mutex> lock(compaction_mu_);
  for (auto& c : compactors_) c->Stop();
  compactors_.clear();
}

Status QueryService::Admit(const CancellationToken* token) {
  std::unique_lock<std::mutex> lock(mu_);
  if (inflight_ < config_.max_inflight) {
    ++inflight_;
    return Status::OK();
  }
  if (waiting_ >= config_.max_queue) {
    return Status::CapacityError(
        "query rejected: " + std::to_string(inflight_) + " in flight and " +
        std::to_string(waiting_) + " queued (max_queue=" +
        std::to_string(config_.max_queue) + ")");
  }
  ++waiting_;
  while (inflight_ >= config_.max_inflight) {
    cv_.wait_for(lock, kAdmissionPoll);
    if (token != nullptr && token->stop_requested()) {
      --waiting_;
      return token->CheckStatus();
    }
  }
  --waiting_;
  ++inflight_;
  return Status::OK();
}

void QueryService::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

size_t QueryService::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

size_t QueryService::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

Result<ExecutorContextPtr> QueryService::AcquireExec() {
  {
    std::lock_guard<std::mutex> lock(exec_pool_mu_);
    if (!exec_pool_.empty()) {
      ExecutorContextPtr exec = std::move(exec_pool_.back());
      exec_pool_.pop_back();
      return exec;
    }
  }
  return ExecutorContext::MakeWithPool(config_.engine,
                                       base_exec_->shared_pool());
}

void QueryService::ReleaseExec(ExecutorContextPtr exec) {
  // A planning session may have baked this context into a memoized plan;
  // pooling it then would let two queries share mutable per-query state.
  // use_count()==1 proves we hold the only reference.
  if (exec.use_count() != 1) return;
  exec->SetCancellation(nullptr);
  exec->SetParameters(nullptr);
  exec->SetPins(nullptr);
  exec->metrics().Reset();
  std::lock_guard<std::mutex> lock(exec_pool_mu_);
  if (exec_pool_.size() < config_.max_inflight + config_.max_queue) {
    exec_pool_.push_back(std::move(exec));
  }
}

Status QueryService::RunAdmitted(const std::string& sql,
                                 const CancellationTokenPtr& token,
                                 QueryResult* result) {
  // A per-query planning session over the shared worker pool: private
  // metrics, private cancellation, shared threads.
  IDF_ASSIGN_OR_RETURN(ExecutorContextPtr exec, AcquireExec());
  exec->SetCancellation(token);
  Status status = [&]() -> Status {
    IDF_ASSIGN_OR_RETURN(SessionPtr session, snapshots_->MakeSession(exec));
    IDF_ASSIGN_OR_RETURN(DataFrame df, session->Sql(sql));
    // Pin after planning: every table the plan names was registered before
    // the pin, so the pin covers all of them and the query reads exactly
    // one epoch boundary across tables.
    ServiceSnapshotPtr snap = snapshots_->PinAll();
    result->epoch = snap->epoch;
    exec->SetPins(std::move(snap));
    IDF_ASSIGN_OR_RETURN(result->rows, session->ExecuteCollect(df.plan()));
    IDF_ASSIGN_OR_RETURN(result->schema, df.schema());
    // The deadline may have expired after the last operator finished; a
    // final check keeps "completed" and "timed out" mutually exclusive.
    return exec->CheckCancelled();
  }();
  // The query's private metrics are scrubbed when the executor returns to
  // the pool; fold the batch-execution counters into the service totals on
  // every outcome so Stats() reflects cancelled and failed queries too.
  FoldExecMetrics(*exec);
  ReleaseExec(std::move(exec));
  return status;
}

void QueryService::FoldExecMetrics(ExecutorContext& exec) {
  rows_filtered_vectorized_.fetch_add(exec.metrics().rows_filtered_vectorized(),
                                      std::memory_order_relaxed);
  vector_batches_evaluated_.fetch_add(exec.metrics().vector_batches_evaluated(),
                                      std::memory_order_relaxed);
  bitmap_probes_.fetch_add(exec.metrics().bitmap_probes(),
                           std::memory_order_relaxed);
  range_probes_.fetch_add(exec.metrics().range_probes(),
                          std::memory_order_relaxed);
  index_scans_avoided_.fetch_add(exec.metrics().index_scans_avoided(),
                                 std::memory_order_relaxed);
}

QueryResult QueryService::Execute(const std::string& sql,
                                  const QueryOptions& options) {
  const Clock::time_point start = Clock::now();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  CancellationTokenPtr token =
      options.cancel != nullptr ? options.cancel : CancellationToken::Make();
  const auto timeout =
      options.timeout.count() > 0 ? options.timeout : config_.default_timeout;
  // An explicit deadline on a caller token wins over the service default.
  if (timeout.count() > 0 && !token->has_deadline()) {
    token->SetDeadline(start + timeout);
  }

  QueryResult result;
  result.status = Admit(token.get());
  if (result.status.ok()) {
    result.queue_micros = MicrosSince(start);
    const Clock::time_point exec_start = Clock::now();
    result.status = RunAdmitted(sql, token, &result);
    result.exec_micros = MicrosSince(exec_start);
    Release();
  }
  result.total_micros = MicrosSince(start);

  if (result.status.ok()) {
    succeeded_.fetch_add(1, std::memory_order_relaxed);
    queue_hist_.Record(result.queue_micros);
    exec_hist_.Record(result.exec_micros);
    total_hist_.Record(result.total_micros);
  } else if (result.status.IsCapacityError()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status.IsCancelled()) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status.IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!result.status.ok()) result.rows.clear();
  return result;
}

Result<PreparedStatementPtr> QueryService::BuildStatement(
    const std::string& sql, const std::string& fingerprint) {
  // The plan names the live relations and holds no pins: each execution
  // brings its epoch's pins on the executor context, so the lowered plan
  // is built once here and never re-lowered as the epoch moves.
  IDF_ASSIGN_OR_RETURN(
      ExecutorContextPtr exec,
      ExecutorContext::MakeWithPool(config_.engine, base_exec_->shared_pool()));
  IDF_ASSIGN_OR_RETURN(SessionPtr session, snapshots_->MakeSession(exec));
  IDF_ASSIGN_OR_RETURN(PreparedParse parsed, ParseSqlPrepared(session, sql));
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr optimized,
                       session->OptimizeOnly(parsed.plan));

  auto stmt = std::make_shared<PreparedStatement>();
  stmt->sql = sql;
  stmt->fingerprint = fingerprint;
  stmt->num_params = parsed.param_types.size();
  stmt->param_types = parsed.param_types;
  stmt->result_schema = parsed.plan->output_schema();
  stmt->ddl_version = snapshots_->ddl_version();
  stmt->analyzed = parsed.plan;
  if (PlanIsParameterPatchable(optimized)) {
    IDF_ASSIGN_OR_RETURN(stmt->physical, session->PlanOptimized(optimized));
  }
  return stmt;
}

Result<PreparedInfo> QueryService::Prepare(const std::string& sql) {
  const std::string fingerprint = NormalizeSql(sql);
  PreparedStatementPtr stmt = plan_cache_.Lookup(fingerprint);
  if (stmt != nullptr &&
      stmt->ddl_version == snapshots_->ddl_version()) {
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (stmt != nullptr) plan_cache_.Erase(fingerprint);  // stale: DDL raced
    plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    IDF_ASSIGN_OR_RETURN(stmt, BuildStatement(sql, fingerprint));
    plan_cache_.Insert(stmt);
  }
  statements_prepared_.fetch_add(1, std::memory_order_relaxed);

  PreparedInfo info;
  info.handle = next_handle_.fetch_add(1, std::memory_order_relaxed);
  info.num_params = stmt->num_params;
  info.param_types = stmt->param_types;
  info.result_schema = stmt->result_schema;
  {
    std::lock_guard<std::mutex> lock(handles_mu_);
    handles_[info.handle] = std::move(stmt);
  }
  return info;
}

Status QueryService::ClosePrepared(uint64_t handle) {
  std::lock_guard<std::mutex> lock(handles_mu_);
  if (handles_.erase(handle) == 0) {
    return Status::InvalidArgument("unknown prepared statement handle " +
                                   std::to_string(handle));
  }
  return Status::OK();
}

PreparedStatementPtr QueryService::FindPrepared(uint64_t handle) const {
  std::lock_guard<std::mutex> lock(handles_mu_);
  auto it = handles_.find(handle);
  return it == handles_.end() ? nullptr : it->second;
}

Result<std::string> QueryService::Explain(const std::string& sql) {
  IDF_ASSIGN_OR_RETURN(
      ExecutorContextPtr exec,
      ExecutorContext::MakeWithPool(config_.engine, base_exec_->shared_pool()));
  IDF_ASSIGN_OR_RETURN(SessionPtr session, snapshots_->MakeSession(std::move(exec)));
  IDF_ASSIGN_OR_RETURN(DataFrame df, session->Sql(sql));
  return df.Explain();
}

Result<std::string> QueryService::ExplainPrepared(uint64_t handle) const {
  PreparedStatementPtr stmt = FindPrepared(handle);
  if (stmt == nullptr) {
    return Status::InvalidArgument("unknown prepared statement handle " +
                                   std::to_string(handle));
  }
  if (stmt->physical != nullptr) {
    return "== Physical Plan ==\n" + stmt->physical->TreeString();
  }
  return "== Analyzed Plan (re-planned per execution) ==\n" +
         stmt->analyzed->TreeString();
}

Status QueryService::RunPreparedAdmitted(uint64_t handle,
                                         PreparedStatementPtr stmt,
                                         const std::vector<Value>& params,
                                         const CancellationTokenPtr& token,
                                         QueryResult* result) {
  // DDL after prepare: transparently re-prepare from the statement's SQL
  // so long-lived handles survive RegisterTable, at one replan's cost.
  if (stmt->ddl_version != snapshots_->ddl_version()) {
    plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    prepared_replans_.fetch_add(1, std::memory_order_relaxed);
    IDF_ASSIGN_OR_RETURN(PreparedStatementPtr fresh,
                         BuildStatement(stmt->sql, stmt->fingerprint));
    plan_cache_.Insert(fresh);
    {
      std::lock_guard<std::mutex> lock(handles_mu_);
      auto it = handles_.find(handle);
      if (it != handles_.end()) it->second = fresh;
    }
    stmt = std::move(fresh);
  }

  IDF_ASSIGN_OR_RETURN(ExecutorContextPtr exec, AcquireExec());
  exec->SetCancellation(token);
  Status status = [&]() -> Status {
    ServiceSnapshotPtr snap = snapshots_->PinAll();
    result->epoch = snap->epoch;
    exec->SetPins(std::move(snap));
    result->schema = stmt->result_schema;
    if (stmt->physical != nullptr) {
      // Hot path: reuse the lowered physical plan. Parameters and pins
      // travel in the executor context; the operators patch compiled-
      // predicate immediates and lookup key slots and pick their pinned
      // version at Execute() entry, so nothing is re-parsed, re-optimized,
      // re-lowered, or re-compiled.
      exec->SetParameters(std::make_shared<const std::vector<Value>>(params));
      IDF_ASSIGN_OR_RETURN(PartitionVec parts, stmt->physical->Execute(*exec));
      result->rows = CollectRows(parts);
      return exec->CheckCancelled();
    }
    // Fallback for non-patchable shapes (a parameter sits in a join key,
    // sort key, or aggregate): substitute the values as literals into the
    // analyzed tree and run the normal optimize-and-execute pipeline.
    prepared_replans_.fetch_add(1, std::memory_order_relaxed);
    IDF_ASSIGN_OR_RETURN(SessionPtr session, snapshots_->MakeSession(exec));
    IDF_ASSIGN_OR_RETURN(LogicalPlanPtr literal,
                         BindPlanParameters(stmt->analyzed, params));
    IDF_ASSIGN_OR_RETURN(result->rows, session->ExecuteCollect(literal));
    return exec->CheckCancelled();
  }();
  FoldExecMetrics(*exec);
  ReleaseExec(std::move(exec));
  return status;
}

QueryResult QueryService::ExecutePrepared(uint64_t handle,
                                          const std::vector<Value>& params,
                                          const QueryOptions& options) {
  const Clock::time_point start = Clock::now();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  QueryResult result;

  PreparedStatementPtr stmt = FindPrepared(handle);
  if (stmt == nullptr) {
    result.status = Status::InvalidArgument(
        "unknown prepared statement handle " + std::to_string(handle));
  } else if (params.size() != stmt->num_params) {
    result.status = Status::InvalidArgument(
        "prepared statement expects " + std::to_string(stmt->num_params) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  if (!result.status.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    result.total_micros = MicrosSince(start);
    return result;
  }

  // Coerce each value to its inferred type up front (NULLs pass through):
  // the compiled immediate slots are typed, and coercing once here keeps
  // prepared results byte-identical to the ad-hoc query with the coerced
  // literal spliced in.
  std::vector<Value> coerced;
  coerced.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].is_null()) {
      coerced.push_back(Value::Null());
      continue;
    }
    Result<Value> cast = params[i].CastTo(stmt->param_types[i]);
    if (!cast.ok()) {
      result.status = Status::InvalidArgument(
          "parameter $" + std::to_string(i + 1) + ": " +
          cast.status().message());
      failed_.fetch_add(1, std::memory_order_relaxed);
      result.total_micros = MicrosSince(start);
      return result;
    }
    coerced.push_back(std::move(cast).ValueOrDie());
  }

  CancellationTokenPtr token =
      options.cancel != nullptr ? options.cancel : CancellationToken::Make();
  const auto timeout =
      options.timeout.count() > 0 ? options.timeout : config_.default_timeout;
  if (timeout.count() > 0 && !token->has_deadline()) {
    token->SetDeadline(start + timeout);
  }

  result.status = Admit(token.get());
  if (result.status.ok()) {
    result.queue_micros = MicrosSince(start);
    const Clock::time_point exec_start = Clock::now();
    result.status =
        RunPreparedAdmitted(handle, std::move(stmt), coerced, token, &result);
    result.exec_micros = MicrosSince(exec_start);
    Release();
  }
  result.total_micros = MicrosSince(start);

  if (result.status.ok()) {
    succeeded_.fetch_add(1, std::memory_order_relaxed);
    prepared_executions_.fetch_add(1, std::memory_order_relaxed);
    queue_hist_.Record(result.queue_micros);
    exec_hist_.Record(result.exec_micros);
    total_hist_.Record(result.total_micros);
  } else if (result.status.IsCapacityError()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status.IsCancelled()) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status.IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!result.status.ok()) result.rows.clear();
  return result;
}

void QueryService::ResetStats() {
  submitted_.store(0, std::memory_order_relaxed);
  succeeded_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
  cancelled_.store(0, std::memory_order_relaxed);
  deadline_exceeded_.store(0, std::memory_order_relaxed);
  failed_.store(0, std::memory_order_relaxed);
  rows_filtered_vectorized_.store(0, std::memory_order_relaxed);
  vector_batches_evaluated_.store(0, std::memory_order_relaxed);
  bitmap_probes_.store(0, std::memory_order_relaxed);
  range_probes_.store(0, std::memory_order_relaxed);
  index_scans_avoided_.store(0, std::memory_order_relaxed);
  statements_prepared_.store(0, std::memory_order_relaxed);
  plan_cache_hits_.store(0, std::memory_order_relaxed);
  plan_cache_misses_.store(0, std::memory_order_relaxed);
  prepared_executions_.store(0, std::memory_order_relaxed);
  prepared_replans_.store(0, std::memory_order_relaxed);
  net_connections_.store(0, std::memory_order_relaxed);
  net_requests_.store(0, std::memory_order_relaxed);
  net_busy_rejections_.store(0, std::memory_order_relaxed);
  // The cache's lifetime eviction counter is monotone; remember the
  // watermark so Stats() reports evictions since the reset.
  eviction_baseline_.store(plan_cache_.evictions(), std::memory_order_relaxed);
  queue_hist_.Reset();
  exec_hist_.Reset();
  total_hist_.Reset();
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.succeeded = succeeded_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.rows_filtered_vectorized =
      rows_filtered_vectorized_.load(std::memory_order_relaxed);
  stats.vector_batches_evaluated =
      vector_batches_evaluated_.load(std::memory_order_relaxed);
  stats.bitmap_probes = bitmap_probes_.load(std::memory_order_relaxed);
  stats.range_probes = range_probes_.load(std::memory_order_relaxed);
  stats.index_scans_avoided =
      index_scans_avoided_.load(std::memory_order_relaxed);
  // Maintenance runs on the append path, which executes on the service's
  // base context (shared by the snapshot manager), not a per-query one.
  stats.bitmap_maintenance_us = base_exec_->metrics().bitmap_maintenance_us();
  stats.range_maintenance_us = base_exec_->metrics().range_maintenance_us();
  stats.statements_prepared = statements_prepared_.load(std::memory_order_relaxed);
  stats.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  stats.plan_cache_misses = plan_cache_misses_.load(std::memory_order_relaxed);
  stats.plan_cache_evictions =
      plan_cache_.evictions() -
      eviction_baseline_.load(std::memory_order_relaxed);
  stats.prepared_executions =
      prepared_executions_.load(std::memory_order_relaxed);
  stats.prepared_replans = prepared_replans_.load(std::memory_order_relaxed);
  stats.net_connections = net_connections_.load(std::memory_order_relaxed);
  stats.net_requests = net_requests_.load(std::memory_order_relaxed);
  stats.net_busy_rejections =
      net_busy_rejections_.load(std::memory_order_relaxed);
  stats.queue = queue_hist_.Summarize();
  stats.exec = exec_hist_.Summarize();
  stats.total = total_hist_.Summarize();
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    for (const auto& c : compactors_) {
      Compactor::Stats cs = c->stats();
      stats.compactions_run += cs.compactions_run;
      stats.chain_links_rewritten += cs.links_rewritten;
      stats.bytes_reclaimed += cs.bytes_reclaimed;
      stats.retired_pending += cs.retired_pending;
    }
  }
  ViewManagerStats vs = views_->Stats();
  stats.views_registered = vs.views_registered;
  stats.view_subscribers = vs.view_subscribers;
  stats.arrangements_shared = vs.arrangements_shared;
  stats.deltas_propagated = vs.deltas_propagated;
  stats.rows_maintained_incrementally = vs.rows_maintained_incrementally;
  stats.views_recomputed = vs.views_recomputed;
  stats.view_trace_runs = vs.trace_runs;
  stats.view_trace_rows = vs.trace_rows;
  stats.view_maintenance_us = vs.maintenance_us;
  stats.view_read_errors = vs.read_errors;
  return stats;
}

std::string ServiceStats::ToJson() const {
  std::ostringstream out;
  out << "{\"submitted\": " << submitted << ", \"succeeded\": " << succeeded
      << ", \"rejected\": " << rejected << ", \"cancelled\": " << cancelled
      << ", \"deadline_exceeded\": " << deadline_exceeded
      << ", \"failed\": " << failed << ", \"queue\": " << queue.ToJson()
      << ", \"exec\": " << exec.ToJson() << ", \"total\": " << total.ToJson()
      << ", \"rows_filtered_vectorized\": " << rows_filtered_vectorized
      << ", \"vector_batches_evaluated\": " << vector_batches_evaluated
      << ", \"bitmap_probes\": " << bitmap_probes
      << ", \"range_probes\": " << range_probes
      << ", \"index_scans_avoided\": " << index_scans_avoided
      << ", \"bitmap_maintenance_us\": " << bitmap_maintenance_us
      << ", \"range_maintenance_us\": " << range_maintenance_us
      << ", \"statements_prepared\": " << statements_prepared
      << ", \"plan_cache_hits\": " << plan_cache_hits
      << ", \"plan_cache_misses\": " << plan_cache_misses
      << ", \"plan_cache_evictions\": " << plan_cache_evictions
      << ", \"prepared_executions\": " << prepared_executions
      << ", \"prepared_replans\": " << prepared_replans
      << ", \"net_connections\": " << net_connections
      << ", \"net_requests\": " << net_requests
      << ", \"net_busy_rejections\": " << net_busy_rejections
      << ", \"compactions_run\": " << compactions_run
      << ", \"chain_links_rewritten\": " << chain_links_rewritten
      << ", \"bytes_reclaimed\": " << bytes_reclaimed
      << ", \"retired_pending\": " << retired_pending
      << ", \"views_registered\": " << views_registered
      << ", \"view_subscribers\": " << view_subscribers
      << ", \"arrangements_shared\": " << arrangements_shared
      << ", \"deltas_propagated\": " << deltas_propagated
      << ", \"rows_maintained_incrementally\": "
      << rows_maintained_incrementally
      << ", \"views_recomputed\": " << views_recomputed
      << ", \"view_trace_runs\": " << view_trace_runs
      << ", \"view_trace_rows\": " << view_trace_rows
      << ", \"view_maintenance_us\": " << view_maintenance_us
      << ", \"view_read_errors\": " << view_read_errors << "}";
  return out.str();
}

std::string ServiceStats::ToString() const {
  std::ostringstream out;
  out << "queries: " << succeeded << "/" << submitted << " ok, " << rejected
      << " rejected, " << cancelled << " cancelled, " << deadline_exceeded
      << " past deadline, " << failed << " failed\n"
      << "total latency: p50=" << total.p50_micros
      << "us p95=" << total.p95_micros << "us p99=" << total.p99_micros
      << "us max=" << total.max_micros << "us (n=" << total.count << ")\n"
      << "vectorized: " << rows_filtered_vectorized << " rows filtered, "
      << vector_batches_evaluated << " batches\n"
      << "secondary indexes: " << bitmap_probes << " bitmap probes, "
      << range_probes << " range probes, " << index_scans_avoided
      << " scans avoided, " << bitmap_maintenance_us << "us bitmap + "
      << range_maintenance_us << "us range maintenance\n"
      << "prepared: " << statements_prepared << " prepares ("
      << plan_cache_hits << " cache hits, " << plan_cache_misses
      << " misses, " << plan_cache_evictions << " evictions), "
      << prepared_executions << " executions, " << prepared_replans
      << " replans\n"
      << "net: " << net_connections << " connections, " << net_requests
      << " requests, " << net_busy_rejections << " busy rejections\n"
      << "compaction: " << compactions_run << " runs, "
      << chain_links_rewritten << " links rewritten, " << bytes_reclaimed
      << " bytes reclaimed, " << retired_pending << " generations pending\n"
      << "views: " << views_registered << " arrangements ("
      << view_subscribers << " subscribers, " << arrangements_shared
      << " shared), " << deltas_propagated << " deltas propagated, "
      << rows_maintained_incrementally << " rows maintained, "
      << views_recomputed << " recomputes, " << view_trace_runs
      << " trace runs holding " << view_trace_rows << " rows, "
      << view_maintenance_us << "us maintaining, " << view_read_errors
      << " failed reads";
  return out.str();
}

}  // namespace idf
