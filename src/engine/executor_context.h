// ExecutorContext: the per-session runtime — resolved configuration, the
// executor thread pool, and query metrics. One context is shared by all
// DataFrames of a Session.
//
// The thread pool is shareable: the query service derives one lightweight
// context per admitted query (own metrics, own cancellation token) over
// the base session's pool, so concurrent queries interleave morsels on the
// same workers without sharing mutable per-query state.
#pragma once

#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "common/result.h"
#include "engine/metrics.h"
#include "engine/thread_pool.h"
#include "types/value.h"

namespace idf {

class SnapshotPins;  // indexed/indexed_relation.h

class ExecutorContext {
 public:
  /// `config` is resolved (auto fields filled) and validated here.
  static Result<std::shared_ptr<ExecutorContext>> Make(const EngineConfig& config);

  /// Derived context sharing an existing pool: fresh metrics and
  /// cancellation slot, same workers. `config` is resolved and validated;
  /// its num_threads is overridden by the pool's actual size (morsel
  /// sizing must reflect the real worker count).
  static Result<std::shared_ptr<ExecutorContext>> MakeWithPool(
      const EngineConfig& config, std::shared_ptr<ThreadPool> pool);

  const EngineConfig& config() const { return config_; }
  ThreadPool& pool() { return *pool_; }
  const std::shared_ptr<ThreadPool>& shared_pool() const { return pool_; }
  QueryMetrics& metrics() { return metrics_; }

  /// Per-query cancellation. Null token (the default) never cancels.
  /// Install before execution starts; not thread-safe against a running
  /// query on this context.
  void SetCancellation(CancellationTokenPtr token) { cancel_ = std::move(token); }
  const CancellationToken* cancellation() const { return cancel_.get(); }

  /// OK unless this context's token requests stop (operators call this at
  /// entry and after each parallel region, turning a drained job into
  /// Status::Cancelled / DeadlineExceeded).
  Status CheckCancelled() const {
    return cancel_ == nullptr ? Status::OK() : cancel_->CheckStatus();
  }

  /// Prepared-statement parameter bindings for this execution (values
  /// already coerced to their declared types). Operators holding
  /// ParameterRef expressions or parameter slots bind against these at
  /// Execute entry. Install before execution starts, like SetCancellation;
  /// null (the default) means "no parameters".
  void SetParameters(std::shared_ptr<const std::vector<Value>> params) {
    params_ = std::move(params);
  }
  const std::vector<Value>* parameters() const { return params_.get(); }

  /// MVCC pins for this execution: an operator reading an indexed relation
  /// the set pins reads that pinned version, and captures a fresh snapshot
  /// of any other relation. Install before execution starts, like
  /// SetParameters; null (the default) means "read the live versions".
  void SetPins(std::shared_ptr<const SnapshotPins> pins) {
    pins_ = std::move(pins);
  }
  const SnapshotPins* pins() const { return pins_.get(); }

  int num_partitions() const { return config_.num_partitions; }

  /// Rows per morsel for a job of `n` rows: the configured ceiling
  /// (`morsel_rows`), shrunk so every worker gets several chunks to pull
  /// from the shared cursor, floored so tiny jobs stay in one inline chunk
  /// instead of paying dispatch overhead per handful of rows.
  size_t MorselGrain(size_t n) const;

 private:
  ExecutorContext(EngineConfig config, std::shared_ptr<ThreadPool> pool);

  EngineConfig config_;
  std::shared_ptr<ThreadPool> pool_;
  QueryMetrics metrics_;
  CancellationTokenPtr cancel_;
  std::shared_ptr<const std::vector<Value>> params_;
  std::shared_ptr<const SnapshotPins> pins_;
};

using ExecutorContextPtr = std::shared_ptr<ExecutorContext>;

}  // namespace idf
