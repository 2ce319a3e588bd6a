// Engine-wide tunables, mirroring the knobs the paper calls configurable:
// row-batch size, row size limit, partitions per core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace idf {

/// \brief Configuration for one IndexedDataFrame session / engine instance.
///
/// Defaults follow the paper: 4 MB row batches, rows up to 1 KB, and 1-4
/// partitions per core (we default to 2x hardware threads).
struct EngineConfig {
  /// Bytes per row batch ("e.g., of 4 MB in size", paper §2).
  size_t row_batch_bytes = 4 * 1024 * 1024;

  /// Maximum encoded row size ("rows that may have up to 1 KB", paper §2).
  size_t max_row_bytes = 1024;

  /// Number of partitions for indexed (and shuffled) relations. 0 means
  /// auto: 2 partitions per hardware thread.
  int num_partitions = 0;

  /// Worker threads in the executor pool. 0 means hardware concurrency.
  int num_threads = 0;

  /// Upper bound on rows per morsel for intra-partition parallelism
  /// (scans, join probes, multi-key lookups). The effective grain shrinks
  /// on small inputs so every worker still gets several morsels; see
  /// ExecutorContext::MorselGrain.
  size_t morsel_rows = 64 * 1024;

  /// Probe relations at most this many bytes are broadcast instead of
  /// shuffled in indexed joins (paper §2 "Scheduling Physical Operators").
  /// The same threshold selects broadcast joins on the vanilla path
  /// (Spark's spark.sql.autoBroadcastJoinThreshold).
  size_t broadcast_threshold_bytes = 8 * 1024 * 1024;

  /// When neither join side fits the broadcast threshold, the vanilla
  /// planner picks sort-merge join (Spark's default since 2.0) unless this
  /// is false, in which case it picks shuffled hash join.
  bool prefer_sort_merge_join = true;

  /// Index-kind costing threshold: a bitmap/range secondary-index probe is
  /// chosen over the vectorized scan only when its estimated selectivity
  /// (matching fraction of the relation) is at or below this. Past it the
  /// probe emits so many positions that the scan's sequential bandwidth
  /// wins. 0 disables secondary-index probes entirely.
  double secondary_probe_max_selectivity = 0.25;

  /// Validates invariants (batch >= max row, sizes fit pointer packing).
  Status Validate() const;

  /// Resolves auto (zero) fields against the host.
  EngineConfig Resolved() const;
};

/// Returns the number of hardware threads, at least 1.
int HardwareThreads();

}  // namespace idf
