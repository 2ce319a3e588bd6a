// Execution metrics: rows/bytes shuffled, tasks run, index probes. Used by
// benchmarks and tests to assert which physical path actually executed
// (e.g. "this query probed the index and shuffled nothing").
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace idf {

class QueryMetrics {
 public:
  void Reset();

  void AddShuffledRows(uint64_t n) { shuffled_rows_ += n; }
  void AddShuffledBytes(uint64_t n) { shuffled_bytes_ += n; }
  void AddBroadcastBytes(uint64_t n) { broadcast_bytes_ += n; }
  void AddTask() { tasks_run_ += 1; }
  void AddIndexProbes(uint64_t n) { index_probes_ += n; }
  void AddIndexHits(uint64_t n) { index_hits_ += n; }
  void AddRowsScanned(uint64_t n) { rows_scanned_ += n; }
  void AddRowsProduced(uint64_t n) { rows_produced_ += n; }
  void AddMorsels(uint64_t n) { morsels_dispatched_ += n; }
  void AddShuffleEncodedBytes(uint64_t n) { shuffle_encoded_bytes_ += n; }
  void AddDecodesAvoided(uint64_t n) { decodes_avoided_ += n; }
  void AddPredicatesCompiled(uint64_t n) { predicates_compiled_ += n; }
  void AddRowsFilteredEncoded(uint64_t n) { rows_filtered_encoded_ += n; }
  void AddRowsFilteredVectorized(uint64_t n) { rows_filtered_vectorized_ += n; }
  void AddVectorBatches(uint64_t n) { vector_batches_evaluated_ += n; }
  void AddAggMorsels(uint64_t n) { agg_morsels_ += n; }
  void AddAggPartialsMerged(uint64_t n) { agg_partials_merged_ += n; }
  void AddRowsAggregatedEncoded(uint64_t n) { rows_aggregated_encoded_ += n; }
  void AddAppendBatches(uint64_t n) { append_batches_ += n; }
  void AddAppendPartitionLocks(uint64_t n) { append_partition_locks_ += n; }
  void AddRowsAppendedParallel(uint64_t n) { rows_appended_parallel_ += n; }
  void AddCompactionsRun(uint64_t n) { compactions_run_ += n; }
  void AddChainLinksRewritten(uint64_t n) { chain_links_rewritten_ += n; }
  void AddBytesReclaimed(uint64_t n) { bytes_reclaimed_ += n; }
  void AddBitmapProbes(uint64_t n) { bitmap_probes_ += n; }
  void AddRangeProbes(uint64_t n) { range_probes_ += n; }
  void AddIndexScansAvoided(uint64_t n) { index_scans_avoided_ += n; }
  void AddBitmapMaintenanceNs(uint64_t n) { bitmap_maintenance_ns_ += n; }
  void AddRangeMaintenanceNs(uint64_t n) { range_maintenance_ns_ += n; }

  uint64_t shuffled_rows() const { return shuffled_rows_; }
  uint64_t shuffled_bytes() const { return shuffled_bytes_; }
  uint64_t broadcast_bytes() const { return broadcast_bytes_; }
  uint64_t tasks_run() const { return tasks_run_; }
  uint64_t index_probes() const { return index_probes_; }
  uint64_t index_hits() const { return index_hits_; }
  uint64_t rows_scanned() const { return rows_scanned_; }
  uint64_t rows_produced() const { return rows_produced_; }
  uint64_t morsels_dispatched() const { return morsels_dispatched_; }
  uint64_t shuffle_encoded_bytes() const { return shuffle_encoded_bytes_; }
  uint64_t decodes_avoided() const { return decodes_avoided_; }
  uint64_t predicates_compiled() const { return predicates_compiled_; }
  uint64_t rows_filtered_encoded() const { return rows_filtered_encoded_; }
  uint64_t rows_filtered_vectorized() const { return rows_filtered_vectorized_; }
  uint64_t vector_batches_evaluated() const { return vector_batches_evaluated_; }
  uint64_t agg_morsels() const { return agg_morsels_; }
  uint64_t agg_partials_merged() const { return agg_partials_merged_; }
  uint64_t rows_aggregated_encoded() const { return rows_aggregated_encoded_; }
  uint64_t append_batches() const { return append_batches_; }
  uint64_t append_partition_locks() const { return append_partition_locks_; }
  uint64_t rows_appended_parallel() const { return rows_appended_parallel_; }
  uint64_t compactions_run() const { return compactions_run_; }
  uint64_t chain_links_rewritten() const { return chain_links_rewritten_; }
  uint64_t bytes_reclaimed() const { return bytes_reclaimed_; }
  uint64_t bitmap_probes() const { return bitmap_probes_; }
  uint64_t range_probes() const { return range_probes_; }
  uint64_t index_scans_avoided() const { return index_scans_avoided_; }
  /// Accumulated in nanoseconds; read in whole microseconds.
  uint64_t bitmap_maintenance_us() const {
    return bitmap_maintenance_ns_ / 1000;
  }
  uint64_t range_maintenance_us() const { return range_maintenance_ns_ / 1000; }

  std::string ToString() const;

 private:
  std::atomic<uint64_t> shuffled_rows_{0};
  std::atomic<uint64_t> shuffled_bytes_{0};
  std::atomic<uint64_t> broadcast_bytes_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> index_probes_{0};
  std::atomic<uint64_t> index_hits_{0};
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> rows_produced_{0};
  std::atomic<uint64_t> morsels_dispatched_{0};
  std::atomic<uint64_t> shuffle_encoded_bytes_{0};
  std::atomic<uint64_t> decodes_avoided_{0};
  std::atomic<uint64_t> predicates_compiled_{0};
  std::atomic<uint64_t> rows_filtered_encoded_{0};
  std::atomic<uint64_t> rows_filtered_vectorized_{0};
  std::atomic<uint64_t> vector_batches_evaluated_{0};
  std::atomic<uint64_t> agg_morsels_{0};
  std::atomic<uint64_t> agg_partials_merged_{0};
  std::atomic<uint64_t> rows_aggregated_encoded_{0};
  std::atomic<uint64_t> append_batches_{0};
  std::atomic<uint64_t> append_partition_locks_{0};
  std::atomic<uint64_t> rows_appended_parallel_{0};
  std::atomic<uint64_t> compactions_run_{0};
  std::atomic<uint64_t> chain_links_rewritten_{0};
  std::atomic<uint64_t> bytes_reclaimed_{0};
  // Secondary indexes: probe counts per kind, rows an index probe skipped
  // scanning, and per-kind maintenance time inside append batches (ns,
  // so sub-microsecond per-partition upkeep still adds up).
  std::atomic<uint64_t> bitmap_probes_{0};
  std::atomic<uint64_t> range_probes_{0};
  std::atomic<uint64_t> index_scans_avoided_{0};
  std::atomic<uint64_t> bitmap_maintenance_ns_{0};
  std::atomic<uint64_t> range_maintenance_ns_{0};
};

}  // namespace idf
