#include "engine/metrics.h"

namespace idf {

void QueryMetrics::Reset() {
  shuffled_rows_ = 0;
  shuffled_bytes_ = 0;
  broadcast_bytes_ = 0;
  tasks_run_ = 0;
  index_probes_ = 0;
  index_hits_ = 0;
  rows_scanned_ = 0;
  rows_produced_ = 0;
  morsels_dispatched_ = 0;
  shuffle_encoded_bytes_ = 0;
  decodes_avoided_ = 0;
  predicates_compiled_ = 0;
  rows_filtered_encoded_ = 0;
  rows_filtered_vectorized_ = 0;
  vector_batches_evaluated_ = 0;
  agg_morsels_ = 0;
  agg_partials_merged_ = 0;
  rows_aggregated_encoded_ = 0;
  append_batches_ = 0;
  append_partition_locks_ = 0;
  rows_appended_parallel_ = 0;
  compactions_run_ = 0;
  chain_links_rewritten_ = 0;
  bytes_reclaimed_ = 0;
  bitmap_probes_ = 0;
  range_probes_ = 0;
  index_scans_avoided_ = 0;
  bitmap_maintenance_ns_ = 0;
  range_maintenance_ns_ = 0;
}

std::string QueryMetrics::ToString() const {
  return "metrics{shuffled_rows=" + std::to_string(shuffled_rows()) +
         ", shuffled_bytes=" + std::to_string(shuffled_bytes()) +
         ", broadcast_bytes=" + std::to_string(broadcast_bytes()) +
         ", tasks=" + std::to_string(tasks_run()) +
         ", index_probes=" + std::to_string(index_probes()) +
         ", index_hits=" + std::to_string(index_hits()) +
         ", rows_scanned=" + std::to_string(rows_scanned()) +
         ", rows_produced=" + std::to_string(rows_produced()) +
         ", morsels=" + std::to_string(morsels_dispatched()) +
         ", shuffle_encoded_bytes=" + std::to_string(shuffle_encoded_bytes()) +
         ", decodes_avoided=" + std::to_string(decodes_avoided()) +
         ", predicates_compiled=" + std::to_string(predicates_compiled()) +
         ", rows_filtered_encoded=" + std::to_string(rows_filtered_encoded()) +
         ", rows_filtered_vectorized=" +
         std::to_string(rows_filtered_vectorized()) +
         ", vector_batches_evaluated=" +
         std::to_string(vector_batches_evaluated()) +
         ", agg_morsels=" + std::to_string(agg_morsels()) +
         ", agg_partials_merged=" + std::to_string(agg_partials_merged()) +
         ", rows_aggregated_encoded=" + std::to_string(rows_aggregated_encoded()) +
         ", append_batches=" + std::to_string(append_batches()) +
         ", append_partition_locks=" + std::to_string(append_partition_locks()) +
         ", rows_appended_parallel=" + std::to_string(rows_appended_parallel()) +
         ", compactions_run=" + std::to_string(compactions_run()) +
         ", chain_links_rewritten=" + std::to_string(chain_links_rewritten()) +
         ", bytes_reclaimed=" + std::to_string(bytes_reclaimed()) +
         ", bitmap_probes=" + std::to_string(bitmap_probes()) +
         ", range_probes=" + std::to_string(range_probes()) +
         ", index_scans_avoided=" + std::to_string(index_scans_avoided()) +
         ", bitmap_maintenance_us=" + std::to_string(bitmap_maintenance_us()) +
         ", range_maintenance_us=" + std::to_string(range_maintenance_us()) +
         "}";
}

}  // namespace idf
