#include "indexed/indexed_relation.h"

#include "common/logging.h"
#include "engine/shuffle.h"

namespace idf {

size_t EncodedRowBatch::total_bytes() const {
  size_t n = 0;
  for (const auto& b : buffers) n += b.size();
  return n;
}

Result<EncodedRowBatch> EncodeRowBatch(ExecutorContext& ctx, const Schema& schema,
                                       const RowVec& rows) {
  EncodedRowBatch out;
  out.spans.resize(rows.size());
  if (rows.empty()) return out;

  // MorselGrain's floor keeps a small batch one chunk, which the caller
  // encodes inline without touching the pool.
  const size_t grain = ctx.MorselGrain(rows.size());
  const size_t num_chunks = (rows.size() + grain - 1) / grain;
  out.buffers.resize(num_chunks);
  std::vector<Status> statuses(num_chunks);

  auto encode_chunk = [&](size_t begin, size_t end) {
    const size_t chunk = begin / grain;
    std::vector<uint8_t>& buf = out.buffers[chunk];
    buf.reserve((end - begin) * 64);
    std::vector<uint8_t> scratch;
    for (size_t i = begin; i < end; ++i) {
      Status st = ValidateRow(schema, rows[i]);
      if (!st.ok()) {
        statuses[chunk] = std::move(st);
        return;
      }
      EncodeRowUnchecked(schema, rows[i], &scratch);
      out.spans[i] = {static_cast<uint32_t>(chunk),
                      static_cast<uint32_t>(buf.size()),
                      static_cast<uint32_t>(scratch.size())};
      buf.insert(buf.end(), scratch.begin(), scratch.end());
    }
  };

  ctx.pool().ParallelForRange(rows.size(), grain, encode_chunk,
                              ctx.cancellation());
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  if (num_chunks > 1) ctx.metrics().AddRowsAppendedParallel(rows.size());
  for (Status& st : statuses) {
    IDF_RETURN_NOT_OK(st);
  }
  return out;
}

RowVec IndexedRelationSnapshot::GetRows(const Value& key) const {
  if (key.is_null() || views_.empty()) return {};
  int p = partitioner_.PartitionOf(key);
  return views_[static_cast<size_t>(p)].GetRows(key);
}

size_t IndexedRelationSnapshot::num_rows() const {
  size_t n = 0;
  for (const auto& v : views_) n += v.num_rows();
  return n;
}

SecondaryIndexKind IndexedRelationSnapshot::SecondaryKindOf(int column) const {
  SecondaryIndexKind kind = SecondaryIndexKind::kNone;
  for (const auto& v : views_) {
    const SecondaryIndexKind k = v.SecondaryKindOf(column);
    if (k == SecondaryIndexKind::kNone) return SecondaryIndexKind::kNone;
    if (kind == SecondaryIndexKind::kNone) kind = k;
    if (k != kind) return SecondaryIndexKind::kNone;
  }
  return views_.empty() ? SecondaryIndexKind::kNone : kind;
}

uint64_t IndexedRelationSnapshot::EstimateProbeMatches(
    const SecondaryProbe& probe) const {
  uint64_t est = 0;
  bool has_index = false;
  for (const auto& v : views_) est += v.EstimateProbeMatches(probe, &has_index);
  return est;
}

IndexedRelation::IndexedRelation(std::string name, SchemaPtr schema,
                                 int indexed_col, const EngineConfig& config)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      indexed_col_(indexed_col),
      partitioner_(config.num_partitions),
      write_locks_(new std::mutex[static_cast<size_t>(config.num_partitions)]) {
  partitions_.reserve(static_cast<size_t>(config.num_partitions));
  for (int p = 0; p < config.num_partitions; ++p) {
    partitions_.push_back(
        std::make_unique<IndexedPartition>(schema_, indexed_col_, config));
  }
}

Result<IndexedRelationPtr> IndexedRelation::Make(std::string name, SchemaPtr schema,
                                                 int indexed_col,
                                                 const EngineConfig& config) {
  EngineConfig resolved = config.Resolved();
  IDF_RETURN_NOT_OK(resolved.Validate());
  if (indexed_col < 0 || indexed_col >= schema->num_fields()) {
    return Status::IndexError("indexed column ordinal " +
                              std::to_string(indexed_col) +
                              " out of range for schema " + schema->ToString());
  }
  return IndexedRelationPtr(new IndexedRelation(std::move(name), std::move(schema),
                                                indexed_col, resolved));
}

Result<IndexedRelationPtr> IndexedRelation::Build(ExecutorContext& ctx,
                                                  std::string name,
                                                  SchemaPtr schema, int indexed_col,
                                                  const RowVec& rows) {
  IDF_ASSIGN_OR_RETURN(IndexedRelationPtr rel,
                       Make(std::move(name), std::move(schema), indexed_col,
                            ctx.config()));
  IDF_RETURN_NOT_OK(rel->AppendRows(ctx, rows));
  return rel;
}

Status IndexedRelation::AppendRows(ExecutorContext& ctx, const RowVec& rows) {
  // Encode (and validate) the whole batch before touching any partition
  // lock; on multi-core hosts this runs in parallel morsels.
  IDF_ASSIGN_OR_RETURN(EncodedRowBatch enc, EncodeRowBatch(ctx, *schema_, rows));
  return AppendEncoded(ctx, rows, enc);
}

Status IndexedRelation::AppendEncoded(ExecutorContext& ctx, const RowVec& rows,
                                      const EncodedRowBatch& enc) {
  if (enc.num_rows() != rows.size()) {
    return Status::InvalidArgument(
        "AppendEncoded: encoded batch of " + std::to_string(enc.num_rows()) +
        " rows does not match " + std::to_string(rows.size()) + " source rows");
  }
  const int num_parts = num_partitions();
  // Map side of the index-creation shuffle: route rows by key hash. The
  // key is read from the source row (each index of a multi-indexed table
  // routes the same encoded bytes by its own column).
  std::vector<std::vector<IndexedPartition::EncodedRowRef>> routed(
      static_cast<size_t>(num_parts));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value& key = rows[i][static_cast<size_t>(indexed_col_)];
    IndexedPartition::EncodedRowRef ref{enc.payload(i), enc.size(i), 0, false};
    int target = 0;
    if (!key.is_null()) {
      ref.hash = key.Hash();
      ref.indexed = true;
      target = partitioner_.PartitionOfHash(ref.hash);
    }
    routed[static_cast<size_t>(target)].push_back(ref);
  }
  ctx.metrics().AddShuffledRows(rows.size());
  ctx.metrics().AddShuffledBytes(enc.total_bytes());

  // Reduce side: apply each partition's group under ONE write-lock
  // acquisition (lock acquisitions per batch == partitions touched).
  std::vector<Status> statuses(static_cast<size_t>(num_parts));
  std::atomic<size_t> appended{0};
  std::atomic<uint64_t> bitmap_ns{0};
  std::atomic<uint64_t> range_ns{0};
  ctx.pool().ParallelFor(static_cast<size_t>(num_parts), [&](size_t p) {
    ctx.metrics().AddTask();
    if (routed[p].empty()) return;
    IndexedPartition::AppendBatchResult result;
    {
      std::lock_guard<std::mutex> lock(write_locks_[p]);
      ctx.metrics().AddAppendPartitionLocks(1);
      statuses[p] = partitions_[p]->AppendBatch(routed[p], &result);
    }
    appended.fetch_add(result.rows_appended, std::memory_order_relaxed);
    bitmap_ns.fetch_add(result.maintenance.bitmap_ns, std::memory_order_relaxed);
    range_ns.fetch_add(result.maintenance.range_ns, std::memory_order_relaxed);
  });
  ctx.metrics().AddBitmapMaintenanceNs(bitmap_ns.load(std::memory_order_relaxed));
  ctx.metrics().AddRangeMaintenanceNs(range_ns.load(std::memory_order_relaxed));
  for (const Status& st : statuses) {
    IDF_RETURN_NOT_OK(st);
  }
  if (appended.load(std::memory_order_relaxed) != rows.size()) {
    return Status::Internal(
        "append batch landed " + std::to_string(appended.load()) + " of " +
        std::to_string(rows.size()) + " rows");
  }
  ctx.metrics().AddAppendBatches(1);
  // One version bump per batch: the whole batch becomes snapshot-visible
  // as a single logical commit.
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status IndexedRelation::AppendRow(const Row& row) {
  IDF_RETURN_NOT_OK(ValidateRow(*schema_, row));
  const Value& key = row[static_cast<size_t>(indexed_col_)];
  int target = key.is_null() ? 0 : partitioner_.PartitionOf(key);
  {
    std::lock_guard<std::mutex> lock(write_locks_[static_cast<size_t>(target)]);
    IDF_RETURN_NOT_OK(partitions_[static_cast<size_t>(target)]->Append(row));
  }
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status IndexedRelation::AddSecondaryIndex(const std::string& column,
                                          SecondaryIndexKind kind) {
  IDF_ASSIGN_OR_RETURN(int col, schema_->ResolveFieldIndex(column));
  const SecondaryIndexSpec spec{col, kind};
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::lock_guard<std::mutex> lock(write_locks_[p]);
    IDF_RETURN_NOT_OK(partitions_[p]->AddSecondaryIndexLocked(spec));
  }
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

SecondaryIndexKind IndexedRelation::secondary_index_kind(int column) const {
  for (const SecondaryIndexSpec& s : secondary_specs()) {
    if (s.column == column) return s.kind;
  }
  return SecondaryIndexKind::kNone;
}

uint64_t IndexedRelation::EstimateSecondaryMatches(
    const SecondaryProbe& probe) const {
  // Costing-only read: per-partition cut statistics via fresh views (O(1)
  // each, no locks).
  uint64_t est = 0;
  bool has_index = false;
  for (const auto& p : partitions_) {
    est += p->Snapshot().EstimateProbeMatches(probe, &has_index);
  }
  return est;
}

RowVec IndexedRelation::GetRows(const Value& key) const {
  if (key.is_null()) return {};
  int p = partitioner_.PartitionOf(key);
  return partitions_[static_cast<size_t>(p)]->GetRows(key);
}

IndexedRelationSnapshot IndexedRelation::Snapshot() const {
  std::vector<IndexedPartition::View> views;
  views.reserve(partitions_.size());
  for (const auto& p : partitions_) views.push_back(p->Snapshot());
  return IndexedRelationSnapshot(schema_, indexed_col_, partitioner_,
                                 std::move(views));
}

ChainStatsSnapshot IndexedRelation::ChainStats() const {
  ChainStatsSnapshot total;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    // The per-key stats map is appender-owned; serialize with writers.
    std::lock_guard<std::mutex> lock(write_locks_[p]);
    total.Merge(partitions_[p]->ChainStats());
  }
  return total;
}

size_t IndexedRelation::num_rows() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->num_rows();
  return n;
}

size_t IndexedRelation::data_bytes() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->data_bytes();
  return n;
}

size_t IndexedRelation::index_bytes() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->index_bytes();
  return n;
}

size_t IndexedRelation::arena_bytes() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->arena_bytes();
  return n;
}

}  // namespace idf
