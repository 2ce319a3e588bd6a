// IndexedRelation: a hash-partitioned collection of IndexedPartitions — the
// distributed Indexed DataFrame storage. Rows are routed to partitions by
// the hash of the indexed column ("hash partitioning scheme on the indexed
// key", paper §2), so a point lookup touches exactly one partition and an
// indexed join only shuffles the probe side.
//
// The write path is batch-oriented: AppendRows validates and encodes the
// whole batch off the partition locks (in parallel on multi-core hosts),
// groups rows by target partition, and applies each group under ONE write
// lock acquisition via IndexedPartition::AppendBatch — one version bump
// and one snapshot-visible commit per batch. A pre-encoded batch can be
// fanned out to several indexes without re-encoding (MultiIndexedTable).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/executor_context.h"
#include "engine/partitioner.h"
#include "indexed/indexed_partition.h"
#include "sql/logical_plan.h"

namespace idf {

class IndexedRelation;
using IndexedRelationPtr = std::shared_ptr<IndexedRelation>;
class Compactor;

/// One batch of rows encoded once (UnsafeRow layout, headers excluded),
/// reusable across every index of a table. `spans[i]` addresses row i's
/// bytes inside one of the chunk `buffers` (chunks are encoded in parallel
/// by EncodeRowBatch).
struct EncodedRowBatch {
  struct Span {
    uint32_t buffer;
    uint32_t offset;
    uint32_t size;
  };
  std::vector<std::vector<uint8_t>> buffers;
  std::vector<Span> spans;

  size_t num_rows() const { return spans.size(); }
  const uint8_t* payload(size_t i) const {
    const Span& s = spans[i];
    return buffers[s.buffer].data() + s.offset;
  }
  uint32_t size(size_t i) const { return spans[i].size; }
  size_t total_bytes() const;
};

/// Validates and encodes `rows` against `schema` in morsels of
/// `ExecutorContext::MorselGrain` rows on the context's pool. A batch of
/// more than one morsel is counted in metrics as rows_appended_parallel;
/// a smaller one is a single chunk that encodes inline on the caller.
Result<EncodedRowBatch> EncodeRowBatch(ExecutorContext& ctx, const Schema& schema,
                                       const RowVec& rows);

/// A consistent multi-partition read view (one View per partition).
class IndexedRelationSnapshot {
 public:
  const SchemaPtr& schema() const { return schema_; }
  int indexed_column() const { return indexed_col_; }
  const HashPartitioner& partitioner() const { return partitioner_; }
  int num_partitions() const { return static_cast<int>(views_.size()); }
  const IndexedPartition::View& view(int p) const {
    return views_[static_cast<size_t>(p)];
  }

  /// Point lookup: routes to the key's home partition.
  RowVec GetRows(const Value& key) const;

  size_t num_rows() const;

  /// Kind of the secondary index every per-partition view carries on
  /// `column` (kNone when any view lacks it — e.g. the snapshot raced an
  /// in-flight registration — so costing never overpromises).
  SecondaryIndexKind SecondaryKindOf(int column) const;

  /// Estimated probe matches summed across the per-partition views.
  uint64_t EstimateProbeMatches(const SecondaryProbe& probe) const;

 private:
  friend class IndexedRelation;
  IndexedRelationSnapshot(SchemaPtr schema, int indexed_col,
                          HashPartitioner partitioner,
                          std::vector<IndexedPartition::View> views)
      : schema_(std::move(schema)),
        indexed_col_(indexed_col),
        partitioner_(partitioner),
        views_(std::move(views)) {}

  SchemaPtr schema_;
  int indexed_col_;
  HashPartitioner partitioner_;
  std::vector<IndexedPartition::View> views_;
};

/// \brief A pinned, named version of an indexed relation. Reads against it
/// are frozen at the capture point while the live relation keeps growing;
/// as an IndexedRelationBase it plugs into the same plan nodes and
/// operators as the live relation.
class PinnedSnapshot : public IndexedRelationBase {
 public:
  /// `origin` identifies the relation the version was captured from
  /// (never dereferenced; SnapshotPins match on it).
  PinnedSnapshot(std::string name, uint64_t version,
                 IndexedRelationSnapshot snapshot,
                 const IndexedRelationBase* origin)
      : name_(std::move(name)),
        version_(version),
        snapshot_(std::move(snapshot)),
        origin_(origin) {}

  const std::string& name() const override { return name_; }
  const SchemaPtr& schema() const override { return snapshot_.schema(); }
  int indexed_column() const override { return snapshot_.indexed_column(); }
  int num_partitions() const override { return snapshot_.num_partitions(); }
  uint64_t version() const override { return version_; }
  size_t num_rows() const override { return snapshot_.num_rows(); }
  SecondaryIndexKind secondary_index_kind(int column) const override {
    return snapshot_.SecondaryKindOf(column);
  }
  uint64_t EstimateSecondaryMatches(const SecondaryProbe& probe) const override {
    return snapshot_.EstimateProbeMatches(probe);
  }

  const IndexedRelationSnapshot& snapshot() const { return snapshot_; }
  const IndexedRelationBase* origin() const { return origin_; }

  /// Point lookup against the frozen version.
  RowVec GetRows(const Value& key) const { return snapshot_.GetRows(key); }

 private:
  std::string name_;
  uint64_t version_;
  IndexedRelationSnapshot snapshot_;
  const IndexedRelationBase* origin_;
};
using PinnedSnapshotPtr = std::shared_ptr<PinnedSnapshot>;

/// \brief The versions one execution reads: a consistent set of pins of
/// live relations (the query service's epoch snapshot implements it).
/// Installed on an ExecutorContext, it makes every indexed read of a
/// pinned relation read the pin instead of a fresh snapshot.
class SnapshotPins {
 public:
  virtual ~SnapshotPins() = default;
  /// The pin of `relation`, or null when the set does not pin it.
  virtual const PinnedSnapshot* Find(const IndexedRelationBase& relation) const = 0;
};

class IndexedRelation : public IndexedRelationBase {
 public:
  /// Creates an empty indexed relation.
  static Result<IndexedRelationPtr> Make(std::string name, SchemaPtr schema,
                                         int indexed_col,
                                         const EngineConfig& config);

  /// Builds from rows: shuffles by indexed-key hash and bulk-appends into
  /// each partition in parallel (the paper's Index Creation operator).
  static Result<IndexedRelationPtr> Build(ExecutorContext& ctx, std::string name,
                                          SchemaPtr schema, int indexed_col,
                                          const RowVec& rows);

  // --- IndexedRelationBase ---
  const std::string& name() const override { return name_; }
  const SchemaPtr& schema() const override { return schema_; }
  int indexed_column() const override { return indexed_col_; }
  int num_partitions() const override {
    return static_cast<int>(partitions_.size());
  }
  size_t num_rows() const override;
  uint64_t version() const override {
    return version_.load(std::memory_order_acquire);
  }
  SecondaryIndexKind secondary_index_kind(int column) const override;
  uint64_t EstimateSecondaryMatches(const SecondaryProbe& probe) const override;

  const HashPartitioner& partitioner() const { return partitioner_; }

  /// Registers a secondary index (bitmap or range) on `column`, backfilled
  /// from existing rows; from then on every append batch maintains it
  /// inside the same per-partition lock acquisition. Thread-safe.
  Status AddSecondaryIndex(const std::string& column, SecondaryIndexKind kind);

  /// The secondary-index specs (partition 0 is authoritative; all
  /// partitions carry the same set).
  std::vector<SecondaryIndexSpec> secondary_specs() const {
    return partitions_.front()->secondary_specs();
  }

  /// Appends rows (fine-grained or batch — the paper supports both modes by
  /// batching rows in a DataFrame). Encodes the batch off the partition
  /// locks (in parallel when it spans several morsels), then
  /// applies each partition's group under one write-lock acquisition.
  /// Thread-safe; concurrent readers keep their snapshots.
  Status AppendRows(ExecutorContext& ctx, const RowVec& rows);

  /// Appends a batch that was already encoded (e.g. once per table, fanned
  /// out to every index). `rows` supplies the key values for routing and
  /// must be the batch `enc` was encoded from. Exactly rows.size() rows
  /// land or an error is returned.
  Status AppendEncoded(ExecutorContext& ctx, const RowVec& rows,
                       const EncodedRowBatch& enc);

  /// Appends a single row (lowest-latency fine-grained path).
  Status AppendRow(const Row& row);

  /// Point lookup against a fresh snapshot.
  RowVec GetRows(const Value& key) const;

  /// Captures a consistent O(num_partitions) read view.
  IndexedRelationSnapshot Snapshot() const;

  /// Captures a named, pinned version for time-travel reads.
  PinnedSnapshotPtr Pin() const {
    uint64_t v = version();
    return std::make_shared<PinnedSnapshot>(name_ + "@v" + std::to_string(v), v,
                                            Snapshot(), this);
  }

  /// Aggregated chain statistics across partitions (chain-length
  /// histogram, mean batch span — the compaction trigger signal). Takes
  /// each partition's write lock briefly.
  ChainStatsSnapshot ChainStats() const;

  /// Memory accounting (paper: "relatively low memory overhead").
  /// `index_bytes` counts live index structure; `arena_bytes` includes
  /// nodes retired by path-copying updates (held until destruction).
  size_t data_bytes() const;
  size_t index_bytes() const;
  size_t arena_bytes() const;

  const IndexedPartition& partition(int p) const {
    return *partitions_[static_cast<size_t>(p)];
  }

 private:
  friend class Compactor;  // takes partition write locks for compaction

  IndexedRelation(std::string name, SchemaPtr schema, int indexed_col,
                  const EngineConfig& config);

  std::mutex& partition_write_lock(int p) {
    return write_locks_[static_cast<size_t>(p)];
  }
  IndexedPartition& mutable_partition(int p) {
    return *partitions_[static_cast<size_t>(p)];
  }

  std::string name_;
  SchemaPtr schema_;
  int indexed_col_;
  HashPartitioner partitioner_;
  std::vector<std::unique_ptr<IndexedPartition>> partitions_;
  std::unique_ptr<std::mutex[]> write_locks_;
  std::atomic<uint64_t> version_{0};
};

}  // namespace idf
