// Indexed physical operators: the execution layer the paper's Catalyst
// rules dispatch to — IndexedScan (full scan of the row batches),
// IndexLookup (cTrie point lookup), and IndexedEquiJoin (probe-side-only
// shuffle or broadcast against the pre-built index).
//
// Every operator holds only the relation it reads and picks the version
// at Execute: the pin the ExecutorContext carries for that relation, a
// PinnedSnapshot's frozen version, or else a snapshot captured on entry.
// Live and pinned reads therefore share one set of operators.
#pragma once

#include <optional>

#include "indexed/indexed_relation.h"
#include "sql/physical_operators.h"
#include "sql/physical_plan.h"
#include "sql/predicate_compiler.h"

namespace idf {

/// A filter pushed into a physical read path: an optional compiled program
/// evaluated against the encoded payload (rejected rows are never decoded)
/// plus an optional interpreter residual evaluated on the decoded row. A
/// row survives iff the compiled part Matches() and the residual is TRUE.
struct PushedFilter {
  std::optional<CompiledPredicate> compiled;
  ExprPtr residual;

  bool has_any() const { return compiled.has_value() || residual != nullptr; }

  /// True when either part still references prepared-statement parameters
  /// and must be Bind()-ed before rows are evaluated.
  bool has_params() const {
    return (compiled.has_value() && compiled->has_params()) ||
           (residual != nullptr && ExprHasParameters(residual));
  }

  /// Returns a copy with the compiled program's immediate slots patched
  /// (CompiledPredicate::BindParams — no recompilation) and the residual's
  /// ParameterRefs substituted with literals.
  Result<PushedFilter> Bind(const std::vector<Value>& params) const;

  static PushedFilter FromSplit(PredicateSplit split) {
    return PushedFilter{std::move(split.compiled), std::move(split.residual)};
  }
};

/// Full scan of an indexed relation's row batches (decodes binary rows:
/// the row-major representation the paper notes is slower to project than
/// Spark's columnar cache).
class IndexedScanOp : public PhysicalOp {
 public:
  explicit IndexedScanOp(IndexedRelationBasePtr rel)
      : PhysicalOp(rel->schema()), rel_(std::move(rel)) {}
  std::string name() const override { return "IndexedScan[" + rel_->name() + "]"; }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  IndexedRelationBasePtr rel_;
};

/// Fused scan + compiled filter over the row batches: the compiled program
/// runs against the encoded payload (rows it rejects are never decoded),
/// the interpreter residual — if any — runs on the decoded survivors, and
/// only matches materialize (optionally just the projected columns). This
/// is the lazy-decoding advantage of the binary row layout; the planner
/// fuses `[Project over] Filter(pred)` over an IndexedScan into this
/// operator whenever at least one conjunct of the predicate compiles.
class IndexedScanFilterOp : public PhysicalOp {
 public:
  /// `project_cols` empty means "all columns" (then `schema` must be the
  /// relation's schema).
  IndexedScanFilterOp(IndexedRelationBasePtr rel, ExprPtr predicate,
                      PushedFilter filter, std::vector<int> project_cols = {},
                      SchemaPtr schema = nullptr)
      : PhysicalOp(schema ? std::move(schema) : rel->schema()),
        rel_(std::move(rel)),
        predicate_(std::move(predicate)),
        filter_(std::move(filter)),
        project_cols_(std::move(project_cols)) {}
  std::string name() const override {
    return "IndexedScanFilter[" + rel_->name() + "] " + predicate_->ToString() +
           (filter_.compiled ? " (compiled)" : "") +
           (project_cols_.empty() ? "" : " (pruned)");
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  IndexedRelationBasePtr rel_;
  ExprPtr predicate_;
  PushedFilter filter_;
  std::vector<int> project_cols_;
};

/// Secondary-index probe: per partition, the view's bitmap or range index
/// yields the matching row positions (several ANDed probes intersect their
/// sorted position lists — the bitmap-AND path), the store's row directory
/// resolves positions to encoded payloads, and a linear suffix scan covers
/// rows appended after the index cut. The survivors feed the same pushed
/// filter + projection machinery as the fused scan. Views lacking the
/// index fall back to a full scan of that partition, so results never
/// depend on index registration racing a query.
class SecondaryIndexProbeOp : public PhysicalOp {
 public:
  /// `probes` ordered driver-first (lowest selectivity); `predicate` is the
  /// original full filter predicate (for display), `filter` the residual
  /// not implied by the probes. `project_cols` empty means "all columns".
  SecondaryIndexProbeOp(IndexedRelationBasePtr rel,
                        std::vector<SecondaryProbe> probes, ExprPtr predicate,
                        PushedFilter filter,
                        std::vector<int> project_cols = {},
                        SchemaPtr schema = nullptr)
      : PhysicalOp(schema ? std::move(schema) : rel->schema()),
        rel_(std::move(rel)),
        probes_(std::move(probes)),
        predicate_(std::move(predicate)),
        filter_(std::move(filter)),
        project_cols_(std::move(project_cols)) {}
  std::string name() const override;
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  IndexedRelationBasePtr rel_;
  std::vector<SecondaryProbe> probes_;
  ExprPtr predicate_;
  PushedFilter filter_;
  std::vector<int> project_cols_;
};

/// Fused scan + column projection over the row batches: decodes only the
/// projected columns per row (column pruning for the row store).
class IndexedScanProjectOp : public PhysicalOp {
 public:
  IndexedScanProjectOp(IndexedRelationBasePtr rel, std::vector<int> cols,
                       SchemaPtr schema)
      : PhysicalOp(std::move(schema)),
        rel_(std::move(rel)),
        cols_(std::move(cols)) {}
  std::string name() const override {
    return "IndexedScanProject[" + rel_->name() + "]";
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  IndexedRelationBasePtr rel_;
  std::vector<int> cols_;
};

/// Fused scan + compiled filter + morsel-parallel partial aggregation over
/// encoded rows: the compiled predicate rejects rows on the payload bytes,
/// then group keys and aggregate inputs are read straight from the
/// surviving payloads via CompiledAccessor — a row whose groups and inputs
/// are all fixed-slot column refs is aggregated without ever materializing
/// a decoded Row (counted in rows_aggregated_encoded). Non-column-ref
/// aggregate args and interpreter residuals decode lazily, once per row.
/// Thread-local partial hash tables per morsel feed the hash-partitioned
/// parallel merge of MergePartialGroups. The planner fuses
/// `Aggregate([Filter] over IndexedScan)` into this operator.
class IndexedScanAggregateOp : public PhysicalOp {
 public:
  /// `predicate` is the original filter predicate (may be null when the
  /// aggregate sits directly on the scan); `schema` is the aggregate's
  /// output schema (group columns then aggregate columns).
  IndexedScanAggregateOp(IndexedRelationBasePtr rel, ExprPtr predicate,
                         PushedFilter filter, std::vector<ExprPtr> group_exprs,
                         std::vector<AggSpec> aggs, SchemaPtr schema)
      : PhysicalOp(std::move(schema)),
        rel_(std::move(rel)),
        predicate_(std::move(predicate)),
        filter_(std::move(filter)),
        group_exprs_(std::move(group_exprs)),
        aggs_(std::move(aggs)) {}
  std::string name() const override {
    return "IndexedScanAggregate[" + rel_->name() + "]" +
           (predicate_ ? " " + predicate_->ToString() : "") +
           (filter_.compiled ? " (compiled)" : "");
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  IndexedRelationBasePtr rel_;
  ExprPtr predicate_;
  PushedFilter filter_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
};

/// Point lookup of one or more keys: each key routes to its home partition
/// and the backward-pointer chain is walked. A consistent snapshot covers
/// all keys of a multi-key (IN-list) lookup. A pushed residual filter is
/// applied during the chain walk while the node is cache-hot (the compiled
/// part before decoding, the interpreted part on the decoded row).
class IndexLookupOp : public PhysicalOp {
 public:
  /// `key_params` parallels `keys`: entry i >= 0 marks keys[i] as a
  /// placeholder filled from that prepared-statement parameter ordinal at
  /// execution time (empty = all literal keys).
  IndexLookupOp(IndexedRelationBasePtr rel, std::vector<Value> keys,
                PushedFilter filter = {}, std::vector<int> key_params = {})
      : PhysicalOp(rel->schema()),
        rel_(std::move(rel)),
        keys_(std::move(keys)),
        filter_(std::move(filter)),
        key_params_(std::move(key_params)) {}
  std::string name() const override {
    std::string out = "IndexLookup[" + rel_->name() + "] key=";
    if (filter_.has_any()) out = "Filtered" + out;
    auto render = [this](size_t i) {
      return (i < key_params_.size() && key_params_[i] >= 0)
                 ? "$" + std::to_string(key_params_[i] + 1)
                 : keys_[i].ToString();
    };
    if (keys_.size() == 1) return out + render(0);
    return out + "{" + std::to_string(keys_.size()) + " keys}";
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  IndexedRelationBasePtr rel_;
  std::vector<Value> keys_;
  PushedFilter filter_;
  std::vector<int> key_params_;
};

/// Indexed equi-join. The indexed relation is always the build side ("as it
/// is actually pre-built due to the index"); the probe side is shuffled to
/// the index's hash partitioning, or — when small enough to broadcast
/// efficiently — broadcast to all partitions (paper §2, Indexed Join).
/// An optional build-side filter (from a pushed-down predicate on the
/// indexed relation) runs against the encoded build row during the chain
/// walk, before the row is decoded or concatenated.
class IndexedJoinOp : public PhysicalOp {
 public:
  IndexedJoinOp(IndexedRelationBasePtr rel, PhysicalOpPtr probe,
                ExprPtr probe_key, bool indexed_on_left, bool broadcast_probe,
                SchemaPtr schema, PushedFilter build_filter = {})
      : PhysicalOp(std::move(schema), {probe}),
        rel_(std::move(rel)),
        probe_key_(std::move(probe_key)),
        indexed_on_left_(indexed_on_left),
        broadcast_probe_(broadcast_probe),
        build_filter_(std::move(build_filter)) {}
  std::string name() const override {
    return std::string("IndexedEquiJoin[") + rel_->name() + "] (" +
           (broadcast_probe_ ? "broadcast" : "shuffled") + " probe)" +
           (build_filter_.has_any() ? " (build filtered)" : "");
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  IndexedRelationBasePtr rel_;
  ExprPtr probe_key_;
  bool indexed_on_left_;
  bool broadcast_probe_;
  PushedFilter build_filter_;
};

}  // namespace idf
