// Logical query plans, mirroring Catalyst's abstract representation: the
// analyzer binds names, optimization rules rewrite the tree, and the
// planner lowers it to physical operators.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/expression.h"
#include "storage/column_cache.h"
#include "types/row.h"
#include "types/schema.h"

namespace idf {

// ---------------------------------------------------------------------------
// Table handles
// ---------------------------------------------------------------------------

/// An un-cached, row-oriented table (models data freshly read from storage).
struct RawTable {
  std::string name;
  SchemaPtr schema;
  std::vector<RowVec> partitions;
  /// Actual in-memory size, filled at creation; 0 means "unknown" and the
  /// planner falls back to a schema-width heuristic.
  size_t approx_bytes = 0;
};
using RawTablePtr = std::shared_ptr<const RawTable>;

/// A cached, column-oriented table (models Spark's columnar RDD cache).
struct CachedTable {
  std::string name;
  SchemaPtr schema;
  std::vector<ColumnCachePtr> partitions;
  size_t approx_bytes = 0;

  size_t num_rows() const {
    size_t n = 0;
    for (const auto& p : partitions) n += p->num_rows();
    return n;
  }
};
using CachedTablePtr = std::shared_ptr<const CachedTable>;

/// Kind of a secondary index on a non-primary column of an indexed
/// relation. The primary cTrie hash index serves equality; bitmap indexes
/// serve equality/IN over low-cardinality columns; sorted range indexes
/// serve inequality and BETWEEN predicates.
enum class SecondaryIndexKind : uint8_t { kNone, kBitmap, kRange };

std::string SecondaryIndexKindToString(SecondaryIndexKind kind);

/// One secondary-index access path chosen by the index-kind costing rule:
/// either a key set (bitmap equality / IN) or a one- or two-sided range.
/// `selectivity` is the estimated fraction of rows the probe emits, filled
/// by the costing rule from index statistics.
struct SecondaryProbe {
  int column = -1;
  SecondaryIndexKind kind = SecondaryIndexKind::kNone;
  std::vector<Value> keys;     // bitmap probe: equality / IN key set
  std::optional<Value> lo;     // range probe bounds (either may be absent)
  std::optional<Value> hi;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  double selectivity = 1.0;

  std::string ToString() const;
};

/// \brief Interface to an indexed relation, implemented by the live
/// indexed::IndexedRelation and by a PinnedSnapshot of one. The SQL layer
/// sees only this surface so the dependency points from indexed/ to sql/
/// (the library "plugs in", like the paper's lightweight Spark library).
class IndexedRelationBase {
 public:
  virtual ~IndexedRelationBase() = default;

  virtual const std::string& name() const = 0;
  virtual const SchemaPtr& schema() const = 0;
  /// Ordinal of the indexed column.
  virtual int indexed_column() const = 0;
  /// Number of partitions (hash partitioning on the indexed column).
  virtual int num_partitions() const = 0;
  /// Total rows visible in the current version.
  virtual size_t num_rows() const = 0;
  /// Version counter; bumped by every append batch (MVCC snapshots).
  virtual uint64_t version() const = 0;
  /// Kind of the secondary index on `column` (kNone when it has none).
  virtual SecondaryIndexKind secondary_index_kind(int column) const {
    (void)column;
    return SecondaryIndexKind::kNone;
  }
  /// Estimated rows a secondary probe would emit, from index statistics
  /// (rows appended after the last published cut count as matches, keeping
  /// the estimate conservative). Default: everything matches.
  virtual uint64_t EstimateSecondaryMatches(const SecondaryProbe& probe) const {
    (void)probe;
    return num_rows();
  }
};
using IndexedRelationBasePtr = std::shared_ptr<IndexedRelationBase>;

// ---------------------------------------------------------------------------
// Plan nodes
// ---------------------------------------------------------------------------

enum class PlanKind : uint8_t {
  kScan,
  kCacheScan,
  kIndexedScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kTopK,
  kIndexedLookup,
  kIndexedJoin,
  kUnionAll,
  kSecondaryProbe,
};

std::string PlanKindToString(PlanKind kind);

class LogicalPlan;
using LogicalPlanPtr = std::shared_ptr<const LogicalPlan>;

/// \brief Immutable logical plan node.
///
/// `output_schema()` is null until the node has passed analysis; the
/// analyzer (sql/analyzer.h) produces fully annotated copies.
class LogicalPlan {
 public:
  virtual ~LogicalPlan() = default;

  PlanKind kind() const { return kind_; }
  const std::vector<LogicalPlanPtr>& children() const { return children_; }
  const SchemaPtr& output_schema() const { return output_schema_; }
  bool analyzed() const { return output_schema_ != nullptr; }

  /// Single-line description of this node (without children).
  virtual std::string ToString() const = 0;

  /// Multi-line indented rendering of the whole subtree.
  std::string TreeString() const;

  /// Returns a copy of this node with the given children (schema and other
  /// annotations preserved). Children must match in count.
  virtual LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const = 0;

 protected:
  LogicalPlan(PlanKind kind, std::vector<LogicalPlanPtr> children,
              SchemaPtr output_schema)
      : kind_(kind),
        children_(std::move(children)),
        output_schema_(std::move(output_schema)) {}

 private:
  void AppendTree(std::string* out, int indent) const;

  PlanKind kind_;
  std::vector<LogicalPlanPtr> children_;
  SchemaPtr output_schema_;
};

class ScanNode : public LogicalPlan {
 public:
  explicit ScanNode(RawTablePtr table)
      : LogicalPlan(PlanKind::kScan, {}, table->schema), table_(std::move(table)) {}

  const RawTablePtr& table() const { return table_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  RawTablePtr table_;
};

class CacheScanNode : public LogicalPlan {
 public:
  explicit CacheScanNode(CachedTablePtr table)
      : LogicalPlan(PlanKind::kCacheScan, {}, table->schema),
        table_(std::move(table)) {}

  const CachedTablePtr& table() const { return table_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  CachedTablePtr table_;
};

/// A scan of an indexed table. `paths` are the table's primary-index
/// relations in declaration order; all of them hold the same rows. The scan
/// reads the first; the indexed rules pick the path keyed on a lookup or
/// join column.
class IndexedScanNode : public LogicalPlan {
 public:
  explicit IndexedScanNode(std::vector<IndexedRelationBasePtr> paths)
      : LogicalPlan(PlanKind::kIndexedScan, {}, paths.front()->schema()),
        paths_(std::move(paths)) {}
  explicit IndexedScanNode(IndexedRelationBasePtr rel)
      : IndexedScanNode(std::vector<IndexedRelationBasePtr>{std::move(rel)}) {}

  const IndexedRelationBasePtr& relation() const { return paths_.front(); }
  const std::vector<IndexedRelationBasePtr>& paths() const { return paths_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  std::vector<IndexedRelationBasePtr> paths_;
};

class FilterNode : public LogicalPlan {
 public:
  FilterNode(LogicalPlanPtr child, ExprPtr predicate, SchemaPtr schema = nullptr)
      : LogicalPlan(PlanKind::kFilter, {std::move(child)},
                    schema ? std::move(schema) : nullptr),
        predicate_(std::move(predicate)) {}

  const ExprPtr& predicate() const { return predicate_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  ExprPtr predicate_;
};

class ProjectNode : public LogicalPlan {
 public:
  ProjectNode(LogicalPlanPtr child, std::vector<ExprPtr> exprs,
              std::vector<std::string> names, SchemaPtr schema = nullptr)
      : LogicalPlan(PlanKind::kProject, {std::move(child)}, std::move(schema)),
        exprs_(std::move(exprs)),
        names_(std::move(names)) {}

  const std::vector<ExprPtr>& exprs() const { return exprs_; }
  const std::vector<std::string>& names() const { return names_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
};

enum class JoinType : uint8_t { kInner, kLeftOuter };

std::string JoinTypeToString(JoinType type);

/// Equi-join on one key per side (inner or left-outer).
class JoinNode : public LogicalPlan {
 public:
  JoinNode(LogicalPlanPtr left, LogicalPlanPtr right, ExprPtr left_key,
           ExprPtr right_key, JoinType join_type = JoinType::kInner,
           SchemaPtr schema = nullptr)
      : LogicalPlan(PlanKind::kJoin, {std::move(left), std::move(right)},
                    std::move(schema)),
        left_key_(std::move(left_key)),
        right_key_(std::move(right_key)),
        join_type_(join_type) {}

  const LogicalPlanPtr& left() const { return children()[0]; }
  const LogicalPlanPtr& right() const { return children()[1]; }
  const ExprPtr& left_key() const { return left_key_; }
  const ExprPtr& right_key() const { return right_key_; }
  JoinType join_type() const { return join_type_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  ExprPtr left_key_;
  ExprPtr right_key_;
  JoinType join_type_;
};

enum class AggFn : uint8_t { kCountStar, kCount, kSum, kMin, kMax, kAvg };

std::string AggFnToString(AggFn fn);

struct AggSpec {
  AggFn fn;
  ExprPtr arg;  // null for kCountStar
  std::string out_name;
};

class AggregateNode : public LogicalPlan {
 public:
  AggregateNode(LogicalPlanPtr child, std::vector<ExprPtr> group_exprs,
                std::vector<std::string> group_names, std::vector<AggSpec> aggs,
                SchemaPtr schema = nullptr)
      : LogicalPlan(PlanKind::kAggregate, {std::move(child)}, std::move(schema)),
        group_exprs_(std::move(group_exprs)),
        group_names_(std::move(group_names)),
        aggs_(std::move(aggs)) {}

  const std::vector<ExprPtr>& group_exprs() const { return group_exprs_; }
  const std::vector<std::string>& group_names() const { return group_names_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  std::vector<ExprPtr> group_exprs_;
  std::vector<std::string> group_names_;
  std::vector<AggSpec> aggs_;
};

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

class SortNode : public LogicalPlan {
 public:
  SortNode(LogicalPlanPtr child, std::vector<SortKey> keys,
           SchemaPtr schema = nullptr)
      : LogicalPlan(PlanKind::kSort, {std::move(child)}, std::move(schema)),
        keys_(std::move(keys)) {}

  const std::vector<SortKey>& keys() const { return keys_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  std::vector<SortKey> keys_;
};

class LimitNode : public LogicalPlan {
 public:
  LimitNode(LogicalPlanPtr child, size_t n, SchemaPtr schema = nullptr)
      : LogicalPlan(PlanKind::kLimit, {std::move(child)}, std::move(schema)), n_(n) {}

  size_t n() const { return n_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  size_t n_;
};

/// Fused Limit(Sort(x)): the n smallest rows under the sort order, computed
/// with per-partition heaps instead of a global sort (Spark's
/// TakeOrderedAndProject). Produced by the CombineLimitSort rule.
class TopKNode : public LogicalPlan {
 public:
  TopKNode(LogicalPlanPtr child, std::vector<SortKey> keys, size_t n,
           SchemaPtr schema = nullptr)
      : LogicalPlan(PlanKind::kTopK, {std::move(child)}, std::move(schema)),
        keys_(std::move(keys)),
        n_(n) {}

  const std::vector<SortKey>& keys() const { return keys_; }
  size_t n() const { return n_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  std::vector<SortKey> keys_;
  size_t n_;
};

/// Bag union of two or more inputs with compatible schemas (no
/// deduplication, like SQL's UNION ALL).
class UnionAllNode : public LogicalPlan {
 public:
  explicit UnionAllNode(std::vector<LogicalPlanPtr> inputs,
                        SchemaPtr schema = nullptr)
      : LogicalPlan(PlanKind::kUnionAll, std::move(inputs), std::move(schema)) {}

  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;
};

/// Point lookup of one or more keys on an indexed relation: produced by
/// the indexed filter rule (rewriting `Filter(col = lit)` and
/// `Filter(col IN (...))` over an IndexedScan) or directly by the GetRows
/// API.
class IndexedLookupNode : public LogicalPlan {
 public:
  IndexedLookupNode(IndexedRelationBasePtr rel, Value key)
      : IndexedLookupNode(std::move(rel), std::vector<Value>{std::move(key)}) {}

  IndexedLookupNode(IndexedRelationBasePtr rel, std::vector<Value> keys,
                    std::vector<int> key_params = {})
      : LogicalPlan(PlanKind::kIndexedLookup, {}, rel->schema()),
        rel_(std::move(rel)),
        keys_(std::move(keys)),
        key_params_(std::move(key_params)) {}

  const IndexedRelationBasePtr& relation() const { return rel_; }
  const std::vector<Value>& keys() const { return keys_; }
  /// Parallel to keys(): key_params()[i] >= 0 marks keys()[i] as a
  /// prepared-statement placeholder filled from that parameter ordinal at
  /// execution time. Empty means "all keys are literals".
  const std::vector<int>& key_params() const { return key_params_; }
  /// Convenience for the single-key case.
  const Value& key() const { return keys_[0]; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  IndexedRelationBasePtr rel_;
  std::vector<Value> keys_;
  std::vector<int> key_params_;
};

/// Secondary-index probe (leaf): the rows of an indexed relation matching
/// a bitmap or range predicate on a secondary-indexed column. Produced by
/// the indexed filter rule's index-kind costing when the probe's estimated
/// selectivity beats the vectorized scan; the physical operator emits the
/// index's row positions as a selection vector feeding the usual
/// decode-survivors path.
class SecondaryProbeNode : public LogicalPlan {
 public:
  SecondaryProbeNode(IndexedRelationBasePtr rel,
                     std::vector<SecondaryProbe> probes)
      : LogicalPlan(PlanKind::kSecondaryProbe, {}, rel->schema()),
        rel_(std::move(rel)),
        probes_(std::move(probes)) {}

  const IndexedRelationBasePtr& relation() const { return rel_; }
  /// ANDed probes; the first is the costing-chosen driver (lowest
  /// selectivity), the rest intersect into it (bitmap-AND).
  const std::vector<SecondaryProbe>& probes() const { return probes_; }
  /// Smallest selectivity across the ANDed probes (the driver's).
  double selectivity() const {
    double s = 1.0;
    for (const SecondaryProbe& p : probes_) s = std::min(s, p.selectivity);
    return s;
  }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  IndexedRelationBasePtr rel_;
  std::vector<SecondaryProbe> probes_;
};

/// Indexed equi-join: the indexed relation is the (pre-built) build side;
/// the probe child is shuffled to the index's partitioning or broadcast.
class IndexedJoinNode : public LogicalPlan {
 public:
  /// `indexed_on_left` records which side of the original join the indexed
  /// relation was on, which fixes the output column order. `build_predicate`
  /// (may be null) is a filter on the indexed relation — bound to its
  /// schema — absorbed from a pushed-down Filter over the build-side scan;
  /// the physical join evaluates it against the encoded build rows during
  /// the chain walk.
  IndexedJoinNode(IndexedRelationBasePtr rel, LogicalPlanPtr probe,
                  ExprPtr probe_key, bool indexed_on_left,
                  SchemaPtr schema = nullptr, ExprPtr build_predicate = nullptr)
      : LogicalPlan(PlanKind::kIndexedJoin, {std::move(probe)}, std::move(schema)),
        rel_(std::move(rel)),
        probe_key_(std::move(probe_key)),
        indexed_on_left_(indexed_on_left),
        build_predicate_(std::move(build_predicate)) {}

  const IndexedRelationBasePtr& relation() const { return rel_; }
  const LogicalPlanPtr& probe() const { return children()[0]; }
  const ExprPtr& probe_key() const { return probe_key_; }
  bool indexed_on_left() const { return indexed_on_left_; }
  const ExprPtr& build_predicate() const { return build_predicate_; }
  std::string ToString() const override;
  LogicalPlanPtr WithChildren(std::vector<LogicalPlanPtr> children) const override;

 private:
  IndexedRelationBasePtr rel_;
  ExprPtr probe_key_;
  bool indexed_on_left_;
  ExprPtr build_predicate_;
};

}  // namespace idf
