// The Catalyst integration of the Indexed DataFrame (paper §2, "Integration
// with Catalyst"): index-aware optimization rules that translate regular
// logical operators over indexed relations into indexed logical operators,
// plus the physical strategy that lowers those to indexed execution.
// Queries that cannot use the index are untouched and fall back to regular
// Spark-style execution.
#pragma once

#include "sql/optimizer.h"
#include "sql/planner.h"
#include "sql/session.h"

namespace idf {

/// Filter(col = literal) over IndexedScan, where col is the indexed
/// column, becomes IndexedLookup (plus a residual Filter for any remaining
/// conjuncts).
class IndexedFilterRule : public OptimizerRule {
 public:
  std::string name() const override { return "IndexedEqualityFilter"; }
  Result<LogicalPlanPtr> Apply(const LogicalPlanPtr& node) const override;
};

/// Filter over IndexedScan whose conjuncts include bitmap or
/// range predicates on secondary-indexed columns becomes a SecondaryProbe
/// when index-kind costing says the cheapest probe's estimated selectivity
/// beats the vectorized scan (at most `max_selectivity`). Every candidate
/// under the threshold is absorbed as an ANDed probe (bitmap-AND at
/// execution); unconsumed conjuncts remain a residual Filter. Runs after
/// IndexedFilterRule, so a point lookup on the primary indexed column
/// always wins first.
class SecondaryIndexFilterRule : public OptimizerRule {
 public:
  explicit SecondaryIndexFilterRule(double max_selectivity)
      : max_selectivity_(max_selectivity) {}
  std::string name() const override { return "SecondaryIndexFilter"; }
  Result<LogicalPlanPtr> Apply(const LogicalPlanPtr& node) const override;

 private:
  double max_selectivity_;
};

/// Join with an IndexedScan on one side, keyed on the indexed column,
/// becomes IndexedJoin: the index is the build side, the other relation is
/// the probe side. When both sides qualify, the side facing the smaller
/// estimated probe builds.
class IndexedJoinRule : public OptimizerRule {
 public:
  std::string name() const override { return "IndexedEquiJoin"; }
  Result<LogicalPlanPtr> Apply(const LogicalPlanPtr& node) const override;
};

/// Lowers IndexedScan/IndexedLookup/IndexedJoin logical nodes to the
/// physical operators in indexed/indexed_operators.h. The probe side of an
/// indexed join is broadcast instead of shuffled when its estimated size
/// is under the session's broadcast threshold.
class IndexedExecutionStrategy : public PhysicalStrategy {
 public:
  std::string name() const override { return "IndexedExecution"; }
  Result<PhysicalOpPtr> Plan(const LogicalPlanPtr& node,
                             std::vector<PhysicalOpPtr> children,
                             const EngineConfig& config) const override;
};

/// Registers the rules and the strategy with `session` (idempotent). This
/// is what "importing the lightweight library" does to a Spark session.
void InstallIndexedExtensions(Session& session);

}  // namespace idf
