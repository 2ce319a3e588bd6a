#include "sql/planner.h"

#include <algorithm>

#include "sql/physical_operators.h"

namespace idf {

Planner::Planner(EngineConfig config) : config_(config) {
  strategies_.push_back(std::make_shared<RegularExecutionStrategy>());
}

void Planner::AddStrategy(PhysicalStrategyPtr strategy) {
  strategies_.insert(strategies_.begin(), std::move(strategy));
}

Result<PhysicalOpPtr> Planner::Plan(const LogicalPlanPtr& plan) const {
  if (!plan->analyzed()) {
    return Status::InvalidArgument("physical planning requires an analyzed plan");
  }
  std::vector<PhysicalOpPtr> children;
  children.reserve(plan->children().size());
  for (const LogicalPlanPtr& child : plan->children()) {
    IDF_ASSIGN_OR_RETURN(PhysicalOpPtr c, Plan(child));
    children.push_back(std::move(c));
  }
  for (const PhysicalStrategyPtr& strategy : strategies_) {
    IDF_ASSIGN_OR_RETURN(PhysicalOpPtr op, strategy->Plan(plan, children, config_));
    if (op != nullptr) return op;
  }
  return Status::NotImplemented("no physical strategy handles plan node " +
                                plan->ToString());
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

namespace {
double SchemaWidthBytes(const Schema& schema) {
  double width = 8;  // row overhead
  for (const Field& f : schema.fields()) {
    width += f.type == TypeId::kString ? 24 : 8;
  }
  return width;
}
}  // namespace

double EstimateRows(const LogicalPlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto* node = static_cast<const ScanNode*>(plan.get());
      size_t n = 0;
      for (const RowVec& p : node->table()->partitions) n += p.size();
      return static_cast<double>(n);
    }
    case PlanKind::kCacheScan:
      return static_cast<double>(
          static_cast<const CacheScanNode*>(plan.get())->table()->num_rows());
    case PlanKind::kIndexedScan:
      return static_cast<double>(
          static_cast<const IndexedScanNode*>(plan.get())->relation()->num_rows());
    case PlanKind::kIndexedLookup:
      return 8;  // point lookup: a handful of rows per key
    case PlanKind::kSecondaryProbe: {
      const auto* probe = static_cast<const SecondaryProbeNode*>(plan.get());
      return probe->selectivity() *
             static_cast<double>(probe->relation()->num_rows());
    }
    case PlanKind::kFilter:
      return 0.3 * EstimateRows(plan->children()[0]);
    case PlanKind::kProject:
    case PlanKind::kSort:
      return EstimateRows(plan->children()[0]);
    case PlanKind::kLimit:
      return std::min(
          static_cast<double>(static_cast<const LimitNode*>(plan.get())->n()),
          EstimateRows(plan->children()[0]));
    case PlanKind::kTopK:
      return std::min(
          static_cast<double>(static_cast<const TopKNode*>(plan.get())->n()),
          EstimateRows(plan->children()[0]));
    case PlanKind::kAggregate:
      return std::max(1.0, 0.1 * EstimateRows(plan->children()[0]));
    case PlanKind::kJoin:
      return std::max(EstimateRows(plan->children()[0]),
                      EstimateRows(plan->children()[1]));
    case PlanKind::kIndexedJoin:
      return EstimateRows(plan->children()[0]);
    case PlanKind::kUnionAll: {
      double total = 0;
      for (const LogicalPlanPtr& c : plan->children()) total += EstimateRows(c);
      return total;
    }
  }
  return 1e9;
}

double EstimateBytes(const LogicalPlanPtr& plan) {
  // Leaf tables know their actual size; derived plans scale the child's
  // estimate by the row-count ratio, which keeps wide-string tables from
  // being misjudged by the schema-width heuristic.
  switch (plan->kind()) {
    case PlanKind::kScan: {
      size_t b = static_cast<const ScanNode*>(plan.get())->table()->approx_bytes;
      if (b > 0) return static_cast<double>(b);
      break;
    }
    case PlanKind::kCacheScan: {
      size_t b =
          static_cast<const CacheScanNode*>(plan.get())->table()->approx_bytes;
      if (b > 0) return static_cast<double>(b);
      break;
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kTopK:
    case PlanKind::kAggregate: {
      double child_rows = EstimateRows(plan->children()[0]);
      if (child_rows > 0) {
        return EstimateBytes(plan->children()[0]) * EstimateRows(plan) /
               child_rows;
      }
      break;
    }
    default:
      break;
  }
  const SchemaPtr& schema = plan->output_schema();
  double width = schema ? SchemaWidthBytes(*schema) : 64.0;
  return EstimateRows(plan) * width;
}

// ---------------------------------------------------------------------------
// Regular execution strategy
// ---------------------------------------------------------------------------

Result<PhysicalOpPtr> RegularExecutionStrategy::Plan(
    const LogicalPlanPtr& node, std::vector<PhysicalOpPtr> children,
    const EngineConfig& config) const {
  switch (node->kind()) {
    case PlanKind::kScan:
      return PhysicalOpPtr(std::make_shared<RowSourceOp>(
          static_cast<const ScanNode*>(node.get())->table()));

    case PlanKind::kCacheScan:
      return PhysicalOpPtr(std::make_shared<CacheScanOp>(
          static_cast<const CacheScanNode*>(node.get())->table()));

    case PlanKind::kFilter:
      return PhysicalOpPtr(std::make_shared<FilterOp>(
          children[0], static_cast<const FilterNode*>(node.get())->predicate()));

    case PlanKind::kProject:
      return PhysicalOpPtr(std::make_shared<ProjectOp>(
          children[0], static_cast<const ProjectNode*>(node.get())->exprs(),
          node->output_schema()));

    case PlanKind::kJoin: {
      const auto* join = static_cast<const JoinNode*>(node.get());
      double left_bytes = EstimateBytes(join->left());
      double right_bytes = EstimateBytes(join->right());
      double threshold = static_cast<double>(config.broadcast_threshold_bytes);
      const bool left_outer = join->join_type() == JoinType::kLeftOuter;
      // A left-outer join can only broadcast its right side (the outer
      // side must stay partitioned so unmatched rows emit exactly once).
      bool can_broadcast =
          left_outer ? right_bytes <= threshold
                     : std::min(left_bytes, right_bytes) <= threshold;
      if (can_broadcast) {
        bool broadcast_left = !left_outer && left_bytes <= right_bytes;
        return PhysicalOpPtr(std::make_shared<BroadcastHashJoinOp>(
            children[0], children[1], join->left_key(), join->right_key(),
            broadcast_left, node->output_schema(), join->join_type()));
      }
      if (config.prefer_sort_merge_join) {
        // Spark's default for two un-broadcastable relations.
        return PhysicalOpPtr(std::make_shared<SortMergeJoinOp>(
            children[0], children[1], join->left_key(), join->right_key(),
            node->output_schema(), join->join_type()));
      }
      return PhysicalOpPtr(std::make_shared<ShuffledHashJoinOp>(
          children[0], children[1], join->left_key(), join->right_key(),
          node->output_schema(), join->join_type()));
    }

    case PlanKind::kAggregate: {
      const auto* agg = static_cast<const AggregateNode*>(node.get());
      return PhysicalOpPtr(std::make_shared<HashAggregateOp>(
          children[0], agg->group_exprs(), agg->aggs(), node->output_schema()));
    }

    case PlanKind::kSort:
      return PhysicalOpPtr(std::make_shared<SortOp>(
          children[0], static_cast<const SortNode*>(node.get())->keys()));

    case PlanKind::kLimit:
      return PhysicalOpPtr(std::make_shared<LimitOp>(
          children[0], static_cast<const LimitNode*>(node.get())->n()));

    case PlanKind::kTopK: {
      const auto* topk = static_cast<const TopKNode*>(node.get());
      return PhysicalOpPtr(
          std::make_shared<TopKOp>(children[0], topk->keys(), topk->n()));
    }

    case PlanKind::kUnionAll:
      return PhysicalOpPtr(
          std::make_shared<UnionAllOp>(std::move(children), node->output_schema()));

    case PlanKind::kIndexedScan:
    case PlanKind::kIndexedLookup:
    case PlanKind::kIndexedJoin:
      // Handled by the indexed execution strategy; not installed here.
      return PhysicalOpPtr(nullptr);
  }
  return PhysicalOpPtr(nullptr);
}

}  // namespace idf
