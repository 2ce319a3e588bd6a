#include "indexed/indexed_rules.h"

#include <algorithm>

#include "indexed/indexed_operators.h"
#include "sql/compiled_accessor.h"
#include "sql/index_costing.h"

namespace idf {

namespace {

/// Flattens an AND tree into conjuncts.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kLogical &&
      static_cast<const LogicalExpr*>(expr.get())->op() == LogicalOp::kAnd) {
    CollectConjuncts(expr->children()[0], out);
    CollectConjuncts(expr->children()[1], out);
    return;
  }
  out->push_back(expr);
}

ExprPtr ConjoinAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) acc = And(acc, conjuncts[i]);
  return acc;
}

/// True if `key` is a plain reference to the indexed column of `rel`.
bool KeyIsIndexedColumn(const ExprPtr& key, const IndexedRelationBasePtr& rel) {
  if (key->kind() != ExprKind::kColumnRef) return false;
  const auto* ref = static_cast<const ColumnRefExpr*>(key.get());
  return ref->bound() && ref->index() == rel->indexed_column();
}

/// Matches an OR-tree of `col = literal` / `col = $n` comparisons all on
/// column `want_col` (the desugared form of `col IN (...)`), collecting
/// the literals. A parameter equality contributes a placeholder key plus
/// its ordinal in `key_params` (literal keys record -1), to be resolved
/// from the bound parameters at execution time.
bool MatchInList(const ExprPtr& expr, int want_col, std::vector<Value>* keys,
                 std::vector<int>* key_params, bool* any_param) {
  if (expr->kind() == ExprKind::kLogical &&
      static_cast<const LogicalExpr*>(expr.get())->op() == LogicalOp::kOr) {
    return MatchInList(expr->children()[0], want_col, keys, key_params,
                       any_param) &&
           MatchInList(expr->children()[1], want_col, keys, key_params,
                       any_param);
  }
  int col = -1;
  Value literal;
  if (MatchEqualityFilter(expr, &col, &literal)) {
    if (col != want_col) return false;
    keys->push_back(std::move(literal));
    key_params->push_back(-1);
    return true;
  }
  // `col = $n` (either order): the lookup key arrives with the bindings.
  if (expr->kind() != ExprKind::kComparison) return false;
  const auto* cmp = static_cast<const ComparisonExpr*>(expr.get());
  if (cmp->op() != CompareOp::kEq) return false;
  const ExprPtr& l = cmp->left();
  const ExprPtr& r = cmp->right();
  const ExprPtr& col_side = l->kind() == ExprKind::kColumnRef ? l : r;
  const ExprPtr& param_side = l->kind() == ExprKind::kColumnRef ? r : l;
  if (col_side->kind() != ExprKind::kColumnRef ||
      param_side->kind() != ExprKind::kParameterRef) {
    return false;
  }
  const auto* ref = static_cast<const ColumnRefExpr*>(col_side.get());
  if (!ref->bound() || ref->index() != want_col) return false;
  keys->push_back(Value());  // placeholder, filled at bind time
  key_params->push_back(
      static_cast<const ParameterRefExpr*>(param_side.get())->ordinal());
  *any_param = true;
  return true;
}

}  // namespace

Result<LogicalPlanPtr> IndexedFilterRule::Apply(const LogicalPlanPtr& node) const {
  if (node->kind() != PlanKind::kFilter) return LogicalPlanPtr(nullptr);
  const auto* filter = static_cast<const FilterNode*>(node.get());
  const LogicalPlanPtr& child = filter->children()[0];
  if (child->kind() != PlanKind::kIndexedScan) return LogicalPlanPtr(nullptr);

  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(filter->predicate(), &conjuncts);
  // Access paths in declaration order: the first one whose key a conjunct
  // names serves the lookup; every other conjunct stays the residual.
  for (const IndexedRelationBasePtr& rel :
       static_cast<const IndexedScanNode*>(child.get())->paths()) {
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      // Single equality, or an OR-of-equalities on the indexed column (the
      // desugared `col IN (...)`) — both become (multi-key) index lookups.
      // Prepared-statement parameter equalities become placeholder key slots.
      std::vector<Value> keys;
      std::vector<int> key_params;
      bool any_param = false;
      if (!MatchInList(conjuncts[i], rel->indexed_column(), &keys, &key_params,
                       &any_param)) {
        continue;
      }
      if (!any_param) key_params.clear();
      LogicalPlanPtr lookup = std::make_shared<IndexedLookupNode>(
          rel, std::move(keys), std::move(key_params));
      std::vector<ExprPtr> rest;
      for (size_t j = 0; j < conjuncts.size(); ++j) {
        if (j != i) rest.push_back(conjuncts[j]);
      }
      if (rest.empty()) return lookup;
      return LogicalPlanPtr(std::make_shared<FilterNode>(
          std::move(lookup), ConjoinAll(rest), node->output_schema()));
    }
  }
  return LogicalPlanPtr(nullptr);
}

Result<LogicalPlanPtr> SecondaryIndexFilterRule::Apply(
    const LogicalPlanPtr& node) const {
  if (max_selectivity_ <= 0.0) return LogicalPlanPtr(nullptr);
  if (node->kind() != PlanKind::kFilter) return LogicalPlanPtr(nullptr);
  const auto* filter = static_cast<const FilterNode*>(node.get());
  const LogicalPlanPtr& child = filter->children()[0];
  if (child->kind() != PlanKind::kIndexedScan) return LogicalPlanPtr(nullptr);
  const IndexedRelationBasePtr& rel =
      static_cast<const IndexedScanNode*>(child.get())->relation();
  const size_t total_rows = rel->num_rows();

  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(filter->predicate(), &conjuncts);
  auto kind_of = [&rel](int col) { return rel->secondary_index_kind(col); };
  std::vector<SecondaryProbeCandidate> candidates =
      CollectSecondaryProbeCandidates(conjuncts, *rel->schema(), kind_of);
  if (candidates.empty()) return LogicalPlanPtr(nullptr);

  // Index-kind costing: estimated matches from the index statistics become
  // a selectivity per candidate; the probe only beats the vectorized
  // scan's sequential bandwidth when selective enough.
  for (SecondaryProbeCandidate& c : candidates) {
    const uint64_t est = rel->EstimateSecondaryMatches(c.probe);
    c.probe.selectivity =
        total_rows == 0
            ? 0.0
            : std::min(1.0, static_cast<double>(est) /
                                static_cast<double>(total_rows));
  }
  const int driver = ChooseSecondaryProbe(candidates, max_selectivity_);
  if (driver < 0) return LogicalPlanPtr(nullptr);

  // Absorb the driver plus every other candidate under the threshold as
  // ANDed probes (sorted-position intersection — the bitmap-AND path).
  std::vector<SecondaryProbe> probes;
  std::vector<bool> consumed(conjuncts.size(), false);
  auto absorb = [&](SecondaryProbeCandidate& c) {
    for (size_t ord : c.consumed) {
      if (consumed[ord]) return;  // conjunct already served by another probe
    }
    for (size_t ord : c.consumed) consumed[ord] = true;
    probes.push_back(std::move(c.probe));
  };
  absorb(candidates[static_cast<size_t>(driver)]);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (static_cast<int>(i) == driver) continue;
    if (candidates[i].probe.selectivity <= max_selectivity_) {
      absorb(candidates[i]);
    }
  }
  if (probes.empty()) return LogicalPlanPtr(nullptr);

  LogicalPlanPtr probe_node =
      std::make_shared<SecondaryProbeNode>(rel, std::move(probes));
  std::vector<ExprPtr> rest;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!consumed[i]) rest.push_back(conjuncts[i]);
  }
  if (rest.empty()) return probe_node;
  return LogicalPlanPtr(std::make_shared<FilterNode>(
      std::move(probe_node), ConjoinAll(rest), node->output_schema()));
}

namespace {

/// Matches a join side that is an IndexedScan with an access path keyed on
/// `key`, possibly under a Filter (whose predicate is then bound to the
/// relation's own schema, since the FilterNode's child is the scan). A
/// matched filter becomes the join's build-side predicate, evaluated
/// against the encoded build rows during the chain walk instead of as a
/// separate pass over a materialized scan.
bool MatchBuildSide(const LogicalPlanPtr& side, const ExprPtr& key,
                    IndexedRelationBasePtr* rel, ExprPtr* build_pred) {
  const bool filtered = side->kind() == PlanKind::kFilter;
  const LogicalPlanPtr& scan = filtered ? side->children()[0] : side;
  if (scan->kind() != PlanKind::kIndexedScan) return false;
  for (const IndexedRelationBasePtr& path :
       static_cast<const IndexedScanNode*>(scan.get())->paths()) {
    if (!KeyIsIndexedColumn(key, path)) continue;
    *rel = path;
    *build_pred = filtered
                      ? static_cast<const FilterNode*>(side.get())->predicate()
                      : nullptr;
    return true;
  }
  return false;
}

}  // namespace

Result<LogicalPlanPtr> IndexedJoinRule::Apply(const LogicalPlanPtr& node) const {
  if (node->kind() != PlanKind::kJoin) return LogicalPlanPtr(nullptr);
  const auto* join = static_cast<const JoinNode*>(node.get());
  // Indexed execution serves inner equi-joins; outer joins fall back.
  if (join->join_type() != JoinType::kInner) return LogicalPlanPtr(nullptr);

  // "In case of the indexed join, the indexed relation is always the build
  //  side". A Filter over the build-side scan is absorbed as the join's
  //  build predicate (children are optimized before parents, so an
  //  indexed-column equality filter has already become a lookup and no
  //  longer matches here). When both sides are indexed on their keys, the
  //  build is the side whose opposite (the probe, which is shuffled or
  //  broadcast and walked row by row) is estimated smaller; ties keep the
  //  left side.
  IndexedRelationBasePtr left_rel, right_rel;
  ExprPtr left_pred, right_pred;
  const bool left_ok =
      MatchBuildSide(join->left(), join->left_key(), &left_rel, &left_pred);
  const bool right_ok =
      MatchBuildSide(join->right(), join->right_key(), &right_rel, &right_pred);
  if (right_ok && (!left_ok || EstimateRows(join->left()) <
                                   EstimateRows(join->right()))) {
    return LogicalPlanPtr(std::make_shared<IndexedJoinNode>(
        right_rel, join->left(), join->left_key(), /*indexed_on_left=*/false,
        node->output_schema(), std::move(right_pred)));
  }
  if (left_ok) {
    return LogicalPlanPtr(std::make_shared<IndexedJoinNode>(
        left_rel, join->right(), join->right_key(), /*indexed_on_left=*/true,
        node->output_schema(), std::move(left_pred)));
  }
  return LogicalPlanPtr(nullptr);
}

namespace {

/// If every projection expression is a bound column reference, fills
/// `cols` with their ordinals.
bool AllColumnRefs(const std::vector<ExprPtr>& exprs, std::vector<int>* cols) {
  cols->clear();
  for (const ExprPtr& e : exprs) {
    if (e->kind() != ExprKind::kColumnRef) return false;
    const auto* ref = static_cast<const ColumnRefExpr*>(e.get());
    if (!ref->bound()) return false;
    cols->push_back(ref->index());
  }
  return true;
}

/// The relation under an IndexedScan leaf (the fused operators' input),
/// else null.
IndexedRelationBasePtr ScanRelation(const LogicalPlanPtr& node) {
  if (node->kind() != PlanKind::kIndexedScan) return nullptr;
  return static_cast<const IndexedScanNode*>(node.get())->relation();
}

/// `node` as a SecondaryProbe leaf, else null.
const SecondaryProbeNode* AsProbe(const LogicalPlanPtr& node) {
  if (node->kind() != PlanKind::kSecondaryProbe) return nullptr;
  return static_cast<const SecondaryProbeNode*>(node.get());
}

/// True when the aggregate can run on encoded payloads: every group
/// expression is a bound column ref (read via CompiledAccessor), and no
/// SUM/AVG takes a string column ref (those would fold raw slot bytes as
/// numbers — they fall back to the generic operator, which surfaces the
/// interpreter's behavior). Non-column-ref aggregate arguments are fine:
/// the fused operator lazily decodes the row for those.
bool AggregateIsFusable(const AggregateNode* agg, const Schema& schema) {
  for (const ExprPtr& g : agg->group_exprs()) {
    if (!CompiledAccessor::FromExpr(g, schema)) return false;
  }
  for (const AggSpec& spec : agg->aggs()) {
    if (spec.fn == AggFn::kCountStar) continue;
    auto acc = CompiledAccessor::FromExpr(spec.arg, schema);
    if (acc && (spec.fn == AggFn::kSum || spec.fn == AggFn::kAvg) &&
        acc->type() == TypeId::kString) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<PhysicalOpPtr> IndexedExecutionStrategy::Plan(
    const LogicalPlanPtr& node, std::vector<PhysicalOpPtr> children,
    const EngineConfig& config) const {
  // Fuse Aggregate over an IndexedScan — or over a Filter over one — into
  // a morsel-parallel scan-aggregate that reads group keys and aggregate
  // inputs straight from the encoded payloads. With a filter in between,
  // the same compiled-predicate gate as the scan-filter fusion applies: at
  // least one conjunct must compile, so survivor rows are selected on the
  // payload bytes and flow into the partial tables without a decoded
  // intermediate.
  if (node->kind() == PlanKind::kAggregate) {
    const auto* agg = static_cast<const AggregateNode*>(node.get());
    const LogicalPlanPtr& child = node->children()[0];
    const bool filtered = child->kind() == PlanKind::kFilter;
    IndexedRelationBasePtr rel = ScanRelation(filtered ? child->children()[0] : child);
    if (rel == nullptr || !AggregateIsFusable(agg, *rel->schema())) {
      return PhysicalOpPtr(nullptr);
    }
    if (!filtered) {
      return PhysicalOpPtr(std::make_shared<IndexedScanAggregateOp>(
          std::move(rel), nullptr, PushedFilter{}, agg->group_exprs(), agg->aggs(),
          node->output_schema()));
    }
    const ExprPtr& predicate = static_cast<const FilterNode*>(child.get())->predicate();
    PredicateSplit split = SplitForCompilation(predicate, *rel->schema());
    if (!split.compiled.has_value()) return PhysicalOpPtr(nullptr);
    return PhysicalOpPtr(std::make_shared<IndexedScanAggregateOp>(
        std::move(rel), predicate, PushedFilter::FromSplit(std::move(split)),
        agg->group_exprs(), agg->aggs(), node->output_schema()));
  }
  // Fuse a Filter directly over an IndexedScan into a lazy-decoding
  // scan-filter whenever at least one conjunct of the predicate compiles
  // to an encoded-row program (the index itself only serves equality on
  // the indexed column; that case was already rewritten to IndexedLookup
  // by the optimizer rule and never reaches this branch). A filter over a
  // lookup pushes into the chain walk instead. Predicates where nothing
  // compiles (LIKE, arithmetic, col-vs-col) fall back to the generic
  // FilterOp over the scan.
  if (node->kind() == PlanKind::kFilter) {
    const ExprPtr& predicate = static_cast<const FilterNode*>(node.get())->predicate();
    const LogicalPlanPtr& child = node->children()[0];
    if (IndexedRelationBasePtr rel = ScanRelation(child)) {
      PredicateSplit split = SplitForCompilation(predicate, *rel->schema());
      if (!split.compiled.has_value()) return PhysicalOpPtr(nullptr);
      return PhysicalOpPtr(std::make_shared<IndexedScanFilterOp>(
          std::move(rel), predicate, PushedFilter::FromSplit(std::move(split))));
    }
    if (const SecondaryProbeNode* probe = AsProbe(child)) {
      // Push the residual filter into the probe operator: the compiled
      // part gates survivors on the encoded payload, the interpreter rest
      // runs on the decoded row. No compilation gate — the probe already
      // restricted the row set, so even a fully interpreted residual over
      // few survivors beats a separate filter pass.
      PredicateSplit split =
          SplitForCompilation(predicate, *probe->relation()->schema());
      return PhysicalOpPtr(std::make_shared<SecondaryIndexProbeOp>(
          probe->relation(), probe->probes(), predicate,
          PushedFilter::FromSplit(std::move(split))));
    }
    if (child->kind() == PlanKind::kIndexedLookup) {
      const auto* lookup = static_cast<const IndexedLookupNode*>(child.get());
      PredicateSplit split =
          SplitForCompilation(predicate, *lookup->relation()->schema());
      return PhysicalOpPtr(std::make_shared<IndexLookupOp>(
          lookup->relation(), lookup->keys(),
          PushedFilter::FromSplit(std::move(split)), lookup->key_params()));
    }
    return PhysicalOpPtr(nullptr);
  }
  // Column pruning: Project(colrefs) over a scan decodes only the
  // projected columns; Project(colrefs) over Filter(cmp) over a scan
  // fuses all three.
  if (node->kind() == PlanKind::kProject) {
    const auto* project = static_cast<const ProjectNode*>(node.get());
    std::vector<int> cols;
    if (!AllColumnRefs(project->exprs(), &cols)) return PhysicalOpPtr(nullptr);
    const LogicalPlanPtr& child = node->children()[0];
    if (IndexedRelationBasePtr rel = ScanRelation(child)) {
      return PhysicalOpPtr(std::make_shared<IndexedScanProjectOp>(
          std::move(rel), std::move(cols), node->output_schema()));
    }
    if (const SecondaryProbeNode* probe = AsProbe(child)) {
      return PhysicalOpPtr(std::make_shared<SecondaryIndexProbeOp>(
          probe->relation(), probe->probes(), nullptr, PushedFilter{},
          std::move(cols), node->output_schema()));
    }
    if (child->kind() != PlanKind::kFilter) return PhysicalOpPtr(nullptr);
    const ExprPtr& predicate = static_cast<const FilterNode*>(child.get())->predicate();
    const LogicalPlanPtr& leaf = child->children()[0];
    if (IndexedRelationBasePtr rel = ScanRelation(leaf)) {
      PredicateSplit split = SplitForCompilation(predicate, *rel->schema());
      if (!split.compiled.has_value()) return PhysicalOpPtr(nullptr);
      return PhysicalOpPtr(std::make_shared<IndexedScanFilterOp>(
          std::move(rel), predicate, PushedFilter::FromSplit(std::move(split)),
          std::move(cols), node->output_schema()));
    }
    if (const SecondaryProbeNode* probe = AsProbe(leaf)) {
      PredicateSplit split =
          SplitForCompilation(predicate, *probe->relation()->schema());
      return PhysicalOpPtr(std::make_shared<SecondaryIndexProbeOp>(
          probe->relation(), probe->probes(), predicate,
          PushedFilter::FromSplit(std::move(split)), std::move(cols),
          node->output_schema()));
    }
    return PhysicalOpPtr(nullptr);
  }
  switch (node->kind()) {
    case PlanKind::kIndexedScan:
      return PhysicalOpPtr(std::make_shared<IndexedScanOp>(
          static_cast<const IndexedScanNode*>(node.get())->relation()));
    case PlanKind::kIndexedLookup: {
      const auto* lookup = static_cast<const IndexedLookupNode*>(node.get());
      return PhysicalOpPtr(std::make_shared<IndexLookupOp>(
          lookup->relation(), lookup->keys(), PushedFilter{}, lookup->key_params()));
    }
    case PlanKind::kSecondaryProbe: {
      const auto* probe = static_cast<const SecondaryProbeNode*>(node.get());
      return PhysicalOpPtr(std::make_shared<SecondaryIndexProbeOp>(
          probe->relation(), probe->probes(), nullptr, PushedFilter{}));
    }
    case PlanKind::kIndexedJoin: {
      const auto* join = static_cast<const IndexedJoinNode*>(node.get());
      const IndexedRelationBasePtr& rel = join->relation();
      bool broadcast_probe =
          EstimateBytes(join->probe()) <=
          static_cast<double>(config.broadcast_threshold_bytes);
      PushedFilter build_filter;
      if (join->build_predicate()) {
        build_filter = PushedFilter::FromSplit(
            SplitForCompilation(join->build_predicate(), *rel->schema()));
      }
      return PhysicalOpPtr(std::make_shared<IndexedJoinOp>(
          rel, children[0], join->probe_key(), join->indexed_on_left(),
          broadcast_probe, node->output_schema(), std::move(build_filter)));
    }
    default:
      return PhysicalOpPtr(nullptr);
  }
}

void InstallIndexedExtensions(Session& session) {
  static const char kTag[] = "indexed-dataframe";
  if (session.HasExtension(kTag)) return;
  session.AddOptimizerRule(std::make_shared<IndexedFilterRule>());
  // After the primary-index rule: an equality on the indexed column becomes
  // a point lookup before secondary-index costing ever sees the filter.
  session.AddOptimizerRule(std::make_shared<SecondaryIndexFilterRule>(
      session.config().secondary_probe_max_selectivity));
  session.AddOptimizerRule(std::make_shared<IndexedJoinRule>());
  session.AddPhysicalStrategy(std::make_shared<IndexedExecutionStrategy>());
  session.MarkExtension(kTag);
}

}  // namespace idf
