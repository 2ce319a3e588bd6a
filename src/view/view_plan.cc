#include "view/view_plan.h"

#include <algorithm>
#include <unordered_set>

#include "types/value.h"

namespace idf {

std::string ViewKindToString(ViewKind kind) {
  switch (kind) {
    case ViewKind::kSelect:
      return "select";
    case ViewKind::kAggregate:
      return "aggregate";
    case ViewKind::kJoin:
      return "join";
    case ViewKind::kRecompute:
      return "recompute";
  }
  return "?";
}

std::string PlanFingerprint(const LogicalPlanPtr& plan) {
  return plan->TreeString();
}

namespace {

void CollectScanTables(const LogicalPlanPtr& plan,
                       std::vector<std::string>* out) {
  if (plan->kind() == PlanKind::kScan) {
    out->push_back(static_cast<const ScanNode*>(plan.get())->table()->name);
  }
  for (const LogicalPlanPtr& c : plan->children()) CollectScanTables(c, out);
}

void Dedup(std::vector<std::string>* names) {
  std::unordered_set<std::string> seen;
  names->erase(std::remove_if(names->begin(), names->end(),
                              [&](const std::string& n) {
                                return !seen.insert(n).second;
                              }),
               names->end());
}

/// Matches Scan(t) or Filter(Scan(t)); fills `out` on success.
bool MatchInput(const LogicalPlanPtr& plan, ViewInput* out) {
  const LogicalPlan* scan = plan.get();
  ExprPtr predicate;
  if (plan->kind() == PlanKind::kFilter) {
    predicate = static_cast<const FilterNode*>(plan.get())->predicate();
    scan = plan->children()[0].get();
  }
  if (scan->kind() != PlanKind::kScan) return false;
  out->table = static_cast<const ScanNode*>(scan)->table()->name;
  out->schema = scan->output_schema();
  out->predicate = std::move(predicate);
  return true;
}

/// Matches an inner equi-join on plain columns of two inputs; fills the
/// join fields of `spec` on success.
bool MatchJoin(const LogicalPlanPtr& plan, ViewSpec* spec) {
  if (plan->kind() != PlanKind::kJoin) return false;
  const auto* join = static_cast<const JoinNode*>(plan.get());
  if (join->join_type() != JoinType::kInner) return false;
  if (join->left_key()->kind() != ExprKind::kColumnRef ||
      join->right_key()->kind() != ExprKind::kColumnRef) {
    return false;
  }
  const auto* lk = static_cast<const ColumnRefExpr*>(join->left_key().get());
  const auto* rk = static_cast<const ColumnRefExpr*>(join->right_key().get());
  if (!lk->bound() || !rk->bound()) return false;
  if (!MatchInput(join->left(), &spec->left) ||
      !MatchInput(join->right(), &spec->right)) {
    return false;
  }
  spec->left_key_col = lk->index();
  spec->right_key_col = rk->index();
  return true;
}

/// Moves the innermost run of row-wise post-ops (Filter, Project) to
/// `row_post`: they commute with adding rows to the result, so they can run
/// on each pass's changed rows. Sort and Limit need the whole result and
/// stay in `post`, which readers run when they consolidate.
void SplitRowPostOps(ViewSpec* spec) {
  auto first_whole = std::find_if(
      spec->post.begin(), spec->post.end(), [](const ViewPostOp& op) {
        return op.kind != ViewPostOp::kFilter && op.kind != ViewPostOp::kProject;
      });
  spec->row_post.assign(std::make_move_iterator(spec->post.begin()),
                        std::make_move_iterator(first_whole));
  spec->post.erase(spec->post.begin(), first_whole);
}

}  // namespace

Result<ViewSpec> BuildViewSpec(const std::string& sql,
                               const LogicalPlanPtr& plan) {
  if (!plan || !plan->analyzed()) {
    return Status::Internal("BuildViewSpec requires an analyzed plan");
  }
  ViewSpec spec;
  spec.sql = sql;
  spec.fingerprint = PlanFingerprint(plan);
  spec.output_schema = plan->output_schema();
  CollectScanTables(plan, &spec.tables);
  Dedup(&spec.tables);

  // Peel post-ops off the top until a core candidate remains. A Filter is
  // part of the core only when it sits directly on a Scan.
  LogicalPlanPtr core = plan;
  std::vector<ViewPostOp> post;  // collected outermost-first
  for (bool peeled = true; peeled;) {
    peeled = false;
    switch (core->kind()) {
      case PlanKind::kLimit: {
        const auto* n = static_cast<const LimitNode*>(core.get());
        post.push_back(ViewPostOp{ViewPostOp::kLimit, nullptr, {}, {}, n->n()});
        core = core->children()[0];
        peeled = true;
        break;
      }
      case PlanKind::kTopK: {
        const auto* n = static_cast<const TopKNode*>(core.get());
        post.push_back(ViewPostOp{ViewPostOp::kLimit, nullptr, {}, {}, n->n()});
        post.push_back(ViewPostOp{ViewPostOp::kSort, nullptr, {}, n->keys(), 0});
        core = core->children()[0];
        peeled = true;
        break;
      }
      case PlanKind::kSort: {
        const auto* n = static_cast<const SortNode*>(core.get());
        post.push_back(ViewPostOp{ViewPostOp::kSort, nullptr, {}, n->keys(), 0});
        core = core->children()[0];
        peeled = true;
        break;
      }
      case PlanKind::kProject: {
        const auto* n = static_cast<const ProjectNode*>(core.get());
        post.push_back(
            ViewPostOp{ViewPostOp::kProject, nullptr, n->exprs(), {}, 0});
        core = core->children()[0];
        peeled = true;
        break;
      }
      case PlanKind::kFilter: {
        if (core->children()[0]->kind() == PlanKind::kScan) break;
        const auto* n = static_cast<const FilterNode*>(core.get());
        post.push_back(
            ViewPostOp{ViewPostOp::kFilter, n->predicate(), {}, {}, 0});
        core = core->children()[0];
        peeled = true;
        break;
      }
      default:
        break;
    }
  }
  std::reverse(post.begin(), post.end());  // innermost-first for apply
  spec.post = std::move(post);

  switch (core->kind()) {
    case PlanKind::kScan:
    case PlanKind::kFilter:
      if (MatchInput(core, &spec.input)) {
        spec.kind = ViewKind::kSelect;
        SplitRowPostOps(&spec);
        return spec;
      }
      break;
    case PlanKind::kAggregate: {
      const auto* agg = static_cast<const AggregateNode*>(core.get());
      const LogicalPlanPtr& child = core->children()[0];
      if (!MatchInput(child, &spec.input)) {
        if (!MatchJoin(child, &spec)) break;
        spec.over_join = true;
      }
      spec.kind = ViewKind::kAggregate;
      spec.group_exprs = agg->group_exprs();
      spec.aggs = agg->aggs();
      const Schema& out = *core->output_schema();
      for (size_t a = 0; a < spec.aggs.size(); ++a) {
        spec.agg_out_types.push_back(
            out.field(spec.group_exprs.size() + a).type);
      }
      SplitRowPostOps(&spec);
      return spec;
    }
    case PlanKind::kJoin:
      if (!MatchJoin(core, &spec)) break;
      spec.kind = ViewKind::kJoin;
      SplitRowPostOps(&spec);
      return spec;
    default:
      break;
  }

  // Unsupported shape: maintain by recomputation against each new epoch.
  spec.kind = ViewKind::kRecompute;
  spec.post.clear();
  return spec;
}

namespace {

/// Runs one row-wise op (kFilter / kProject) on `row` in place; false when
/// a Filter drops it.
Result<bool> ApplyRowOp(const ViewPostOp& op, Row* row) {
  if (op.kind == ViewPostOp::kFilter) {
    IDF_ASSIGN_OR_RETURN(Value v, op.predicate->Eval(*row));
    return v.is_bool() && v.bool_value();
  }
  Row out;
  out.reserve(op.exprs.size());
  for (const ExprPtr& e : op.exprs) {
    IDF_ASSIGN_OR_RETURN(Value v, e->Eval(*row));
    out.push_back(std::move(v));
  }
  *row = std::move(out);
  return true;
}

}  // namespace

Result<bool> ApplyRowPostOps(const std::vector<ViewPostOp>& ops, Row* row) {
  for (const ViewPostOp& op : ops) {
    if (op.kind != ViewPostOp::kFilter && op.kind != ViewPostOp::kProject) {
      return Status::Internal("row-wise post-ops hold only Filter/Project");
    }
    IDF_ASSIGN_OR_RETURN(bool keep, ApplyRowOp(op, row));
    if (!keep) return false;
  }
  return true;
}

Status ApplyPostOps(const std::vector<ViewPostOp>& post, RowVec* rows) {
  for (const ViewPostOp& op : post) {
    switch (op.kind) {
      case ViewPostOp::kFilter:
      case ViewPostOp::kProject: {
        size_t kept = 0;
        for (size_t i = 0; i < rows->size(); ++i) {
          IDF_ASSIGN_OR_RETURN(bool keep, ApplyRowOp(op, &(*rows)[i]));
          if (!keep) continue;
          if (kept != i) (*rows)[kept] = std::move((*rows)[i]);
          ++kept;
        }
        rows->resize(kept);
        break;
      }
      case ViewPostOp::kSort: {
        // Same comparator as SortOp: per-key Value ordering (nulls first),
        // ties keep input order (stable).
        std::vector<std::pair<Row, Row>> keyed;  // (sort key values, row)
        keyed.reserve(rows->size());
        for (Row& row : *rows) {
          Row keys;
          keys.reserve(op.keys.size());
          for (const SortKey& k : op.keys) {
            IDF_ASSIGN_OR_RETURN(Value v, k.expr->Eval(row));
            keys.push_back(std::move(v));
          }
          keyed.emplace_back(std::move(keys), std::move(row));
        }
        std::stable_sort(keyed.begin(), keyed.end(),
                         [&](const auto& a, const auto& b) {
                           for (size_t i = 0; i < op.keys.size(); ++i) {
                             const Value& va = a.first[i];
                             const Value& vb = b.first[i];
                             if (va < vb) return op.keys[i].ascending;
                             if (vb < va) return !op.keys[i].ascending;
                           }
                           return false;
                         });
        rows->clear();
        for (auto& [keys, row] : keyed) rows->push_back(std::move(row));
        break;
      }
      case ViewPostOp::kLimit:
        if (rows->size() > op.limit) rows->resize(op.limit);
        break;
    }
  }
  return Status::OK();
}

}  // namespace idf
