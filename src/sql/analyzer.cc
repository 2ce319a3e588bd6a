#include "sql/analyzer.h"

namespace idf {

std::string DeriveColumnName(const ExprPtr& expr) {
  if (expr->kind() == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr*>(expr.get())->name();
  }
  return expr->ToString();
}

namespace {

Result<LogicalPlanPtr> AnalyzeNode(const LogicalPlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan:
    case PlanKind::kCacheScan:
    case PlanKind::kIndexedScan:
    case PlanKind::kIndexedLookup:
    case PlanKind::kSecondaryProbe:
      // Leaf nodes are born analyzed: their schema comes from the table.
      return plan;

    case PlanKind::kFilter: {
      const auto* node = static_cast<const FilterNode*>(plan.get());
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr child, Analyze(node->children()[0]));
      const Schema& in = *child->output_schema();
      IDF_ASSIGN_OR_RETURN(ExprPtr pred, BindExpr(node->predicate(), in));
      IDF_ASSIGN_OR_RETURN(TypeId t, pred->ResultType(in));
      if (t != TypeId::kBool) {
        return Status::TypeError("filter predicate must be boolean: " +
                                 pred->ToString());
      }
      SchemaPtr schema = child->output_schema();
      return LogicalPlanPtr(std::make_shared<FilterNode>(
          std::move(child), std::move(pred), std::move(schema)));
    }

    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr child, Analyze(node->children()[0]));
      const Schema& in = *child->output_schema();
      std::vector<ExprPtr> bound;
      std::vector<Field> fields;
      std::vector<std::string> names = node->names();
      if (names.empty()) {
        names.reserve(node->exprs().size());
        for (const ExprPtr& e : node->exprs()) names.push_back(DeriveColumnName(e));
      }
      if (names.size() != node->exprs().size()) {
        return Status::InvalidArgument("project: names/exprs arity mismatch");
      }
      for (size_t i = 0; i < node->exprs().size(); ++i) {
        IDF_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(node->exprs()[i], in));
        IDF_ASSIGN_OR_RETURN(TypeId t, e->ResultType(in));
        fields.push_back(Field{names[i], t, /*nullable=*/true});
        bound.push_back(std::move(e));
      }
      return LogicalPlanPtr(std::make_shared<ProjectNode>(
          std::move(child), std::move(bound), std::move(names),
          Schema::Make(std::move(fields))));
    }

    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr left, Analyze(node->left()));
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr right, Analyze(node->right()));
      const Schema& ls = *left->output_schema();
      const Schema& rs = *right->output_schema();
      IDF_ASSIGN_OR_RETURN(ExprPtr lk, BindExpr(node->left_key(), ls));
      IDF_ASSIGN_OR_RETURN(ExprPtr rk, BindExpr(node->right_key(), rs));
      IDF_ASSIGN_OR_RETURN(TypeId lt, lk->ResultType(ls));
      IDF_ASSIGN_OR_RETURN(TypeId rt, rk->ResultType(rs));
      bool l_str = lt == TypeId::kString;
      bool r_str = rt == TypeId::kString;
      if (l_str != r_str) {
        return Status::TypeError("join keys are not comparable: " +
                                 TypeIdToString(lt) + " vs " + TypeIdToString(rt));
      }
      SchemaPtr out = Schema::Concat(ls, rs);
      if (node->join_type() == JoinType::kLeftOuter) {
        // Right-side columns become nullable (unmatched rows pad nulls).
        std::vector<Field> fields = out->fields();
        for (size_t i = static_cast<size_t>(ls.num_fields()); i < fields.size();
             ++i) {
          fields[i].nullable = true;
        }
        out = Schema::Make(std::move(fields));
      }
      return LogicalPlanPtr(std::make_shared<JoinNode>(
          std::move(left), std::move(right), std::move(lk), std::move(rk),
          node->join_type(), std::move(out)));
    }

    case PlanKind::kIndexedJoin: {
      const auto* node = static_cast<const IndexedJoinNode*>(plan.get());
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr probe, Analyze(node->probe()));
      const Schema& ps = *probe->output_schema();
      IDF_ASSIGN_OR_RETURN(ExprPtr pk, BindExpr(node->probe_key(), ps));
      IDF_RETURN_NOT_OK(pk->ResultType(ps).status());
      const Schema& is = *node->relation()->schema();
      SchemaPtr out = node->indexed_on_left() ? Schema::Concat(is, ps)
                                              : Schema::Concat(ps, is);
      return LogicalPlanPtr(std::make_shared<IndexedJoinNode>(
          node->relation(), std::move(probe), std::move(pk),
          node->indexed_on_left(), std::move(out)));
    }

    case PlanKind::kAggregate: {
      const auto* node = static_cast<const AggregateNode*>(plan.get());
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr child, Analyze(node->children()[0]));
      const Schema& in = *child->output_schema();
      std::vector<ExprPtr> groups;
      std::vector<Field> fields;
      std::vector<std::string> names = node->group_names();
      if (names.empty()) {
        for (const ExprPtr& e : node->group_exprs()) {
          names.push_back(DeriveColumnName(e));
        }
      }
      if (names.size() != node->group_exprs().size()) {
        return Status::InvalidArgument("aggregate: group names/exprs mismatch");
      }
      for (size_t i = 0; i < node->group_exprs().size(); ++i) {
        IDF_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(node->group_exprs()[i], in));
        IDF_ASSIGN_OR_RETURN(TypeId t, e->ResultType(in));
        fields.push_back(Field{names[i], t, true});
        groups.push_back(std::move(e));
      }
      std::vector<AggSpec> aggs;
      for (const AggSpec& spec : node->aggs()) {
        AggSpec bound = spec;
        TypeId out_type = TypeId::kInt64;
        if (spec.fn != AggFn::kCountStar) {
          if (!spec.arg) {
            return Status::InvalidArgument("aggregate " + AggFnToString(spec.fn) +
                                           " requires an argument");
          }
          IDF_ASSIGN_OR_RETURN(bound.arg, BindExpr(spec.arg, in));
          IDF_ASSIGN_OR_RETURN(TypeId arg_type, bound.arg->ResultType(in));
          switch (spec.fn) {
            case AggFn::kCount:
              out_type = TypeId::kInt64;
              break;
            case AggFn::kSum:
              if (arg_type == TypeId::kString) {
                return Status::TypeError("sum over string column");
              }
              out_type =
                  arg_type == TypeId::kFloat64 ? TypeId::kFloat64 : TypeId::kInt64;
              break;
            case AggFn::kMin:
            case AggFn::kMax:
              out_type = arg_type;
              break;
            case AggFn::kAvg:
              if (arg_type == TypeId::kString) {
                return Status::TypeError("avg over string column");
              }
              out_type = TypeId::kFloat64;
              break;
            default:
              break;
          }
        }
        if (bound.out_name.empty()) {
          bound.out_name = AggFnToString(spec.fn) +
                           (spec.arg ? "(" + DeriveColumnName(spec.arg) + ")" : "");
        }
        fields.push_back(Field{bound.out_name, out_type, true});
        aggs.push_back(std::move(bound));
      }
      return LogicalPlanPtr(std::make_shared<AggregateNode>(
          std::move(child), std::move(groups), std::move(names), std::move(aggs),
          Schema::Make(std::move(fields))));
    }

    case PlanKind::kSort: {
      const auto* node = static_cast<const SortNode*>(plan.get());
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr child, Analyze(node->children()[0]));
      const Schema& in = *child->output_schema();
      std::vector<SortKey> keys;
      for (const SortKey& k : node->keys()) {
        IDF_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(k.expr, in));
        IDF_RETURN_NOT_OK(e->ResultType(in).status());
        keys.push_back(SortKey{std::move(e), k.ascending});
      }
      SchemaPtr schema = child->output_schema();
      return LogicalPlanPtr(
          std::make_shared<SortNode>(std::move(child), std::move(keys), schema));
    }

    case PlanKind::kLimit: {
      const auto* node = static_cast<const LimitNode*>(plan.get());
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr child, Analyze(node->children()[0]));
      SchemaPtr schema = child->output_schema();
      return LogicalPlanPtr(
          std::make_shared<LimitNode>(std::move(child), node->n(), schema));
    }

    case PlanKind::kUnionAll: {
      if (plan->children().size() < 2) {
        return Status::InvalidArgument("UNION ALL needs at least two inputs");
      }
      std::vector<LogicalPlanPtr> inputs;
      SchemaPtr out;
      for (const LogicalPlanPtr& raw : plan->children()) {
        IDF_ASSIGN_OR_RETURN(LogicalPlanPtr child, Analyze(raw));
        const Schema& s = *child->output_schema();
        if (out == nullptr) {
          out = child->output_schema();
        } else {
          if (s.num_fields() != out->num_fields()) {
            return Status::TypeError(
                "UNION ALL inputs have different arities: " + out->ToString() +
                " vs " + s.ToString());
          }
          std::vector<Field> fields = out->fields();
          for (int i = 0; i < s.num_fields(); ++i) {
            if (s.field(i).type != fields[static_cast<size_t>(i)].type) {
              return Status::TypeError(
                  "UNION ALL column " + std::to_string(i) +
                  " type mismatch: " + TypeIdToString(fields[i].type) + " vs " +
                  TypeIdToString(s.field(i).type));
            }
            fields[static_cast<size_t>(i)].nullable =
                fields[static_cast<size_t>(i)].nullable || s.field(i).nullable;
          }
          out = Schema::Make(std::move(fields));
        }
        inputs.push_back(std::move(child));
      }
      return LogicalPlanPtr(
          std::make_shared<UnionAllNode>(std::move(inputs), std::move(out)));
    }

    case PlanKind::kTopK: {
      const auto* node = static_cast<const TopKNode*>(plan.get());
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr child, Analyze(node->children()[0]));
      const Schema& in = *child->output_schema();
      std::vector<SortKey> keys;
      for (const SortKey& k : node->keys()) {
        IDF_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(k.expr, in));
        IDF_RETURN_NOT_OK(e->ResultType(in).status());
        keys.push_back(SortKey{std::move(e), k.ascending});
      }
      SchemaPtr schema = child->output_schema();
      return LogicalPlanPtr(std::make_shared<TopKNode>(
          std::move(child), std::move(keys), node->n(), schema));
    }
  }
  return Status::Internal("unhandled plan kind in Analyze");
}

}  // namespace

Result<LogicalPlanPtr> Analyze(const LogicalPlanPtr& plan) {
  if (plan->analyzed()) {
    // Children of an analyzed node may still be re-analyzed cheaply; but an
    // analyzed root is idempotent by construction.
    bool children_ok = true;
    for (const auto& c : plan->children()) children_ok &= c->analyzed();
    if (children_ok) return plan;
  }
  return AnalyzeNode(plan);
}

}  // namespace idf
