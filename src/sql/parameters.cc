#include "sql/parameters.h"

#include <functional>
#include <optional>

namespace idf {

namespace {

const ParameterRefExpr* AsParam(const ExprPtr& e) {
  return e->kind() == ExprKind::kParameterRef
             ? static_cast<const ParameterRefExpr*>(e.get())
             : nullptr;
}

bool NumericType(TypeId t) {
  return t == TypeId::kInt32 || t == TypeId::kInt64 || t == TypeId::kFloat64 ||
         t == TypeId::kBool || t == TypeId::kTimestamp;
}

/// Applies `fn` to every expression the node owns (not its children's).
void ForEachNodeExpr(const LogicalPlan& node,
                     const std::function<void(const ExprPtr&)>& fn) {
  switch (node.kind()) {
    case PlanKind::kFilter:
      fn(static_cast<const FilterNode&>(node).predicate());
      break;
    case PlanKind::kProject:
      for (const ExprPtr& e : static_cast<const ProjectNode&>(node).exprs()) {
        fn(e);
      }
      break;
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      fn(join.left_key());
      fn(join.right_key());
      break;
    }
    case PlanKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      for (const ExprPtr& e : agg.group_exprs()) fn(e);
      for (const AggSpec& spec : agg.aggs()) {
        if (spec.arg != nullptr) fn(spec.arg);
      }
      break;
    }
    case PlanKind::kSort:
      for (const SortKey& k : static_cast<const SortNode&>(node).keys()) {
        fn(k.expr);
      }
      break;
    case PlanKind::kTopK:
      for (const SortKey& k : static_cast<const TopKNode&>(node).keys()) {
        fn(k.expr);
      }
      break;
    case PlanKind::kIndexedJoin: {
      const auto& join = static_cast<const IndexedJoinNode&>(node);
      fn(join.probe_key());
      if (join.build_predicate() != nullptr) fn(join.build_predicate());
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Type inference
// ---------------------------------------------------------------------------

class ParameterTypeInference {
 public:
  explicit ParameterTypeInference(int num_params)
      : types_(static_cast<size_t>(num_params)) {}

  Status InferNode(const LogicalPlanPtr& node) {
    for (const LogicalPlanPtr& child : node->children()) {
      IDF_RETURN_NOT_OK(InferNode(child));
    }
    switch (node->kind()) {
      case PlanKind::kFilter:
        return InferExpr(static_cast<const FilterNode*>(node.get())->predicate(),
                         ChildSchema(node));
      case PlanKind::kProject: {
        const auto* project = static_cast<const ProjectNode*>(node.get());
        for (const ExprPtr& e : project->exprs()) {
          IDF_RETURN_NOT_OK(InferExpr(e, ChildSchema(node)));
        }
        return Status::OK();
      }
      case PlanKind::kJoin: {
        const auto* join = static_cast<const JoinNode*>(node.get());
        IDF_RETURN_NOT_OK(
            InferExpr(join->left_key(), *join->left()->output_schema()));
        return InferExpr(join->right_key(), *join->right()->output_schema());
      }
      case PlanKind::kAggregate: {
        const auto* agg = static_cast<const AggregateNode*>(node.get());
        for (const ExprPtr& e : agg->group_exprs()) {
          IDF_RETURN_NOT_OK(InferExpr(e, ChildSchema(node)));
        }
        for (const AggSpec& spec : agg->aggs()) {
          if (spec.arg != nullptr) {
            IDF_RETURN_NOT_OK(InferExpr(spec.arg, ChildSchema(node)));
          }
        }
        return Status::OK();
      }
      case PlanKind::kSort: {
        for (const SortKey& k :
             static_cast<const SortNode*>(node.get())->keys()) {
          IDF_RETURN_NOT_OK(InferExpr(k.expr, ChildSchema(node)));
        }
        return Status::OK();
      }
      case PlanKind::kTopK: {
        for (const SortKey& k :
             static_cast<const TopKNode*>(node.get())->keys()) {
          IDF_RETURN_NOT_OK(InferExpr(k.expr, ChildSchema(node)));
        }
        return Status::OK();
      }
      case PlanKind::kIndexedJoin: {
        const auto* join = static_cast<const IndexedJoinNode*>(node.get());
        IDF_RETURN_NOT_OK(
            InferExpr(join->probe_key(), *join->probe()->output_schema()));
        if (join->build_predicate() != nullptr) {
          return InferExpr(join->build_predicate(),
                           *join->relation()->schema());
        }
        return Status::OK();
      }
      default:
        return Status::OK();
    }
  }

  Result<std::vector<TypeId>> Finish() && {
    std::vector<TypeId> out;
    out.reserve(types_.size());
    for (size_t i = 0; i < types_.size(); ++i) {
      if (!types_[i].has_value()) {
        return Status::TypeError(
            "cannot infer the type of parameter $" + std::to_string(i + 1) +
            ": it is never referenced or its context fixes no type");
      }
      out.push_back(*types_[i]);
    }
    return out;
  }

 private:
  static const Schema& ChildSchema(const LogicalPlanPtr& node) {
    return *node->children()[0]->output_schema();
  }

  Status Record(const ParameterRefExpr& param, TypeId t) {
    if (param.ordinal() < 0 ||
        static_cast<size_t>(param.ordinal()) >= types_.size()) {
      return Status::InvalidArgument(
          "parameter " + param.ToString() + " exceeds the binding count of " +
          std::to_string(types_.size()));
    }
    std::optional<TypeId>& slot = types_[static_cast<size_t>(param.ordinal())];
    if (!slot.has_value() || *slot == t) {
      slot = t;
      return Status::OK();
    }
    // Conflicting uses: numeric contexts widen, anything else is an error.
    if (NumericType(*slot) && NumericType(t)) {
      slot = (*slot == TypeId::kFloat64 || t == TypeId::kFloat64)
                 ? TypeId::kFloat64
                 : TypeId::kInt64;
      return Status::OK();
    }
    return Status::TypeError("parameter " + param.ToString() +
                             " is used with conflicting types " +
                             TypeIdToString(*slot) + " and " +
                             TypeIdToString(t));
  }

  Status InferExpr(const ExprPtr& e, const Schema& schema) {
    switch (e->kind()) {
      case ExprKind::kComparison:
      case ExprKind::kArithmetic: {
        // A parameter operand adopts the sibling operand's type.
        const ExprPtr& l = e->children()[0];
        const ExprPtr& r = e->children()[1];
        const ParameterRefExpr* lp = AsParam(l);
        const ParameterRefExpr* rp = AsParam(r);
        if (lp != nullptr && rp != nullptr) {
          return Status::TypeError(
              "cannot infer parameter types in " + e->ToString() +
              ": both operands are parameters");
        }
        if (lp != nullptr || rp != nullptr) {
          const ParameterRefExpr* p = lp != nullptr ? lp : rp;
          const ExprPtr& other = lp != nullptr ? r : l;
          IDF_ASSIGN_OR_RETURN(TypeId t, other->ResultType(schema));
          IDF_RETURN_NOT_OK(Record(*p, t));
          return InferExpr(other, schema);
        }
        IDF_RETURN_NOT_OK(InferExpr(l, schema));
        return InferExpr(r, schema);
      }
      case ExprKind::kLogical: {
        for (const ExprPtr& child : e->children()) {
          const ParameterRefExpr* p = AsParam(child);
          if (p != nullptr) {
            IDF_RETURN_NOT_OK(Record(*p, TypeId::kBool));
          } else {
            IDF_RETURN_NOT_OK(InferExpr(child, schema));
          }
        }
        return Status::OK();
      }
      case ExprKind::kNot: {
        const ParameterRefExpr* p = AsParam(e->children()[0]);
        if (p != nullptr) return Record(*p, TypeId::kBool);
        return InferExpr(e->children()[0], schema);
      }
      case ExprKind::kLike: {
        const ParameterRefExpr* p = AsParam(e->children()[0]);
        if (p != nullptr) return Record(*p, TypeId::kString);
        return InferExpr(e->children()[0], schema);
      }
      case ExprKind::kIsNull: {
        const ParameterRefExpr* p = AsParam(e->children()[0]);
        if (p != nullptr) {
          return Status::TypeError("cannot infer the type of parameter " +
                                   p->ToString() + " under IS NULL");
        }
        return InferExpr(e->children()[0], schema);
      }
      case ExprKind::kParameterRef:
        // A parameter with no surrounding context (bare select item, group
        // key, ...). Already-typed parameters just re-record their type.
        if (AsParam(e)->type().has_value()) {
          return Record(*AsParam(e), *AsParam(e)->type());
        }
        return Status::TypeError("cannot infer the type of parameter " +
                                 e->ToString() + " in this context");
      default: {
        for (const ExprPtr& child : e->children()) {
          IDF_RETURN_NOT_OK(InferExpr(child, schema));
        }
        return Status::OK();
      }
    }
  }

  std::vector<std::optional<TypeId>> types_;
};

// ---------------------------------------------------------------------------
// Plan rewriting
// ---------------------------------------------------------------------------

using ExprRewriter = std::function<Result<ExprPtr>(const ExprPtr&)>;

/// Rebuilds the plan with every owned expression passed through `rewrite`,
/// preserving each node's schema annotation (so an analyzed tree stays
/// analyzed). When `key_bindings` is non-null, lookup-node parameter key
/// slots are also resolved to literal keys (null bindings are dropped —
/// `pk = NULL` matches nothing, exactly like the ad-hoc comparison).
Result<LogicalPlanPtr> RewritePlan(const LogicalPlanPtr& node,
                                   const ExprRewriter& rewrite,
                                   const std::vector<Value>* key_bindings) {
  std::vector<LogicalPlanPtr> kids;
  kids.reserve(node->children().size());
  bool changed = false;
  for (const LogicalPlanPtr& child : node->children()) {
    IDF_ASSIGN_OR_RETURN(LogicalPlanPtr k,
                         RewritePlan(child, rewrite, key_bindings));
    changed = changed || (k != child);
    kids.push_back(std::move(k));
  }
  auto child_or_self = [&]() -> Result<LogicalPlanPtr> {
    if (!changed) return node;
    return node->WithChildren(std::move(kids));
  };
  switch (node->kind()) {
    case PlanKind::kFilter: {
      const auto* f = static_cast<const FilterNode*>(node.get());
      IDF_ASSIGN_OR_RETURN(ExprPtr pred, rewrite(f->predicate()));
      if (!changed && pred == f->predicate()) return node;
      return std::static_pointer_cast<const LogicalPlan>(
          std::make_shared<FilterNode>(kids[0], std::move(pred),
                                       node->output_schema()));
    }
    case PlanKind::kProject: {
      const auto* p = static_cast<const ProjectNode*>(node.get());
      std::vector<ExprPtr> exprs;
      exprs.reserve(p->exprs().size());
      bool expr_changed = false;
      for (const ExprPtr& e : p->exprs()) {
        IDF_ASSIGN_OR_RETURN(ExprPtr r, rewrite(e));
        expr_changed = expr_changed || (r != e);
        exprs.push_back(std::move(r));
      }
      if (!changed && !expr_changed) return node;
      return std::static_pointer_cast<const LogicalPlan>(
          std::make_shared<ProjectNode>(kids[0], std::move(exprs), p->names(),
                                        node->output_schema()));
    }
    case PlanKind::kJoin: {
      const auto* j = static_cast<const JoinNode*>(node.get());
      IDF_ASSIGN_OR_RETURN(ExprPtr lk, rewrite(j->left_key()));
      IDF_ASSIGN_OR_RETURN(ExprPtr rk, rewrite(j->right_key()));
      if (!changed && lk == j->left_key() && rk == j->right_key()) return node;
      return std::static_pointer_cast<const LogicalPlan>(
          std::make_shared<JoinNode>(kids[0], kids[1], std::move(lk),
                                     std::move(rk), j->join_type(),
                                     node->output_schema()));
    }
    case PlanKind::kAggregate: {
      const auto* a = static_cast<const AggregateNode*>(node.get());
      std::vector<ExprPtr> groups;
      groups.reserve(a->group_exprs().size());
      bool expr_changed = false;
      for (const ExprPtr& e : a->group_exprs()) {
        IDF_ASSIGN_OR_RETURN(ExprPtr r, rewrite(e));
        expr_changed = expr_changed || (r != e);
        groups.push_back(std::move(r));
      }
      std::vector<AggSpec> aggs = a->aggs();
      for (AggSpec& spec : aggs) {
        if (spec.arg == nullptr) continue;
        IDF_ASSIGN_OR_RETURN(ExprPtr r, rewrite(spec.arg));
        expr_changed = expr_changed || (r != spec.arg);
        spec.arg = std::move(r);
      }
      if (!changed && !expr_changed) return node;
      return std::static_pointer_cast<const LogicalPlan>(
          std::make_shared<AggregateNode>(kids[0], std::move(groups),
                                          a->group_names(), std::move(aggs),
                                          node->output_schema()));
    }
    case PlanKind::kSort: {
      const auto* s = static_cast<const SortNode*>(node.get());
      std::vector<SortKey> keys = s->keys();
      bool expr_changed = false;
      for (SortKey& k : keys) {
        IDF_ASSIGN_OR_RETURN(ExprPtr r, rewrite(k.expr));
        expr_changed = expr_changed || (r != k.expr);
        k.expr = std::move(r);
      }
      if (!changed && !expr_changed) return node;
      return std::static_pointer_cast<const LogicalPlan>(
          std::make_shared<SortNode>(kids[0], std::move(keys),
                                     node->output_schema()));
    }
    case PlanKind::kTopK: {
      const auto* t = static_cast<const TopKNode*>(node.get());
      std::vector<SortKey> keys = t->keys();
      bool expr_changed = false;
      for (SortKey& k : keys) {
        IDF_ASSIGN_OR_RETURN(ExprPtr r, rewrite(k.expr));
        expr_changed = expr_changed || (r != k.expr);
        k.expr = std::move(r);
      }
      if (!changed && !expr_changed) return node;
      return std::static_pointer_cast<const LogicalPlan>(
          std::make_shared<TopKNode>(kids[0], std::move(keys), t->n(),
                                     node->output_schema()));
    }
    case PlanKind::kIndexedJoin: {
      const auto* j = static_cast<const IndexedJoinNode*>(node.get());
      IDF_ASSIGN_OR_RETURN(ExprPtr pk, rewrite(j->probe_key()));
      ExprPtr bp = j->build_predicate();
      if (bp != nullptr) {
        IDF_ASSIGN_OR_RETURN(bp, rewrite(bp));
      }
      if (!changed && pk == j->probe_key() && bp == j->build_predicate()) {
        return node;
      }
      return std::static_pointer_cast<const LogicalPlan>(
          std::make_shared<IndexedJoinNode>(j->relation(), kids[0],
                                            std::move(pk), j->indexed_on_left(),
                                            node->output_schema(),
                                            std::move(bp)));
    }
    case PlanKind::kIndexedLookup: {
      const auto* l = static_cast<const IndexedLookupNode*>(node.get());
      if (key_bindings == nullptr || l->key_params().empty()) {
        return child_or_self();
      }
      std::vector<Value> keys;
      keys.reserve(l->keys().size());
      for (size_t i = 0; i < l->keys().size(); ++i) {
        const int p = i < l->key_params().size() ? l->key_params()[i] : -1;
        if (p < 0) {
          keys.push_back(l->keys()[i]);
          continue;
        }
        if (static_cast<size_t>(p) >= key_bindings->size()) {
          return Status::Internal("lookup key parameter out of range");
        }
        if ((*key_bindings)[static_cast<size_t>(p)].is_null()) continue;
        keys.push_back((*key_bindings)[static_cast<size_t>(p)]);
      }
      return std::static_pointer_cast<const LogicalPlan>(
          std::make_shared<IndexedLookupNode>(l->relation(), std::move(keys)));
    }
    default:
      return child_or_self();
  }
}

bool LookupHasParamKeys(const LogicalPlan& node) {
  if (node.kind() != PlanKind::kIndexedLookup) return false;
  for (int p : static_cast<const IndexedLookupNode&>(node).key_params()) {
    if (p >= 0) return true;
  }
  return false;
}

}  // namespace

bool PlanHasParameters(const LogicalPlanPtr& plan) {
  bool found = LookupHasParamKeys(*plan);
  ForEachNodeExpr(*plan, [&found](const ExprPtr& e) {
    found = found || ExprHasParameters(e);
  });
  if (found) return true;
  for (const LogicalPlanPtr& child : plan->children()) {
    if (PlanHasParameters(child)) return true;
  }
  return false;
}

Result<std::vector<TypeId>> InferParameterTypes(const LogicalPlanPtr& plan,
                                                int num_params) {
  ParameterTypeInference inference(num_params);
  IDF_RETURN_NOT_OK(inference.InferNode(plan));
  return std::move(inference).Finish();
}

Result<LogicalPlanPtr> ApplyParameterTypes(const LogicalPlanPtr& plan,
                                           const std::vector<TypeId>& types) {
  ExprRewriter rewrite = [&types](const ExprPtr& e) -> Result<ExprPtr> {
    return MapParameters(
        e, [&types](const ParameterRefExpr& ref) -> Result<ExprPtr> {
          if (ref.ordinal() < 0 ||
              static_cast<size_t>(ref.ordinal()) >= types.size()) {
            return Status::Internal("parameter ordinal out of range: " +
                                    ref.ToString());
          }
          return Param(ref.ordinal(),
                       types[static_cast<size_t>(ref.ordinal())]);
        });
  };
  return RewritePlan(plan, rewrite, nullptr);
}

Result<LogicalPlanPtr> BindPlanParameters(const LogicalPlanPtr& plan,
                                          const std::vector<Value>& params) {
  ExprRewriter rewrite = [&params](const ExprPtr& e) -> Result<ExprPtr> {
    return SubstituteParameters(e, params);
  };
  return RewritePlan(plan, rewrite, &params);
}

bool PlanIsParameterPatchable(const LogicalPlanPtr& optimized) {
  for (const LogicalPlanPtr& child : optimized->children()) {
    if (!PlanIsParameterPatchable(child)) return false;
  }
  switch (optimized->kind()) {
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kIndexedLookup:
      // FilterOp / ProjectOp / the lookup operators (and the pushed
      // filters fused into indexed scans) all re-bind from the execution
      // context's parameters.
      return true;
    case PlanKind::kIndexedJoin: {
      // The build predicate becomes a bindable PushedFilter; the probe key
      // drives partitioning and must be a literal expression.
      const auto* join = static_cast<const IndexedJoinNode*>(optimized.get());
      return !ExprHasParameters(join->probe_key());
    }
    case PlanKind::kJoin: {
      const auto* join = static_cast<const JoinNode*>(optimized.get());
      return !ExprHasParameters(join->left_key()) &&
             !ExprHasParameters(join->right_key());
    }
    default: {
      bool param_free = true;
      ForEachNodeExpr(*optimized, [&param_free](const ExprPtr& e) {
        param_free = param_free && !ExprHasParameters(e);
      });
      return param_free;
    }
  }
}

}  // namespace idf
