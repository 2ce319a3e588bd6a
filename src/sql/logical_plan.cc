#include "sql/logical_plan.h"

#include "common/logging.h"

namespace idf {

std::string PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kCacheScan:
      return "CacheScan";
    case PlanKind::kIndexedScan:
      return "IndexedScan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kTopK:
      return "TopK";
    case PlanKind::kIndexedLookup:
      return "IndexedLookup";
    case PlanKind::kIndexedJoin:
      return "IndexedJoin";
    case PlanKind::kUnionAll:
      return "UnionAll";
    case PlanKind::kSecondaryProbe:
      return "SecondaryProbe";
  }
  return "Unknown";
}

std::string SecondaryIndexKindToString(SecondaryIndexKind kind) {
  switch (kind) {
    case SecondaryIndexKind::kNone:
      return "none";
    case SecondaryIndexKind::kBitmap:
      return "bitmap";
    case SecondaryIndexKind::kRange:
      return "range";
  }
  return "?";
}

std::string SecondaryProbe::ToString() const {
  std::string out = SecondaryIndexKindToString(kind) + "(col#" +
                    std::to_string(column) + " ";
  if (kind == SecondaryIndexKind::kBitmap) {
    out += "in {";
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0) out += ", ";
      out += keys[i].ToString();
    }
    out += "}";
  } else {
    if (lo.has_value()) out += (lo_inclusive ? ">= " : "> ") + lo->ToString();
    if (lo.has_value() && hi.has_value()) out += " AND ";
    if (hi.has_value()) out += (hi_inclusive ? "<= " : "< ") + hi->ToString();
  }
  return out + ")";
}

std::string AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kCountStar:
      return "count(*)";
    case AggFn::kCount:
      return "count";
    case AggFn::kSum:
      return "sum";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
    case AggFn::kAvg:
      return "avg";
  }
  return "?";
}

void LogicalPlan::AppendTree(std::string* out, int indent) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(ToString());
  out->append("\n");
  for (const LogicalPlanPtr& child : children_) {
    child->AppendTree(out, indent + 1);
  }
}

std::string LogicalPlan::TreeString() const {
  std::string out;
  AppendTree(&out, 0);
  return out;
}

std::string ScanNode::ToString() const {
  return "Scan [" + table_->name + "] " + output_schema()->ToString();
}

LogicalPlanPtr ScanNode::WithChildren(std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK(children.empty());
  return std::make_shared<ScanNode>(table_);
}

std::string CacheScanNode::ToString() const {
  return "CacheScan [" + table_->name + "] " + output_schema()->ToString();
}

LogicalPlanPtr CacheScanNode::WithChildren(
    std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK(children.empty());
  return std::make_shared<CacheScanNode>(table_);
}

std::string IndexedScanNode::ToString() const {
  const Schema& schema = *output_schema();
  std::string out = "IndexedScan [" + relation()->name() + "] indexed_col=" +
                    schema.field(relation()->indexed_column()).name;
  if (paths_.size() > 1) {
    out += " paths=[";
    for (size_t i = 0; i < paths_.size(); ++i) {
      if (i > 0) out += ", ";
      out += schema.field(paths_[i]->indexed_column()).name;
    }
    out += "]";
  }
  return out;
}

LogicalPlanPtr IndexedScanNode::WithChildren(
    std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK(children.empty());
  return std::make_shared<IndexedScanNode>(paths_);
}

std::string FilterNode::ToString() const {
  return "Filter " + predicate_->ToString();
}

LogicalPlanPtr FilterNode::WithChildren(std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_EQ(children.size(), 1u);
  return std::make_shared<FilterNode>(std::move(children[0]), predicate_,
                                      output_schema());
}

std::string ProjectNode::ToString() const {
  std::string out = "Project [";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString() + " AS " + names_[i];
  }
  return out + "]";
}

LogicalPlanPtr ProjectNode::WithChildren(std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_EQ(children.size(), 1u);
  return std::make_shared<ProjectNode>(std::move(children[0]), exprs_, names_,
                                       output_schema());
}

std::string JoinTypeToString(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "Inner";
    case JoinType::kLeftOuter:
      return "LeftOuter";
  }
  return "?";
}

std::string JoinNode::ToString() const {
  return "Join " + JoinTypeToString(join_type_) + " (" + left_key_->ToString() +
         " = " + right_key_->ToString() + ")";
}

LogicalPlanPtr JoinNode::WithChildren(std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_EQ(children.size(), 2u);
  return std::make_shared<JoinNode>(std::move(children[0]), std::move(children[1]),
                                    left_key_, right_key_, join_type_,
                                    output_schema());
}

std::string AggregateNode::ToString() const {
  std::string out = "Aggregate group=[";
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_exprs_[i]->ToString();
  }
  out += "] aggs=[";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggFnToString(aggs_[i].fn);
    if (aggs_[i].arg) out += "(" + aggs_[i].arg->ToString() + ")";
    out += " AS " + aggs_[i].out_name;
  }
  return out + "]";
}

LogicalPlanPtr AggregateNode::WithChildren(
    std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_EQ(children.size(), 1u);
  return std::make_shared<AggregateNode>(std::move(children[0]), group_exprs_,
                                         group_names_, aggs_, output_schema());
}

std::string SortNode::ToString() const {
  std::string out = "Sort [";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    out += keys_[i].ascending ? " ASC" : " DESC";
  }
  return out + "]";
}

LogicalPlanPtr SortNode::WithChildren(std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_EQ(children.size(), 1u);
  return std::make_shared<SortNode>(std::move(children[0]), keys_, output_schema());
}

std::string LimitNode::ToString() const {
  return "Limit " + std::to_string(n_);
}

LogicalPlanPtr LimitNode::WithChildren(std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_EQ(children.size(), 1u);
  return std::make_shared<LimitNode>(std::move(children[0]), n_, output_schema());
}

std::string TopKNode::ToString() const {
  std::string out = "TopK n=" + std::to_string(n_) + " [";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    out += keys_[i].ascending ? " ASC" : " DESC";
  }
  return out + "]";
}

LogicalPlanPtr TopKNode::WithChildren(std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_EQ(children.size(), 1u);
  return std::make_shared<TopKNode>(std::move(children[0]), keys_, n_,
                                    output_schema());
}

std::string UnionAllNode::ToString() const {
  return "UnionAll (" + std::to_string(children().size()) + " inputs)";
}

LogicalPlanPtr UnionAllNode::WithChildren(
    std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_GE(children.size(), 2u);
  return std::make_shared<UnionAllNode>(std::move(children), output_schema());
}

std::string SecondaryProbeNode::ToString() const {
  std::string out = "SecondaryProbe [" + rel_->name() + "] ";
  for (size_t i = 0; i < probes_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += probes_[i].ToString();
  }
  return out;
}

LogicalPlanPtr SecondaryProbeNode::WithChildren(
    std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK(children.empty());
  return std::make_shared<SecondaryProbeNode>(rel_, probes_);
}

std::string IndexedLookupNode::ToString() const {
  std::string out = "IndexedLookup [" + rel_->name() + "] key=";
  auto render = [&](size_t i) {
    return (i < key_params_.size() && key_params_[i] >= 0)
               ? "$" + std::to_string(key_params_[i] + 1)
               : keys_[i].ToString();
  };
  if (keys_.size() == 1) return out + render(0);
  out += "{";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += render(i);
  }
  return out + "}";
}

LogicalPlanPtr IndexedLookupNode::WithChildren(
    std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK(children.empty());
  return std::make_shared<IndexedLookupNode>(rel_, keys_, key_params_);
}

std::string IndexedJoinNode::ToString() const {
  return "IndexedJoin [" + rel_->name() + "] probe_key=" + probe_key_->ToString() +
         (indexed_on_left_ ? " (indexed side: left)" : " (indexed side: right)") +
         (build_predicate_ ? " build_filter=" + build_predicate_->ToString() : "");
}

LogicalPlanPtr IndexedJoinNode::WithChildren(
    std::vector<LogicalPlanPtr> children) const {
  IDF_CHECK_EQ(children.size(), 1u);
  return std::make_shared<IndexedJoinNode>(rel_, std::move(children[0]), probe_key_,
                                           indexed_on_left_, output_schema(),
                                           build_predicate_);
}

}  // namespace idf
