#include "indexed/indexed_dataframe.h"

#include "indexed/indexed_rules.h"

namespace idf {

Result<IndexedDataFrame> IndexedDataFrame::CreateIndex(const DataFrame& df,
                                                       int col_no,
                                                       const std::string& name) {
  if (!df.valid()) return Status::InvalidArgument("empty DataFrame handle");
  SessionPtr session = df.session();
  InstallIndexedExtensions(*session);
  IDF_ASSIGN_OR_RETURN(SchemaPtr schema, df.schema());
  if (col_no < 0 || col_no >= schema->num_fields()) {
    return Status::IndexError("index column ordinal " + std::to_string(col_no) +
                              " out of range for schema " + schema->ToString());
  }
  IDF_ASSIGN_OR_RETURN(RowVec rows, df.Collect());
  IDF_ASSIGN_OR_RETURN(IndexedRelationPtr rel,
                       IndexedRelation::Build(session->exec(), name, schema,
                                              col_no, rows));
  return IndexedDataFrame(std::move(session), std::move(rel), /*cached=*/false);
}

Result<IndexedDataFrame> IndexedDataFrame::CreateIndex(const DataFrame& df,
                                                       const std::string& column,
                                                       const std::string& name) {
  IDF_ASSIGN_OR_RETURN(SchemaPtr schema, df.schema());
  IDF_ASSIGN_OR_RETURN(int col, schema->ResolveFieldIndex(column));
  return CreateIndex(df, col, name);
}

IndexedDataFrame IndexedDataFrame::Cache() const {
  return IndexedDataFrame(session_, rel_, /*cached=*/true);
}

DataFrame IndexedDataFrame::GetRows(const Value& key) const {
  return DataFrame(session_, std::make_shared<IndexedLookupNode>(rel_, key));
}

DataFrame IndexedDataFrame::GetRowsMulti(std::vector<Value> keys) const {
  return DataFrame(session_,
                   std::make_shared<IndexedLookupNode>(rel_, std::move(keys)));
}

Result<IndexedDataFrame> IndexedDataFrame::AppendRows(const DataFrame& df) const {
  IDF_ASSIGN_OR_RETURN(SchemaPtr append_schema, df.schema());
  if (!append_schema->Equals(*rel_->schema())) {
    return Status::InvalidArgument(
        "appendRows schema mismatch: " + append_schema->ToString() + " vs " +
        rel_->schema()->ToString());
  }
  IDF_ASSIGN_OR_RETURN(RowVec rows, df.Collect());
  IDF_RETURN_NOT_OK(rel_->AppendRows(session_->exec(), rows));
  return IndexedDataFrame(session_, rel_, cached_);
}

Status IndexedDataFrame::AppendRowsDirect(const RowVec& rows) const {
  return rel_->AppendRows(session_->exec(), rows);
}

DataFrame IndexedDataFrame::ToDataFrame() const {
  return DataFrame(session_, std::make_shared<IndexedScanNode>(rel_));
}

DataFrame IndexedDataFrame::PinnedView::ToDataFrame() const {
  return DataFrame(session_, std::make_shared<IndexedScanNode>(snapshot_));
}

IndexedDataFrame::PinnedView IndexedDataFrame::Pin() const {
  return PinnedView(session_, rel_->Pin());
}

Result<DataFrame> IndexedDataFrame::Join(const DataFrame& probe, ExprPtr indexed_key,
                                         ExprPtr probe_key) const {
  // Build the regular Join plan; the IndexedJoinRule rewrites it because
  // the left child is an IndexedScan keyed on the indexed column. If the
  // key turns out not to be the indexed column, the plan transparently
  // falls back to a regular join — the paper's fallback behaviour.
  return ToDataFrame().Join(probe, std::move(indexed_key), std::move(probe_key));
}

Result<DataFrame> IndexedDataFrame::Join(const DataFrame& probe,
                                         const std::string& indexed_col,
                                         const std::string& probe_col) const {
  return Join(probe, Col(indexed_col), Col(probe_col));
}

double IndexedDataFrame::IndexOverheadRatio() const {
  size_t data = rel_->data_bytes();
  if (data == 0) return 0.0;
  return static_cast<double>(rel_->index_bytes()) / static_cast<double>(data);
}

}  // namespace idf
