#include "indexed/multi_indexed_table.h"

namespace idf {

Result<MultiIndexedTable> MultiIndexedTable::Create(
    const DataFrame& df, const std::vector<std::string>& index_columns,
    const std::string& name) {
  if (index_columns.empty()) {
    return Status::InvalidArgument("MultiIndexedTable needs >= 1 index column");
  }
  if (!df.valid()) return Status::InvalidArgument("empty DataFrame handle");
  IDF_ASSIGN_OR_RETURN(SchemaPtr schema, df.schema());
  MultiIndexedTable table(name, schema, df.session());
  for (const std::string& column : index_columns) {
    if (table.indexes_.count(column) > 0) {
      return Status::InvalidArgument("duplicate index column '" + column + "'");
    }
    IDF_ASSIGN_OR_RETURN(
        IndexedDataFrame index,
        IndexedDataFrame::CreateIndex(df, column, name + "_by_" + column));
    table.order_.push_back(column);
    table.indexes_.emplace(
        column, std::make_shared<IndexedDataFrame>(index.Cache()));
  }
  return table;
}

std::vector<std::string> MultiIndexedTable::IndexedColumns() const {
  return order_;
}

Result<IndexedDataFrame> MultiIndexedTable::Index(const std::string& column) const {
  auto it = indexes_.find(column);
  if (it == indexes_.end()) {
    return Status::KeyError("no index on column '" + column + "' of table '" +
                            name_ + "'");
  }
  return *it->second;
}

Result<DataFrame> MultiIndexedTable::GetRows(const std::string& column,
                                             const Value& key) const {
  IDF_ASSIGN_OR_RETURN(IndexedDataFrame index, Index(column));
  return index.GetRows(key);
}

Result<DataFrame> MultiIndexedTable::Join(const DataFrame& probe,
                                          const std::string& table_col,
                                          const std::string& probe_col,
                                          JoinType join_type) const {
  // The join rule builds on the index keyed on `table_col`; with none (or
  // an outer join) the plan stays a regular join over the scan.
  IDF_ASSIGN_OR_RETURN(DataFrame scan, ToDataFrame());
  return scan.Join(probe, table_col, probe_col, join_type);
}

Status MultiIndexedTable::AddBitmapIndex(const std::string& column) const {
  return AddSecondaryIndex(column, SecondaryIndexKind::kBitmap);
}

Status MultiIndexedTable::AddRangeIndex(const std::string& column) const {
  return AddSecondaryIndex(column, SecondaryIndexKind::kRange);
}

Status MultiIndexedTable::AddSecondaryIndex(const std::string& column,
                                            SecondaryIndexKind kind) const {
  for (const std::string& primary : order_) {
    IDF_RETURN_NOT_OK(
        indexes_.at(primary)->relation()->AddSecondaryIndex(column, kind));
  }
  return Status::OK();
}

Status MultiIndexedTable::AppendRows(const DataFrame& df) const {
  IDF_ASSIGN_OR_RETURN(SchemaPtr append_schema, df.schema());
  if (!append_schema->Equals(*schema_)) {
    return Status::InvalidArgument("appendRows schema mismatch: " +
                                   append_schema->ToString() + " vs " +
                                   schema_->ToString());
  }
  IDF_ASSIGN_OR_RETURN(RowVec rows, df.Collect());
  return AppendRowsDirect(rows);
}

Status MultiIndexedTable::AppendRowsDirect(const RowVec& rows) const {
  return AppendRowsDirect(session_->exec(), rows);
}

Status MultiIndexedTable::AppendRowsDirect(ExecutorContext& ctx,
                                           const RowVec& rows) const {
  // Encode the batch ONCE: the UnsafeRow bytes are index-independent, so
  // every index routes and links the same payloads by its own key column
  // instead of re-encoding per index.
  IDF_ASSIGN_OR_RETURN(EncodedRowBatch enc, EncodeRowBatch(ctx, *schema_, rows));
  for (const std::string& column : order_) {
    const IndexedRelationPtr& rel = indexes_.at(column)->relation();
    // AppendEncoded lands exactly rows.size() rows or errors, so a success
    // on every index means all of them saw the same row count.
    IDF_RETURN_NOT_OK(rel->AppendEncoded(ctx, rows, enc));
  }
  return Status::OK();
}

Result<DataFrame> MultiIndexedTable::ToDataFrame() const {
  std::vector<IndexedRelationBasePtr> paths;
  for (const std::string& column : order_) {
    paths.push_back(indexes_.at(column)->relation());
  }
  return DataFrame(session_, std::make_shared<IndexedScanNode>(std::move(paths)));
}

size_t MultiIndexedTable::NumRows() const {
  return indexes_.at(order_.front())->NumRows();
}

size_t MultiIndexedTable::TotalDataBytes() const {
  size_t n = 0;
  for (const auto& [col, index] : indexes_) n += index->relation()->data_bytes();
  return n;
}

size_t MultiIndexedTable::TotalIndexBytes() const {
  size_t n = 0;
  for (const auto& [col, index] : indexes_) n += index->relation()->index_bytes();
  return n;
}

}  // namespace idf
