// MultiIndexedTable: one logical updatable table carrying several indexes
// (an extension beyond the paper's one-index-per-DataFrame Listing 1 — the
// pattern its own evaluation needs, e.g. `post` indexed both by `id` for
// SQ4 and by `creatorId` for SQ2).
//
// Each index is a full IndexedRelation (hash partitioned on its own key);
// appends fan out to every index so all of them stay consistent. The
// table's DataFrame view carries every index as an access path, so the
// planner serves a filter or join on any indexed column through the index
// keyed on it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "indexed/indexed_dataframe.h"

namespace idf {

class MultiIndexedTable {
 public:
  /// Builds one index per entry of `index_columns` (names must be distinct
  /// columns of df's schema).
  static Result<MultiIndexedTable> Create(
      const DataFrame& df, const std::vector<std::string>& index_columns,
      const std::string& name = "multi_indexed");

  const SchemaPtr& schema() const { return schema_; }
  const std::string& name() const { return name_; }

  /// Columns that carry an index, in creation order.
  std::vector<std::string> IndexedColumns() const;

  bool HasIndexOn(const std::string& column) const {
    return indexes_.count(column) > 0;
  }

  /// The IndexedDataFrame for one index (KeyError if absent).
  Result<IndexedDataFrame> Index(const std::string& column) const;

  /// Point lookup via the index on `column`.
  Result<DataFrame> GetRows(const std::string& column, const Value& key) const;

  /// Join over ToDataFrame(): the planner builds on the index keyed on
  /// `table_col`, or runs a regular join when there is none.
  Result<DataFrame> Join(const DataFrame& probe, const std::string& table_col,
                         const std::string& probe_col,
                         JoinType join_type = JoinType::kInner) const;

  /// Registers a secondary index on `column` (see DESIGN.md §14 for
  /// choosing a kind: bitmap for low-cardinality equality/IN, range for
  /// inequality/BETWEEN). Applied to every underlying primary index's
  /// relation, so queries through any access path can use it; from then on
  /// appends maintain it inside the existing per-partition batch locks.
  Status AddBitmapIndex(const std::string& column) const;
  Status AddRangeIndex(const std::string& column) const;
  Status AddSecondaryIndex(const std::string& column,
                           SecondaryIndexKind kind) const;

  /// Appends rows to every index (each index's writer locks serialize
  /// per-partition; all indexes see the batch before this returns).
  Status AppendRows(const DataFrame& df) const;
  Status AppendRowsDirect(const RowVec& rows) const;
  /// Same, encoding and maintaining indexes on `ctx` (its pool runs the
  /// parallel encode; its metrics receive the index-maintenance time).
  Status AppendRowsDirect(ExecutorContext& ctx, const RowVec& rows) const;

  /// Scan view carrying every index as an access path: the scan reads the
  /// first (any index holds all rows), and filters and joins on another
  /// index's column plan through that index.
  Result<DataFrame> ToDataFrame() const;

  size_t NumRows() const;

  /// Total bytes across all indexes: the storage cost of multi-indexing
  /// (each index keeps its own partitioned row batches).
  size_t TotalDataBytes() const;
  size_t TotalIndexBytes() const;

 private:
  MultiIndexedTable(std::string name, SchemaPtr schema, SessionPtr session)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        session_(std::move(session)) {}

  std::string name_;
  SchemaPtr schema_;
  SessionPtr session_;
  std::vector<std::string> order_;
  std::map<std::string, std::shared_ptr<IndexedDataFrame>> indexes_;
};

}  // namespace idf
