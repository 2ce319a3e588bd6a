// Parameterized plan cache for prepared statements (DESIGN.md §15).
//
// A prepared statement is parsed, analyzed, type-inferred, optimized, and
// lowered to physical operators ONCE. The plan names the registered live
// relations and holds no MVCC pins: each execution installs its epoch's
// pins and its parameter values on the ExecutorContext, the operators
// read the pinned version of each relation, compiled predicates patch
// immediate slots (CompiledPredicate::BindParams), interpreted
// filter/project expressions substitute literals, and lookup operators
// fill key slots — no re-lowering and no recompilation on the hot path,
// however far the epoch moves. Only a DDL change re-prepares.
//
// The cache is an LRU keyed on a normalized SQL fingerprint (lowercased
// outside string literals, whitespace collapsed). Statements are
// immutable after construction; concurrent ExecutePrepared calls share
// one physical plan safely.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sql/logical_plan.h"
#include "sql/physical_plan.h"

namespace idf {

/// Normalized cache key: lowercase outside single-quoted string literals,
/// runs of whitespace collapsed to one space, trimmed. `SELECT * FROM t`
/// and `select *   from t` share one cache entry; `WHERE s = 'ABC'` and
/// `WHERE s = 'abc'` do not.
std::string NormalizeSql(const std::string& sql);

/// A prepared statement: the cached planning artifact. Immutable after
/// construction.
struct PreparedStatement {
  std::string sql;
  std::string fingerprint;
  size_t num_params = 0;
  std::vector<TypeId> param_types;  ///< inferred, one per ordinal
  SchemaPtr result_schema;

  /// Analyzed, typed tree (the substitute-and-replan fallback re-optimizes
  /// this per execution).
  LogicalPlanPtr analyzed;
  /// Lowered plan, shared by every execution; set only when every
  /// parameter sits in a position the physical operators re-bind per
  /// execution (sql/parameters.h). Null forces the fallback.
  PhysicalOpPtr physical;

  /// Service DDL version at prepare time; a mismatch invalidates the
  /// statement (schema may have changed under the cached plan).
  uint64_t ddl_version = 0;
};

using PreparedStatementPtr = std::shared_ptr<PreparedStatement>;

/// LRU cache of prepared statements keyed on the SQL fingerprint.
/// Thread-safe. Eviction only drops the cache's reference: outstanding
/// handles keep their statement alive and executable.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the statement for `fingerprint` (bumping its recency) or
  /// null.
  PreparedStatementPtr Lookup(const std::string& fingerprint);

  /// Inserts (or replaces) the statement, evicting the least recently
  /// used entry beyond capacity.
  void Insert(const PreparedStatementPtr& stmt);

  /// Drops one entry (DDL invalidation of a single stale statement).
  void Erase(const std::string& fingerprint);

  /// Drops everything (DDL invalidation).
  void Clear();

  size_t size() const;
  uint64_t evictions() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  // MRU-first recency list; the map holds list iterators for O(1) bumps.
  std::list<PreparedStatementPtr> lru_;
  std::unordered_map<std::string, std::list<PreparedStatementPtr>::iterator>
      by_fingerprint_;
  uint64_t evictions_ = 0;
};

}  // namespace idf
