// Standing-query plan analysis: classifies an optimized logical plan into
// a maintainable ViewSpec — the shape the incremental maintenance pass
// knows how to advance delta-at-a-time — and derives the normalized
// fingerprint that lets subscribers with the same plan share one
// maintained arrangement (Shared Arrangements, McSherry et al.).
//
// The classifier sees the plan after the built-in optimizer batch, so a
// WHERE conjunct over one join side already sits on that side's scan
// (PushFilterThroughJoin) and a WHERE over a projection sits below it
// (PushFilterThroughProject): it becomes an input predicate that the delta
// filters and the join probes apply, instead of a filter over the whole
// maintained result.
//
// Maintainable cores (everything append-only; the store never deletes):
//
//   kSelect     Filter?(Scan(t))             — the filter runs compiled/
//               vectorized over the encoded delta.
//   kAggregate  Aggregate(Filter?(Scan(t))) or
//               Aggregate(Join(Filter?(Scan(a)), Filter?(Scan(b)))) —
//               resident per-group AggStates; the delta's rows (over a
//               join: the joined rows the delta rule emits, Δγ(L⋈R) =
//               γ(ΔL⋈R_cur) + γ(L_prev⋈ΔR)) fold in via aggregate_common's
//               state kernels.
//   kJoin       Join(Filter?(Scan(a)), Filter?(Scan(b))) — inner equi-join
//               on plain columns; deltas probe the other side's pinned
//               cTrie index, or scan it when its key has none.
//
// Above the core, any stack of Filter (HAVING, cross-side WHERE) / Project
// / Sort / TopK / Limit is peeled into post-ops. The innermost run of
// row-wise ops (Filter, Project) becomes `row_post`: it runs on each
// pass's changed rows before they enter the published trace (for an
// aggregate, on each changed group's finalized row), so the trace holds
// only published rows. The rest (Sort, Limit, and anything above them)
// becomes `post`, which readers run when they consolidate a snapshot.
// Every other shape degrades to kRecompute: the subscription still works,
// but each commit re-executes the query's cached physical plan against the
// fresh epoch pin — correct, just not incremental (ViewManager counts
// these separately).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/logical_plan.h"
#include "sql/predicate_compiler.h"

namespace idf {

enum class ViewKind : uint8_t { kSelect, kAggregate, kJoin, kRecompute };

std::string ViewKindToString(ViewKind kind);

/// One base-table input of a maintainable core: the scan plus the optional
/// predicate bound to the table schema (the compiled/vectorized filter of
/// the delta path is built from it at subscribe time).
struct ViewInput {
  std::string table;
  SchemaPtr schema;
  ExprPtr predicate;  // bound to `schema`; null = keep every row
};

/// One operator peeled from above the core, applied innermost-first —
/// either to each pass's changed rows (ViewSpec::row_post) or by readers
/// to a consolidated snapshot (ViewSpec::post).
struct ViewPostOp {
  enum Kind : uint8_t { kFilter, kProject, kSort, kLimit } kind;
  ExprPtr predicate;                // kFilter (e.g. HAVING)
  std::vector<ExprPtr> exprs;       // kProject
  std::vector<SortKey> keys;        // kSort
  size_t limit = 0;                 // kLimit
};

/// A classified standing query.
struct ViewSpec {
  ViewKind kind = ViewKind::kRecompute;
  std::string sql;          // original text (re-executed by kRecompute)
  std::string fingerprint;  // normalized optimized-plan rendering
  SchemaPtr output_schema;  // final schema (after post-ops)

  /// Tables whose commits touch this view (deduplicated).
  std::vector<std::string> tables;

  // kSelect / kAggregate (unless over_join):
  ViewInput input;

  // kAggregate (exprs bound to the input schema, or to the joined row's
  // schema when over_join):
  std::vector<ExprPtr> group_exprs;
  std::vector<AggSpec> aggs;
  std::vector<TypeId> agg_out_types;
  bool over_join = false;  // the aggregate's input is the join below

  // kJoin, and kAggregate with over_join:
  ViewInput left, right;
  int left_key_col = -1;   // ordinal in left.schema
  int right_key_col = -1;  // ordinal in right.schema

  // Innermost (closest to core) first. `row_post` (only kFilter /
  // kProject) runs on each pass's changed rows before they enter the
  // trace; `post` runs when a reader consolidates a snapshot.
  std::vector<ViewPostOp> row_post;
  std::vector<ViewPostOp> post;

  /// The core joins two inputs (kJoin, or kAggregate over a join).
  bool joins() const {
    return kind == ViewKind::kJoin || (kind == ViewKind::kAggregate && over_join);
  }
};

/// Classifies `plan` (an analyzed plan, normally already optimized, whose
/// leaves are ScanNodes of registered tables). Never fails on shape —
/// unsupported shapes come back as kRecompute; errors are reserved for
/// malformed plans.
Result<ViewSpec> BuildViewSpec(const std::string& sql,
                               const LogicalPlanPtr& plan);

/// Deterministic rendering of a plan, used as the arrangement sharing key.
/// Two subscriptions share one arrangement iff their optimized plans
/// render identically (the analyzer normalizes name binding, so textual
/// variations like aliasing collapse; commutations like `1 = a` vs
/// `a = 1` do not — they maintain separate arrangements).
std::string PlanFingerprint(const LogicalPlanPtr& plan);

/// Applies a post-op pipeline to `rows` (in place); evaluation errors
/// abort the caller's delta or publish.
Status ApplyPostOps(const std::vector<ViewPostOp>& post, RowVec* rows);

/// Applies row-wise post-ops (ViewSpec::row_post: Filter / Project only) to
/// one row in place; false when a Filter drops it.
Result<bool> ApplyRowPostOps(const std::vector<ViewPostOp>& ops, Row* row);

}  // namespace idf
