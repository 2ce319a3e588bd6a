// The published side of a standing view (DESIGN.md §13): a trace of
// immutable sorted delta runs, shared by every snapshot that was
// published while the run was on the stack (the "trace" of Shared
// Arrangements, McSherry et al.).
//
// Each maintenance pass pushes ONE DeltaRun holding what that pass changed
// in the published result: new rows at +1 (select and join views), or,
// for aggregates, each changed group's previous row at -1 and its new row
// at +1. The run stack (common/run_stack.h) merges the top run into the
// one below while that one holds at most twice its entries; merges sum
// the diffs of equal rows and drop zeros, so a trace over n published
// rows holds O(log n) runs and the bottom run is the consolidated result
// of everything below the newer runs. Publishing therefore costs the
// pass's changed rows plus amortized merge work — never the whole view.
//
// Readers consolidate: a ViewSnapshot's `rows` handle builds the published
// rows on first dereference, applies the view's read-side post-ops (Sort,
// Limit and anything above them), and caches the result. The work happens
// once per snapshot, thread-safely, on whichever thread reads first — for
// a callback that reads, that is the appender's thread inside
// QueryService::Append. Unread snapshots cost nothing.
//
// Two ways to build the rows:
//   from the runs      a k-way merge of every run the snapshot captured
//                      (sum diffs, drop zeros, expand multiplicities) and
//                      one copy of each published row;
//   from the previous  when the previous snapshot was already read when
//                      this one was published, the first reader applies
//                      only this pass's run to the previous rows. If this
//                      snapshot holds the last reference to the previous
//                      one, its rows are moved, not copied, so a
//                      subscriber that reads every snapshot pays for the
//                      changed rows plus a move of the others.
// Views with read-side post-ops always build from the runs (their cached
// rows are sorted/limited, not in run order).
//
// Without an ORDER BY the rows come out in the runs' hash order, which no
// caller may rely on. A read-side post-op that fails to evaluate leaves
// the rows empty and sets `rows.status()`; readers of views with ORDER BY
// or LIMIT must check it (the failures are counted in
// ViewManagerStats::read_errors).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/run_stack.h"
#include "types/row.h"
#include "view/view_plan.h"

namespace idf {

/// One immutable run of a view trace: distinct rows, each with a non-zero
/// signed multiplicity, ordered by (HashRow, RowLess) — a total order
/// whose comparisons are almost always one integer compare.
struct DeltaRun {
  RowVec rows;
  std::vector<uint64_t> hashes;  // HashRow of each row
  std::vector<int64_t> diffs;    // never zero

  size_t size() const { return rows.size(); }

  /// Sorts (row, diff) pairs into a run, summing the diffs of equal rows
  /// and dropping the zeros.
  static DeltaRun Build(RowVec rows, std::vector<int64_t> diffs);

  /// The consolidated union of two runs (RunStack's merge step; `newer`
  /// is consumed).
  static DeltaRun Merge(const DeltaRun& older, DeltaRun&& newer);
};
using DeltaRunPtr = std::shared_ptr<const DeltaRun>;
using ViewTrace = RunStack<DeltaRun>;

/// What readers of one view run when they consolidate a snapshot.
struct ViewReadSide {
  std::vector<ViewPostOp> post;  // Sort, Limit and anything above them
  /// Bumped on every read whose post-ops failed (shared with the manager).
  std::shared_ptr<std::atomic<uint64_t>> errors;
};
using ViewReadSidePtr = std::shared_ptr<const ViewReadSide>;

/// The rows of one published snapshot: `*rows` is a `const RowVec&` and
/// `rows->size()` works as on a plain shared_ptr<const RowVec>. The first
/// dereference (from any thread; later ones wait for it) builds the rows
/// and runs the read-side post-ops; the result is cached.
class ViewRows {
 public:
  /// A trace-backed result: `runs` as captured at publish, `read` the
  /// view's read-side post-ops (null = none). `previous` (optional, only
  /// without read-side post-ops) is the previous snapshot's rows, already
  /// Reusable(), and `delta` a private copy of the run this snapshot's
  /// pass pushed: the first reader then applies `delta` to them instead of
  /// merging `runs`.
  ViewRows(std::vector<DeltaRunPtr> runs, ViewReadSidePtr read,
           std::shared_ptr<const ViewRows> previous = nullptr,
           std::unique_ptr<DeltaRun> delta = nullptr);
  /// An already consolidated result (the recompute fallback).
  explicit ViewRows(RowVec rows);

  ViewRows(const ViewRows&) = delete;
  ViewRows& operator=(const ViewRows&) = delete;

  const RowVec& operator*() const { return Get(); }
  const RowVec* operator->() const { return &Get(); }

  /// OK unless a read-side post-op failed to evaluate, in which case the
  /// rows are empty. Consolidates first if no reader has yet.
  Status status() const {
    Get();
    return status_;
  }

  /// The runs this snapshot captured (empty for a consolidated result).
  const std::vector<DeltaRunPtr>& runs() const { return runs_; }

  /// True once a reader built the rows in run order (no read-side
  /// post-ops): the next snapshot may then start from them.
  bool Reusable() const { return reusable_.load(std::memory_order_acquire); }

  /// How the rows were built (consolidates first if no reader has yet).
  enum class Build : uint8_t { kGiven, kMergedRuns, kCopiedPrevious, kMovedPrevious };
  Build build() const {
    Get();
    return build_;
  }

 private:
  const RowVec& Get() const;
  void Consolidate() const;
  void MergeRuns() const;
  void ApplyToPrevious() const;

  std::vector<DeltaRunPtr> runs_;
  ViewReadSidePtr read_;
  mutable std::shared_ptr<const ViewRows> previous_;  // dropped on first read
  mutable std::unique_ptr<DeltaRun> delta_;  // dropped on first read
  mutable std::once_flag once_;
  mutable std::atomic<bool> reusable_{false};
  mutable Build build_ = Build::kGiven;
  mutable RowVec rows_;
  // HashRow of each of rows_ while they are in run order (no post-ops).
  mutable std::vector<uint64_t> hashes_;
  mutable Status status_;
};

/// One immutable published result. `epoch` is the service epoch the state
/// reflects; `version` increments on every publish of this view.
struct ViewSnapshot {
  ViewSnapshot(uint64_t epoch, uint64_t version, SchemaPtr schema,
               std::vector<DeltaRunPtr> runs, ViewReadSidePtr read,
               std::shared_ptr<const ViewRows> previous,
               std::unique_ptr<DeltaRun> delta)
      : epoch(epoch),
        version(version),
        schema(std::move(schema)),
        rows(std::move(runs), std::move(read), std::move(previous),
             std::move(delta)) {}
  ViewSnapshot(uint64_t epoch, uint64_t version, SchemaPtr schema,
               RowVec consolidated)
      : epoch(epoch),
        version(version),
        schema(std::move(schema)),
        rows(std::move(consolidated)) {}

  uint64_t epoch = 0;
  uint64_t version = 0;
  SchemaPtr schema;
  ViewRows rows;
};
using ViewSnapshotPtr = std::shared_ptr<const ViewSnapshot>;

}  // namespace idf
