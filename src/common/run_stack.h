// RunStack: a stack of immutable sorted runs merged geometrically — the
// shared spine of the range index's cuts (indexed/range_index.h) and of a
// standing view's published trace (view/view_trace.h).
//
// Each Push() lays one new run on top, then merges the top run into the
// one below while that one holds at most twice its entries. Run sizes
// therefore more than double from the top of the stack down: a stack over
// n entries holds O(log n) runs, and every entry is copied O(log n) times
// over its lifetime. Runs on the stack are shared (shared_ptr<const Run>)
// with every reader that copied runs() earlier; a merge builds a new run
// and never touches them, so an old reader's view stays intact. The run
// being pushed is still private while it merges down, so a merge copies
// the older run's entries and moves the newer run's.
//
// `Run` provides `size_t size() const` and
// `static Run Merge(const Run& older, Run&& newer)`. A merge may shrink
// (the view trace cancels retractions); an empty result is dropped.
//
// Not thread-safe: one writer mutates the stack; readers copy runs().
#pragma once

#include <memory>
#include <utility>
#include <vector>

namespace idf {

template <typename Run>
class RunStack {
 public:
  using RunPtr = std::shared_ptr<const Run>;

  /// Lays `run` on top (an empty run is skipped) and merges geometrically.
  void Push(Run run) {
    while (run.size() > 0 && !runs_.empty() &&
           runs_.back()->size() <= 2 * run.size()) {
      run = Run::Merge(*runs_.back(), std::move(run));
      runs_.pop_back();
    }
    if (run.size() > 0) runs_.push_back(std::make_shared<const Run>(std::move(run)));
  }

  /// Merges every run into one. Smallest runs first: the growing merge
  /// meets ever larger runs, so the copy work stays linear in the entries.
  void MergeAll() {
    if (runs_.size() < 2) return;
    Run merged = *runs_.back();
    runs_.pop_back();
    while (!runs_.empty()) {
      merged = Run::Merge(*runs_.back(), std::move(merged));
      runs_.pop_back();
    }
    if (merged.size() > 0) runs_.push_back(std::make_shared<const Run>(std::move(merged)));
  }

  /// Oldest (largest) first.
  const std::vector<RunPtr>& runs() const { return runs_; }

  /// Entries across every run.
  size_t entries() const {
    size_t n = 0;
    for (const RunPtr& run : runs_) n += run->size();
    return n;
  }

 private:
  std::vector<RunPtr> runs_;
};

}  // namespace idf
