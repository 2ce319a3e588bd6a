// Updatable sorted range index (DESIGN.md §14): per generation, a stack
// of immutable sorted runs of (key, position). `<`, `<=`, `>`, `>=`, and
// BETWEEN probes binary-search every run and emit the positions inside the
// bounds. Each publish sorts only the entries added since the previous cut
// into a new run and pushes it on a RunStack (common/run_stack.h, shared
// with the standing views' published traces), which merges it into the run
// below while that one holds at most twice its entries, so a commit costs
// its own entries (amortized O(log n) merge work each) and a cut holds
// O(log n) runs. Cuts are fully
// immutable: a pinned reader's probe never observes a half-applied update.
// Compaction rebuilds the index and merges all runs into one.
//
// Concurrency matches bitmap_index.h: one appender under the partition
// write lock; immutable cuts published by the owner via atomic shared_ptr.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/run_stack.h"
#include "types/value.h"

namespace idf {

/// One immutable sorted run: parallel (keys, positions) arrays ordered by
/// key, position-ascending among equal keys (deterministic rebuilds).
struct SortedRun {
  std::vector<Value> keys;
  std::vector<uint32_t> pos;
  uint64_t epoch = 0;  ///< newest publish sequence whose entries it holds

  size_t size() const { return keys.size(); }

  /// Sorts the parallel arrays (used when a run is built).
  void Sort();

  /// The sorted union of two runs (RunStack's merge step; `newer` is
  /// consumed).
  static SortedRun Merge(const SortedRun& older, SortedRun&& newer);

  /// [first, last) index window of entries inside the bounds (either bound
  /// may be absent = unbounded).
  void Bounds(const std::optional<Value>& lo, bool lo_inclusive,
              const std::optional<Value>& hi, bool hi_inclusive,
              size_t* first, size_t* last) const;
};
using SortedRunPtr = std::shared_ptr<const SortedRun>;

/// Immutable snapshot of one range index.
class RangeIndexCut {
 public:
  /// Appends every position whose key lies inside the bounds to `out`
  /// (unsorted across runs; the caller sorts the union once). Returns the
  /// number appended.
  size_t Probe(const std::optional<Value>& lo, bool lo_inclusive,
               const std::optional<Value>& hi, bool hi_inclusive,
               std::vector<uint32_t>* out) const;

  /// Matching-entry count without materializing positions — the costing
  /// statistic (a pair of binary searches per run).
  uint64_t CountInRange(const std::optional<Value>& lo, bool lo_inclusive,
                        const std::optional<Value>& hi,
                        bool hi_inclusive) const;

  uint64_t keys_indexed() const { return keys_indexed_; }
  const std::vector<SortedRunPtr>& runs() const { return runs_; }

  size_t MemoryBytesEstimate() const;

 private:
  friend class RangeIndexBuilder;
  std::vector<SortedRunPtr> runs_;
  uint64_t keys_indexed_ = 0;
};
using RangeIndexCutPtr = std::shared_ptr<const RangeIndexCut>;

/// Appender-side state of one range index (one writer, partition write
/// lock held). Add() collects entries; BuildCut() sorts them into a run so
/// the published cut is immutable.
class RangeIndexBuilder {
 public:
  /// Records `key` at `pos`; null keys are the caller's concern.
  void Add(const Value& key, uint32_t pos);

  /// Builds the cut reflecting every Add() so far: the entries added since
  /// the last cut become one sorted run, merged into the run below while
  /// that one holds at most twice its entries. Run sizes therefore more
  /// than double from the top of the stack down.
  RangeIndexCutPtr BuildCut(uint64_t epoch);

  /// Merges every run and the pending entries into one sorted run
  /// (compaction's rebuild step — probes then binary-search once).
  void MergeAll(uint64_t epoch);

 private:
  /// Sorts the pending entries into a run on top of the stack.
  void PushPending(uint64_t epoch);

  RunStack<SortedRun> runs_;
  SortedRun pending_;  // unsorted entries since the last cut
  uint64_t count_ = 0;
};

}  // namespace idf
