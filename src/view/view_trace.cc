#include "view/view_trace.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace idf {

namespace {

/// Three-way Value::operator<, with direct paths for the common
/// same-type cells.
int CompareValues(const Value& a, const Value& b) {
  if (a.is_int64() && b.is_int64()) {
    const int64_t x = a.int64_value();
    const int64_t y = b.int64_value();
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  if (a.is_string() && b.is_string()) {
    const int c = a.string_value().compare(b.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a < b) return -1;
  return b < a ? 1 : 0;
}

/// The run order: by hash, then RowLess among equal hashes. Rows that
/// RowLess cannot tell apart hash equally (Value::Hash agrees with
/// Value::operator==), so they stay adjacent.
int CompareEntries(uint64_t ha, const Row& a, uint64_t hb, const Row& b) {
  if (ha != hb) return ha < hb ? -1 : 1;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (const int c = CompareValues(a[i], b[i]); c != 0) return c;
  }
  return a.size() < b.size() ? -1 : (b.size() < a.size() ? 1 : 0);
}

}  // namespace

DeltaRun DeltaRun::Build(RowVec rows, std::vector<int64_t> diffs) {
  std::vector<uint64_t> hashes(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) hashes[i] = HashRow(rows[i]);
  std::vector<uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareEntries(hashes[a], rows[a], hashes[b], rows[b]) < 0;
  });
  DeltaRun run;
  run.rows.reserve(rows.size());
  run.hashes.reserve(rows.size());
  run.diffs.reserve(rows.size());
  auto drop_zero_tail = [&run] {
    if (!run.diffs.empty() && run.diffs.back() == 0) {
      run.rows.pop_back();
      run.hashes.pop_back();
      run.diffs.pop_back();
    }
  };
  for (uint32_t i : order) {
    if (!run.rows.empty() &&
        CompareEntries(run.hashes.back(), run.rows.back(), hashes[i],
                       rows[i]) == 0) {
      run.diffs.back() += diffs[i];
      continue;
    }
    drop_zero_tail();
    run.rows.push_back(std::move(rows[i]));
    run.hashes.push_back(hashes[i]);
    run.diffs.push_back(diffs[i]);
  }
  drop_zero_tail();
  return run;
}

DeltaRun DeltaRun::Merge(const DeltaRun& older, DeltaRun&& newer) {
  // `older` stays shared with earlier snapshots, so its rows are copied;
  // `newer` is private to the stack's push, so its rows move.
  DeltaRun merged;
  const size_t n = older.size() + newer.size();
  merged.rows.reserve(n);
  merged.hashes.reserve(n);
  merged.diffs.reserve(n);
  size_t i = 0;
  size_t j = 0;
  while (i < older.size() || j < newer.size()) {
    const int c = i == older.size()   ? 1
                  : j == newer.size() ? -1
                                      : CompareEntries(older.hashes[i], older.rows[i],
                                                       newer.hashes[j], newer.rows[j]);
    if (c < 0) {
      merged.rows.push_back(older.rows[i]);
      merged.hashes.push_back(older.hashes[i]);
      merged.diffs.push_back(older.diffs[i++]);
      continue;
    }
    const int64_t d = newer.diffs[j] + (c == 0 ? older.diffs[i++] : 0);
    if (d != 0) {
      merged.rows.push_back(std::move(newer.rows[j]));
      merged.hashes.push_back(newer.hashes[j]);
      merged.diffs.push_back(d);
    }
    ++j;
  }
  return merged;
}

ViewRows::ViewRows(std::vector<DeltaRunPtr> runs, ViewReadSidePtr read,
                   std::shared_ptr<const ViewRows> previous,
                   std::unique_ptr<DeltaRun> delta)
    : runs_(std::move(runs)), read_(std::move(read)) {
  if (read_ == nullptr && previous != nullptr && delta != nullptr &&
      previous->Reusable()) {
    previous_ = std::move(previous);
    delta_ = std::move(delta);
  }
}

ViewRows::ViewRows(RowVec rows) : rows_(std::move(rows)) {
  std::call_once(once_, [] {});  // nothing left to consolidate
}

const RowVec& ViewRows::Get() const {
  std::call_once(once_, [this] { Consolidate(); });
  return rows_;
}

void ViewRows::Consolidate() const {
  if (previous_ != nullptr) {
    ApplyToPrevious();
  } else {
    MergeRuns();
  }
  if (read_ == nullptr) {
    reusable_.store(true, std::memory_order_release);
    return;
  }
  hashes_ = {};
  status_ = ApplyPostOps(read_->post, &rows_);
  if (!status_.ok()) {
    rows_.clear();
    if (read_->errors != nullptr) {
      read_->errors->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ViewRows::MergeRuns() const {
  // k-way merge over the run heads: k is O(log n) and the heads almost
  // always differ in their hash, so picking the least head is a few
  // integer compares. Equal rows across runs sum their diffs.
  build_ = Build::kMergedRuns;
  const size_t k = runs_.size();
  std::vector<size_t> pos(k, 0);
  size_t total = 0;
  for (const DeltaRunPtr& run : runs_) total += run->size();
  rows_.reserve(total);
  hashes_.reserve(total);
  for (;;) {
    size_t least = k;
    for (size_t r = 0; r < k; ++r) {
      if (pos[r] == runs_[r]->size()) continue;
      if (least == k ||
          CompareEntries(runs_[r]->hashes[pos[r]], runs_[r]->rows[pos[r]],
                         runs_[least]->hashes[pos[least]],
                         runs_[least]->rows[pos[least]]) < 0) {
        least = r;
      }
    }
    if (least == k) break;
    const DeltaRun& min_run = *runs_[least];
    const size_t at = pos[least];
    int64_t diff = 0;
    for (size_t r = 0; r < k; ++r) {
      if (pos[r] == runs_[r]->size()) continue;
      if (r == least ||
          CompareEntries(runs_[r]->hashes[pos[r]], runs_[r]->rows[pos[r]],
                         min_run.hashes[at], min_run.rows[at]) == 0) {
        diff += runs_[r]->diffs[pos[r]];
        if (r != least) ++pos[r];
      }
    }
    for (int64_t c = 0; c < diff; ++c) {
      rows_.push_back(min_run.rows[at]);
      hashes_.push_back(min_run.hashes[at]);
    }
    ++pos[least];
  }
}

void ViewRows::ApplyToPrevious() const {
  // The previous snapshot's rows, in run order with their hashes, plus
  // this pass's run: one linear merge. Sole owner of the previous
  // snapshot (no reader can reach it any more) -> its rows move. The
  // delta is this snapshot's private copy, so its rows always move.
  const bool owned = previous_.use_count() == 1;
  build_ = owned ? Build::kMovedPrevious : Build::kCopiedPrevious;
  RowVec& old_rows = previous_->rows_;
  const std::vector<uint64_t>& old_hashes = previous_->hashes_;
  DeltaRun& delta = *delta_;
  rows_.reserve(old_rows.size() + delta.size());
  hashes_.reserve(old_rows.size() + delta.size());
  auto take = [&](size_t i) {
    rows_.push_back(owned ? std::move(old_rows[i]) : old_rows[i]);
    hashes_.push_back(old_hashes[i]);
  };
  size_t i = 0;
  for (size_t j = 0; j < delta.size(); ++j) {
    int c = -1;
    while (i < old_rows.size() &&
           (c = CompareEntries(old_hashes[i], old_rows[i], delta.hashes[j],
                               delta.rows[j])) < 0) {
      take(i++);
    }
    if (i == old_rows.size()) c = 1;
    // Equal rows sit together: `have` copies of this one so far.
    int64_t have = 0;
    while (c == 0) {
      ++have;
      ++i;
      c = i < old_rows.size() ? CompareEntries(old_hashes[i], old_rows[i],
                                               delta.hashes[j], delta.rows[j])
                              : 1;
    }
    for (int64_t n = have + delta.diffs[j]; n > 0; --n) {
      rows_.push_back(n == 1 ? std::move(delta.rows[j]) : delta.rows[j]);
      hashes_.push_back(delta.hashes[j]);
    }
  }
  while (i < old_rows.size()) take(i++);
  previous_.reset();
  delta_.reset();
}

}  // namespace idf
