#include "indexed/range_index.h"

#include <algorithm>
#include <numeric>

namespace idf {

namespace {

/// Sort order inside a run: by key, position-ascending among equal keys.
bool EntryLess(const Value& ka, uint32_t pa, const Value& kb, uint32_t pb) {
  if (ka < kb) return true;
  if (kb < ka) return false;
  return pa < pb;
}

}  // namespace

void SortedRun::Sort() {
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return EntryLess(keys[a], pos[a], keys[b], pos[b]);
  });
  std::vector<Value> sorted_keys;
  std::vector<uint32_t> sorted_pos;
  sorted_keys.reserve(keys.size());
  sorted_pos.reserve(pos.size());
  for (uint32_t i : order) {
    sorted_keys.push_back(std::move(keys[i]));
    sorted_pos.push_back(pos[i]);
  }
  keys = std::move(sorted_keys);
  pos = std::move(sorted_pos);
}

SortedRun SortedRun::Merge(const SortedRun& older, SortedRun&& newer) {
  const SortedRun& a = older;
  SortedRun& b = newer;
  SortedRun merged;
  merged.epoch = std::max(a.epoch, b.epoch);
  merged.keys.reserve(a.size() + b.size());
  merged.pos.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (EntryLess(b.keys[j], b.pos[j], a.keys[i], a.pos[i])) {
      merged.keys.push_back(std::move(b.keys[j]));
      merged.pos.push_back(b.pos[j++]);
    } else {
      merged.keys.push_back(a.keys[i]);
      merged.pos.push_back(a.pos[i++]);
    }
  }
  merged.keys.insert(merged.keys.end(), a.keys.begin() + i, a.keys.end());
  merged.pos.insert(merged.pos.end(), a.pos.begin() + i, a.pos.end());
  merged.keys.insert(merged.keys.end(),
                     std::make_move_iterator(b.keys.begin() + j),
                     std::make_move_iterator(b.keys.end()));
  merged.pos.insert(merged.pos.end(), b.pos.begin() + j, b.pos.end());
  return merged;
}

void SortedRun::Bounds(const std::optional<Value>& lo, bool lo_inclusive,
                       const std::optional<Value>& hi, bool hi_inclusive,
                       size_t* first, size_t* last) const {
  auto begin = keys.begin();
  auto end = keys.end();
  auto lo_it = begin;
  if (lo.has_value()) {
    lo_it = lo_inclusive ? std::lower_bound(begin, end, *lo)
                         : std::upper_bound(begin, end, *lo);
  }
  auto hi_it = end;
  if (hi.has_value()) {
    hi_it = hi_inclusive ? std::upper_bound(begin, end, *hi)
                         : std::lower_bound(begin, end, *hi);
  }
  *first = static_cast<size_t>(lo_it - begin);
  *last = static_cast<size_t>(std::max(lo_it, hi_it) - begin);
}

size_t RangeIndexCut::Probe(const std::optional<Value>& lo, bool lo_inclusive,
                            const std::optional<Value>& hi, bool hi_inclusive,
                            std::vector<uint32_t>* out) const {
  size_t appended = 0;
  for (const SortedRunPtr& run : runs_) {
    size_t first = 0;
    size_t last = 0;
    run->Bounds(lo, lo_inclusive, hi, hi_inclusive, &first, &last);
    for (size_t i = first; i < last; ++i) out->push_back(run->pos[i]);
    appended += last - first;
  }
  return appended;
}

uint64_t RangeIndexCut::CountInRange(const std::optional<Value>& lo,
                                     bool lo_inclusive,
                                     const std::optional<Value>& hi,
                                     bool hi_inclusive) const {
  uint64_t total = 0;
  for (const SortedRunPtr& run : runs_) {
    size_t first = 0;
    size_t last = 0;
    run->Bounds(lo, lo_inclusive, hi, hi_inclusive, &first, &last);
    total += last - first;
  }
  return total;
}

size_t RangeIndexCut::MemoryBytesEstimate() const {
  size_t bytes = sizeof(*this);
  for (const SortedRunPtr& run : runs_) {
    bytes += sizeof(SortedRun) + run->keys.size() * sizeof(Value) +
             run->pos.size() * sizeof(uint32_t);
  }
  return bytes;
}

void RangeIndexBuilder::Add(const Value& key, uint32_t pos) {
  pending_.keys.push_back(key);
  pending_.pos.push_back(pos);
  ++count_;
}

void RangeIndexBuilder::PushPending(uint64_t epoch) {
  if (pending_.size() == 0) return;
  pending_.Sort();
  pending_.epoch = epoch;
  runs_.Push(std::move(pending_));
  pending_ = SortedRun{};
}

RangeIndexCutPtr RangeIndexBuilder::BuildCut(uint64_t epoch) {
  PushPending(epoch);
  auto cut = std::make_shared<RangeIndexCut>();
  cut->runs_ = runs_.runs();
  cut->keys_indexed_ = count_;
  return cut;
}

void RangeIndexBuilder::MergeAll(uint64_t epoch) {
  PushPending(epoch);
  runs_.MergeAll();
}

}  // namespace idf
