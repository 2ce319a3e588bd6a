#include "indexed/indexed_partition.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "sql/index_costing.h"
#include "sql/logical_plan.h"

namespace idf {

SecondaryIndexSet::SecondaryIndexSet(SchemaPtr schema,
                                     std::vector<SecondaryIndexSpec> specs)
    : schema_(std::move(schema)),
      specs_(std::move(specs)),
      bitmaps_(specs_.size()),
      ranges_(specs_.size()) {}

SecondaryMaintenanceStats SecondaryIndexSet::PublishCut(const RowBatchStore& store) {
  SecondaryMaintenanceStats stats;
  const uint64_t limit = store.num_rows();
  const Schema& schema = *schema_;
  ++epoch_;
  auto cut = std::make_shared<SecondaryIndexCut>();
  cut->entries.reserve(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    const SecondaryIndexSpec& spec = specs_[s];
    // One index's whole upkeep is timed: feeding the new rows to its
    // builder and building its immutable cut.
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t pos = indexed_;
    store.ForEachRun(indexed_, limit, [&](const RowRun& run) {
      const uint8_t* const* payloads = run.payloads;
      for (size_t i = 0; i < run.count; ++i, ++pos) {
        // Null keys are stored but unindexed (same contract as the cTrie);
        // ProbeMatches never matches a null, so probe == scan still holds.
        if (RawColumnIsNull(payloads[i], spec.column)) continue;
        Value v = DecodeColumn(payloads[i], schema, spec.column);
        if (spec.kind == SecondaryIndexKind::kBitmap) {
          bitmaps_[s].Add(v, static_cast<uint32_t>(pos));
        } else {
          ranges_[s].Add(v, static_cast<uint32_t>(pos));
        }
      }
    });
    SecondaryIndexCut::Entry entry;
    entry.spec = spec;
    if (spec.kind == SecondaryIndexKind::kBitmap) {
      entry.bitmap = bitmaps_[s].BuildCut(epoch_);
    } else {
      entry.range = ranges_[s].BuildCut(epoch_);
    }
    cut->entries.push_back(std::move(entry));
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    (spec.kind == SecondaryIndexKind::kBitmap ? stats.bitmap_ns
                                              : stats.range_ns) += ns;
  }
  stats.rows = static_cast<size_t>(limit - indexed_);
  indexed_ = limit;
  cut->covered = limit;
  cut->epoch = epoch_;
  // The release edge of this store is what makes the plain segment writes
  // above visible to lock-free readers.
  std::atomic_store_explicit(&cut_, SecondaryIndexCutPtr(std::move(cut)),
                             std::memory_order_release);
  return stats;
}

void SecondaryIndexSet::MergeRuns() {
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (specs_[s].kind == SecondaryIndexKind::kRange) {
      ranges_[s].MergeAll(epoch_ + 1);
    }
  }
}

namespace {

int HistBucket(uint64_t chain_len) {
  int b = 0;
  while (chain_len > 1 && b < ChainStatsSnapshot::kHistBuckets - 1) {
    chain_len >>= 1;
    ++b;
  }
  return b;
}

void RecordAppend(PartitionGeneration& g, uint64_t hash, PackedPointer ptr) {
  PartitionGeneration::KeyStat& st = g.key_stats[hash];
  if (st.chain_len == 0) st.first_batch = ptr.batch();
  st.last_batch = ptr.batch();
  st.chain_len += 1;
}

/// Publishes `head` as the key's newest row: a store into the key's trie
/// cell when the appender found one, else the key's first insert. Either
/// way the key never shows without a head.
void PublishHead(PartitionGeneration& g, uint64_t hash,
                 std::atomic<uint64_t>* cell, PackedPointer head) {
  if (cell != nullptr) {
    cell->store(head.bits(), std::memory_order_release);
  } else {
    g.index.Insert(hash, head.bits());
  }
}

}  // namespace

void ChainStatsSnapshot::Merge(const ChainStatsSnapshot& o) {
  num_keys += o.num_keys;
  total_links += o.total_links;
  max_chain_len = std::max(max_chain_len, o.max_chain_len);
  sum_batch_span += o.sum_batch_span;
  max_batch_span = std::max(max_batch_span, o.max_batch_span);
  for (int i = 0; i < kHistBuckets; ++i) {
    chain_len_histogram[i] += o.chain_len_histogram[i];
  }
  skipping_lookups += o.skipping_lookups;
  rows_skipped += o.rows_skipped;
}

std::string ChainStatsSnapshot::ToString() const {
  std::string s = "chains{keys=" + std::to_string(num_keys) +
                  ", links=" + std::to_string(total_links) +
                  ", max_len=" + std::to_string(max_chain_len) +
                  ", mean_span=" + std::to_string(MeanBatchSpan()) +
                  ", max_span=" + std::to_string(max_batch_span) +
                  ", skipping_lookups=" + std::to_string(skipping_lookups) +
                  ", rows_skipped=" + std::to_string(rows_skipped) + ", hist=[";
  for (int i = 0; i < kHistBuckets; ++i) {
    if (i > 0) s += ",";
    s += std::to_string(chain_len_histogram[i]);
  }
  return s + "]}";
}

IndexedPartition::IndexedPartition(SchemaPtr schema, int indexed_col,
                                   const EngineConfig& config)
    : schema_(std::move(schema)),
      indexed_col_(indexed_col),
      batch_bytes_(config.row_batch_bytes),
      max_row_bytes_(config.max_row_bytes),
      gen_(std::make_shared<PartitionGeneration>(*schema_, config.row_batch_bytes,
                                                 config.max_row_bytes)) {}

Status IndexedPartition::Append(const Row& row) {
  // The appender holds the partition write lock, which also excludes
  // compaction swaps: a plain generation read is safe here.
  return AppendToGen(*gen_, row);
}

Status IndexedPartition::AppendToGen(PartitionGeneration& g, const Row& row) {
  const Value& key = row[static_cast<size_t>(indexed_col_)];
  // Null keys are stored but unindexed; lookups of a null key return nothing.
  uint64_t h = 0;
  std::atomic<uint64_t>* cell = nullptr;  // the key's head; null: a new key
  PackedPointer back_pointer = PackedPointer::Null();
  uint32_t prev_size = 0;
  if (!key.is_null()) {
    h = key.Hash();
    cell = g.index.Cell(h);
    if (cell != nullptr) {
      back_pointer = PackedPointer(cell->load(std::memory_order_relaxed));
      prev_size = EncodedRowSize(g.store.PayloadAt(back_pointer), *schema_);
    }
  }
  IDF_ASSIGN_OR_RETURN(PackedPointer ptr,
                       g.store.StageRow(*schema_, row, back_pointer, prev_size));
  if (!key.is_null()) {
    // Head first, row count second (see the file comment in the header):
    // a reader that sees the head can dereference the staged row, and a
    // watermark that covers the row finds it from the head.
    PublishHead(g, h, cell, ptr);
    RecordAppend(g, h, ptr);
  }
  g.store.PublishStaged();
  SecondaryIndexSetPtr sec =
      std::atomic_load_explicit(&g.secondary, std::memory_order_acquire);
  if (sec != nullptr) sec->PublishCut(g.store);
  return Status::OK();
}

Status IndexedPartition::AppendBatch(const std::vector<EncodedRowRef>& rows,
                                     AppendBatchResult* result) {
  PartitionGeneration& g = *gen_;  // caller holds the partition write lock
  SecondaryIndexSetPtr sec =
      std::atomic_load_explicit(&g.secondary, std::memory_order_acquire);
  // The head of each key touched by this batch: seeded from the key's trie
  // cell on first occurrence (one descent), then advanced locally so
  // intra-batch chain links are built without republishing intermediate
  // heads.
  struct LocalHead {
    std::atomic<uint64_t>* cell = nullptr;  // null: the key is new
    PackedPointer head;
    uint32_t head_size = 0;
  };
  std::unordered_map<uint64_t, LocalHead> heads;
  heads.reserve(rows.size());
  AppendBatchResult local;
  Status error;

  for (const EncodedRowRef& row : rows) {
    if (row.size > max_row_bytes_) {
      error = Status::CapacityError(
          "encoded row of " + std::to_string(row.size) +
          " bytes exceeds max_row_bytes=" + std::to_string(max_row_bytes_));
      break;
    }
    PackedPointer back = PackedPointer::Null();
    uint32_t prev_size = 0;
    LocalHead* slot = nullptr;
    if (row.indexed) {
      auto [it, inserted] = heads.try_emplace(row.hash);
      slot = &it->second;
      if (inserted) {
        slot->cell = g.index.Cell(row.hash);
        if (slot->cell != nullptr) {
          slot->head = PackedPointer(slot->cell->load(std::memory_order_relaxed));
          slot->head_size = EncodedRowSize(g.store.PayloadAt(slot->head), *schema_);
        }
      } else {
        local.links_coalesced += 1;
      }
      back = slot->head;
      prev_size = slot->head_size;
    }
    auto ptr_res = g.store.StageEncoded(row.payload, row.size, back, prev_size);
    if (!ptr_res.ok()) {
      error = ptr_res.status();
      break;
    }
    const PackedPointer ptr = ptr_res.ValueUnsafe();
    local.rows_appended += 1;
    if (row.indexed) {
      slot->head = ptr;
      slot->head_size = row.size;
      RecordAppend(g, row.hash, ptr);
    }
  }

  // Publish one head per key, after every row of the batch (or of the
  // prefix that made it in) is staged; then publish the rows themselves.
  // A view taken before PublishStaged skips the new heads' rows by its
  // watermark, and a view taken after finds every row from its head.
  for (const auto& [hash, slot] : heads) {
    if (slot.head.is_null()) continue;  // key never landed a row
    PublishHead(g, hash, slot.cell, slot.head);
    local.keys_published += 1;
  }
  g.store.PublishStaged();
  // Secondary-index maintenance rides inside the same lock acquisition:
  // one cut publish per batch. On error the committed prefix is indexed,
  // matching the store and the cTrie heads above.
  if (sec != nullptr) local.maintenance = sec->PublishCut(g.store);
  if (result != nullptr) *result = local;
  return error;
}

Status IndexedPartition::AddSecondaryIndexLocked(const SecondaryIndexSpec& spec) {
  if (spec.column < 0 || spec.column >= schema_->num_fields()) {
    return Status::IndexError("secondary index column ordinal " +
                              std::to_string(spec.column) +
                              " out of range for schema " + schema_->ToString());
  }
  if (spec.kind != SecondaryIndexKind::kBitmap &&
      spec.kind != SecondaryIndexKind::kRange) {
    return Status::InvalidArgument("secondary index kind must be bitmap or range");
  }
  PartitionGeneration& g = *gen_;  // caller holds the partition write lock
  SecondaryIndexSetPtr old =
      std::atomic_load_explicit(&g.secondary, std::memory_order_acquire);
  std::vector<SecondaryIndexSpec> specs;
  if (old != nullptr) {
    specs = old->specs();
    for (const SecondaryIndexSpec& s : specs) {
      if (s.column == spec.column) {
        return Status::InvalidArgument(
            "column '" + schema_->field(spec.column).name +
            "' already has a secondary index");
      }
    }
  }
  specs.push_back(spec);
  // Backfill a replacement set from the rows already in the store (the
  // position space is the store's append ordinals, so rebuilding every
  // index from scratch keeps registration one code path; readers holding
  // the old set's cuts stay valid). The write lock excludes appends, so
  // the store's row count is the exact backfill boundary.
  auto fresh = std::make_shared<SecondaryIndexSet>(schema_, std::move(specs));
  fresh->PublishCut(g.store);
  std::atomic_store_explicit(&g.secondary, std::move(fresh),
                             std::memory_order_release);
  return Status::OK();
}

std::vector<SecondaryIndexSpec> IndexedPartition::secondary_specs() const {
  PartitionGenerationPtr g = gen();
  SecondaryIndexSetPtr set =
      std::atomic_load_explicit(&g->secondary, std::memory_order_acquire);
  return set != nullptr ? set->specs() : std::vector<SecondaryIndexSpec>{};
}

IndexedPartition::View IndexedPartition::Snapshot() const {
  // Lock-free vs both appends and compaction swaps: grab the generation
  // first, then read inside it. If a swap lands in between we read the
  // old (frozen, still complete) generation. The secondary cut is captured
  // BEFORE the watermark, so cut.covered <= wm.num_rows, which
  // ProbeSecondary relies on. The trie needs no capture: lookups read the
  // live one and the watermark bounds their chains.
  PartitionGenerationPtr g = gen();
  SecondaryIndexSetPtr set =
      std::atomic_load_explicit(&g->secondary, std::memory_order_acquire);
  SecondaryIndexCutPtr cut = set != nullptr ? set->cut() : nullptr;
  StoreWatermark wm = g->store.Watermark();
  return View(schema_, indexed_col_, std::move(g), wm, std::move(cut));
}

size_t IndexedPartition::index_bytes() const {
  PartitionGenerationPtr g = gen();
  return g->index.LiveMemoryBytes() + g->store.directory_bytes();
}

ChainStatsSnapshot IndexedPartition::ChainStats() const {
  const PartitionGeneration& g = *gen_;
  ChainStatsSnapshot out;
  for (const auto& [hash, st] : g.key_stats) {
    (void)hash;
    out.num_keys += 1;
    out.total_links += st.chain_len;
    out.max_chain_len = std::max<uint64_t>(out.max_chain_len, st.chain_len);
    const uint64_t span = st.last_batch - st.first_batch + 1;
    out.sum_batch_span += span;
    out.max_batch_span = std::max(out.max_batch_span, span);
    out.chain_len_histogram[HistBucket(st.chain_len)] += 1;
  }
  out.skipping_lookups = g.skipping_lookups.load(std::memory_order_relaxed);
  out.rows_skipped = g.rows_skipped.load(std::memory_order_relaxed);
  return out;
}

Status IndexedPartition::CompactLocked(CompactionResult* result) {
  PartitionGenerationPtr old_gen = gen_;
  auto fresh =
      std::make_shared<PartitionGeneration>(*schema_, batch_bytes_, max_row_bytes_);
  const Schema& schema = *schema_;

  // Collect every chain of the old generation: (hash, pointers newest
  // first). The partition lock excludes every trie writer, so a walk of
  // the live root sees everything.
  struct Chain {
    uint64_t hash;
    std::vector<PackedPointer> ptrs;  // newest first (walk order)
  };
  std::vector<Chain> chains;
  old_gen->index.ForEach([&](uint64_t hash, uint64_t head) {
    Chain c;
    c.hash = hash;
    for (PackedPointer p(head); !p.is_null(); p = old_gen->store.BackPointerAt(p)) {
      c.ptrs.push_back(p);
    }
    chains.push_back(std::move(c));
  });
  // Hottest chains first, so the longest chains land maximally clustered
  // at the front of the new store; hash as tie-break for determinism.
  std::sort(chains.begin(), chains.end(), [](const Chain& a, const Chain& b) {
    if (a.ptrs.size() != b.ptrs.size()) return a.ptrs.size() > b.ptrs.size();
    return a.hash < b.hash;
  });

  CompactionResult local;
  for (const Chain& c : chains) {
    PackedPointer back = PackedPointer::Null();
    uint32_t prev_size = 0;
    // Rewrite oldest -> newest so back pointers again yield newest-first.
    for (auto it = c.ptrs.rbegin(); it != c.ptrs.rend(); ++it) {
      const uint8_t* payload = old_gen->store.PayloadAt(*it);
      const uint32_t size = EncodedRowSize(payload, schema);
      IDF_ASSIGN_OR_RETURN(PackedPointer ptr, fresh->store.AppendEncoded(
                                                  payload, size, back, prev_size));
      back = ptr;
      prev_size = size;
      RecordAppend(*fresh, c.hash, ptr);
    }
    fresh->index.Insert(c.hash, back.bits());
    local.chains_rewritten += 1;
    local.links_rewritten += c.ptrs.size();
  }

  // Null-key rows are unindexed and unreachable from any chain: carry them
  // over in append order through the old store's row directory.
  const size_t old_rows = old_gen->store.num_rows();
  for (size_t pos = 0; pos < old_rows; ++pos) {
    const uint8_t* payload = old_gen->store.PayloadOfRow(pos);
    if (!RawColumnIsNull(payload, indexed_col_)) continue;
    IDF_RETURN_NOT_OK(fresh->store
                          .AppendEncoded(payload, EncodedRowSize(payload, schema),
                                         PackedPointer::Null(), /*prev_size=*/0)
                          .status());
  }

  if (fresh->store.num_rows() != old_rows) {
    // Leave the live generation untouched; the partially built one dies.
    return Status::Internal(
        "compaction row-count mismatch: rewrote " +
        std::to_string(fresh->store.num_rows()) + " of " +
        std::to_string(old_gen->store.num_rows()) + " rows");
  }

  // Rebuild the secondary indexes over the rewritten (chain-clustered)
  // position space; range runs are merged into one so post-compaction
  // probes binary-search a single run. Readers holding old-generation
  // views keep the old cuts, which resolve through the old store.
  SecondaryIndexSetPtr old_sec =
      std::atomic_load_explicit(&old_gen->secondary, std::memory_order_acquire);
  if (old_sec != nullptr) {
    auto fresh_sec = std::make_shared<SecondaryIndexSet>(schema_, old_sec->specs());
    fresh_sec->PublishCut(fresh->store);  // feeds the builders (sealed runs/segments)
    fresh_sec->MergeRuns();
    fresh_sec->PublishCut(fresh->store);  // republish with each range index merged
    std::atomic_store_explicit(&fresh->secondary, std::move(fresh_sec),
                               std::memory_order_release);
  }

  local.retired = old_gen;
  local.retired_bytes =
      old_gen->store.allocated_bytes() + old_gen->index.MemoryBytesEstimate();
  // Publish the new generation. Readers that already grabbed the old one
  // keep a consistent (frozen) view; new snapshots see the rewrite.
  std::atomic_store_explicit(&gen_, std::move(fresh), std::memory_order_release);
  if (result != nullptr) *result = std::move(local);
  return Status::OK();
}

RowVec IndexedPartition::View::GetRows(const Value& key) const {
  RowVec out;
  const Schema& schema = *schema_;
  ForEachRawRow(key, [&out, &schema](const uint8_t* payload) {
    out.push_back(DecodeRow(payload, schema));
  });
  return out;
}

size_t IndexedPartition::View::GetRawRows(
    const Value& key, std::vector<const uint8_t*>* out) const {
  return ForEachRawRow(key,
                       [out](const uint8_t* payload) { out->push_back(payload); });
}

void IndexedPartition::View::ScanChain(
    const Value& key, const std::function<void(PackedPointer)>& fn) const {
  if (key.is_null()) return;
  for (PackedPointer ptr = ChainHead(key); !ptr.is_null();
       ptr = gen_->store.BackPointerAt(ptr)) {
    fn(ptr);
  }
}

void IndexedPartition::View::Scan(const std::function<void(const Row&)>& fn) const {
  const Schema& schema = *schema_;
  ScanRaw([&fn, &schema](const uint8_t* payload) {
    fn(DecodeRow(payload, schema));
  });
}

void IndexedPartition::View::ScanRawFrom(
    size_t from, const std::function<void(const uint8_t*)>& fn) const {
  ForEachRun(from, watermark_.num_rows, [&fn](const RowRun& run) {
    for (size_t i = 0; i < run.count; ++i) fn(run.payloads[i]);
  });
}

namespace {

/// True when the cut entry can actually serve the probe (matching column,
/// matching kind, structure present).
bool EntryServes(const SecondaryIndexCut::Entry* entry,
                 const SecondaryProbe& probe) {
  if (entry == nullptr) return false;
  if (probe.kind == SecondaryIndexKind::kBitmap) return entry->bitmap != nullptr;
  if (probe.kind == SecondaryIndexKind::kRange) return entry->range != nullptr;
  return false;
}

/// Intersects two ascending position lists (two-pointer merge); the result
/// is the bitmap-AND of two probes' row sets.
std::vector<uint32_t> IntersectSorted(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace

size_t IndexedPartition::View::ProbeSecondary(
    const std::vector<SecondaryProbe>& probes,
    std::vector<const uint8_t*>* out, SecondaryProbeStats* stats) const {
  SecondaryProbeStats local;
  const Schema& schema = *schema_;
  auto all_match = [&](const uint8_t* payload) {
    for (const SecondaryProbe& probe : probes) {
      if (RawColumnIsNull(payload, probe.column)) return false;
      if (!ProbeMatches(probe, DecodeColumn(payload, schema, probe.column))) {
        return false;
      }
    }
    return true;
  };
  auto scan_match = [&](const uint8_t* payload) {
    ++local.suffix_scanned;
    if (all_match(payload)) {
      out->push_back(payload);
      ++local.matches;
    }
  };
  bool servable = !probes.empty() && secondary_ != nullptr;
  if (servable) {
    for (const SecondaryProbe& probe : probes) {
      if (!EntryServes(secondary_->Find(probe.column), probe)) {
        servable = false;
        break;
      }
    }
  }
  if (!servable) {
    // The view predates some index (or carries none): a full scan returns
    // the identical row set, so correctness never depends on index state.
    ScanRaw(scan_match);
    if (stats != nullptr) *stats = local;
    return local.matches;
  }
  local.used_index = true;

  // Indexed prefix: each probe yields ascending positions from the cut;
  // ANDed probes intersect them (the bitmap-AND path). Emission stays in
  // append order — the same order a scan yields — resolved through the
  // row directory of this view's generation.
  std::vector<uint32_t> positions;
  for (size_t i = 0; i < probes.size(); ++i) {
    const SecondaryProbe& probe = probes[i];
    const SecondaryIndexCut::Entry* entry = secondary_->Find(probe.column);
    std::vector<uint32_t> hits;
    if (probe.kind == SecondaryIndexKind::kBitmap) {
      entry->bitmap->Probe(probe.keys, &hits);
    } else {
      entry->range->Probe(probe.lo, probe.lo_inclusive, probe.hi,
                          probe.hi_inclusive, &hits);
    }
    std::sort(hits.begin(), hits.end());
    if (i == 0) {
      positions = std::move(hits);
    } else {
      positions = IntersectSorted(positions, hits);
    }
    if (positions.empty()) break;
  }
  const RowBatchStore& store = gen_->store;
  for (uint32_t pos : positions) out->push_back(store.PayloadOfRow(pos));
  local.from_index = positions.size();
  local.matches = positions.size();
  local.rows_avoided =
      static_cast<size_t>(secondary_->covered) - positions.size();

  // Unindexed suffix: rows appended between the cut's covered prefix and
  // this view's watermark (possibly none). Snapshot() captured the cut
  // before the watermark, so covered <= num_rows().
  ScanRawFrom(secondary_->covered, scan_match);
  if (stats != nullptr) *stats = local;
  return local.matches;
}

uint64_t IndexedPartition::View::EstimateProbeMatches(const SecondaryProbe& probe,
                                                      bool* has_index) const {
  const SecondaryIndexCut::Entry* entry =
      secondary_ != nullptr ? secondary_->Find(probe.column) : nullptr;
  if (!EntryServes(entry, probe)) {
    *has_index = false;
    return watermark_.num_rows;
  }
  *has_index = true;
  uint64_t est = 0;
  if (probe.kind == SecondaryIndexKind::kBitmap) {
    for (const Value& k : probe.keys) est += entry->bitmap->CountFor(k);
  } else {
    est = entry->range->CountInRange(probe.lo, probe.lo_inclusive, probe.hi,
                                     probe.hi_inclusive);
  }
  // Suffix rows are unindexed; count them all as matches so the estimate
  // errs toward the scan when the index lags far behind.
  est += watermark_.num_rows - secondary_->covered;
  return est;
}

SecondaryIndexKind IndexedPartition::View::SecondaryKindOf(int column) const {
  const SecondaryIndexCut::Entry* entry =
      secondary_ != nullptr ? secondary_->Find(column) : nullptr;
  if (entry == nullptr) return SecondaryIndexKind::kNone;
  return entry->spec.kind;
}

}  // namespace idf
