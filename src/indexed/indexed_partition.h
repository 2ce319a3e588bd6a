// IndexedPartition: one partition of an Indexed DataFrame, composed of the
// paper's three data structures (Section 2, "The Indexed Row-Batch RDD"):
//
//   (1) a cTrie, which represents the index,
//   (2) a set of row batches, which stores the tabular data, and
//   (3) backward pointers, which crawl the partition for rows indexed on
//       the same key.
//
// The cTrie maps the 64-bit canonical hash of the indexed column value to
// the packed pointer of the *latest* appended row for that key; each row's
// 8-byte header holds the backward pointer to the previous row with the
// same key, forming one linked list per unique key.
//
// The (cTrie, row batches) pair lives inside a PartitionGeneration so that
// background compaction can rewrite chains key-clustered into a fresh
// generation and swap it in atomically. Views hold a shared_ptr to their
// generation: a retired generation's batches are reclaimed only after the
// last view referencing it dies (epoch-deferred reclamation, owned by
// indexed/compactor.h), so a pinned snapshot never reads freed memory.
//
// Concurrency: appends and compaction are serialized per partition (the
// owner, IndexedRelation, holds the partition write lock); reads are
// lock-free and proceed concurrently with appends. A View captures a store
// watermark, giving queries a consistent version while the update stream
// keeps appending — the paper's "updates with multi-version concurrency".
// Rows are append-only and every chain runs newest first, so the watermark
// alone names a version: a view looks keys up in the live cTrie and skips
// the chain rows past its watermark. Pinning writes nothing, and the trie
// is insert-only (ctrie/ctrie.h): an append that lands on a present key
// stores the new head into that key's trie cell and allocates no trie
// node. An append stages its rows, publishes their heads in the trie, and
// only then publishes the rows to watermarks, so every row a view covers
// is reachable from its key's live head.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/macros.h"
#include "ctrie/ctrie.h"
#include "indexed/bitmap_index.h"
#include "indexed/range_index.h"
#include "storage/row_batch_store.h"
#include "types/row.h"
#include "types/schema.h"

namespace idf {

// Defined in sql/logical_plan.h (the SQL layer owns the planner-facing
// types; indexed/ depends on sql/, never the reverse).
enum class SecondaryIndexKind : uint8_t;
struct SecondaryProbe;

/// Declaration of one secondary index on a partition: which column it
/// covers and which structure backs it (bitmap or sorted range).
struct SecondaryIndexSpec {
  int column = -1;
  SecondaryIndexKind kind{};
};

/// Immutable snapshot of every secondary index of one partition, published
/// after each append batch. Positions are store append ordinals, resolved
/// through the generation's row directory. A probe against a view = the
/// cut's positions (all < `covered`) plus a linear scan of the ordinals
/// between `covered` and the view's row count — so probe results are
/// always exactly the rows a full scan of the same view would match, even
/// when the view's watermark ran ahead of the last published cut.
struct SecondaryIndexCut {
  struct Entry {
    SecondaryIndexSpec spec;
    BitmapIndexCutPtr bitmap;  ///< set iff spec.kind == kBitmap
    RangeIndexCutPtr range;    ///< set iff spec.kind == kRange
  };
  std::vector<Entry> entries;
  uint64_t covered = 0;  ///< append ordinals [0, covered) are indexed
  uint64_t epoch = 0;    ///< publish sequence within the generation

  const Entry* Find(int column) const {
    for (const Entry& e : entries) {
      if (e.spec.column == column) return &e;
    }
    return nullptr;
  }
};
using SecondaryIndexCutPtr = std::shared_ptr<const SecondaryIndexCut>;

/// Per-publish maintenance cost, split by index kind: each index's row
/// feed plus its cut build, in nanoseconds (exported as the
/// *_maintenance_us metrics).
struct SecondaryMaintenanceStats {
  uint64_t bitmap_ns = 0;
  uint64_t range_ns = 0;
  size_t rows = 0;

  void Merge(const SecondaryMaintenanceStats& o) {
    bitmap_ns += o.bitmap_ns;
    range_ns += o.range_ns;
    rows += o.rows;
  }
};

/// The secondary indexes of one partition generation: appender-owned
/// builders plus the last published immutable cut. Builders are mutated
/// only under the partition write lock; `cut()` is lock-free.
class SecondaryIndexSet {
 public:
  SecondaryIndexSet(SchemaPtr schema, std::vector<SecondaryIndexSpec> specs);

  /// Appender-only: feeds the rows of `store` not yet indexed (ordinals
  /// [indexed, store.num_rows())) to the builders and publishes a fresh cut
  /// covering every committed row. `store` is the generation's own store.
  SecondaryMaintenanceStats PublishCut(const RowBatchStore& store);

  /// Appender-only: collapses each range index's sorted runs into one
  /// (compaction's rebuild finisher; call before the final PublishCut).
  void MergeRuns();

  /// The last published cut (acquire; null before the first publish).
  SecondaryIndexCutPtr cut() const {
    return std::atomic_load_explicit(&cut_, std::memory_order_acquire);
  }

  const std::vector<SecondaryIndexSpec>& specs() const { return specs_; }

 private:
  SchemaPtr schema_;
  std::vector<SecondaryIndexSpec> specs_;
  // Parallel to specs_: exactly one of the two builders is live per spec.
  std::vector<BitmapIndexBuilder> bitmaps_;
  std::vector<RangeIndexBuilder> ranges_;
  uint64_t indexed_ = 0;  ///< rows already fed to the builders
  uint64_t epoch_ = 0;
  std::shared_ptr<const SecondaryIndexCut> cut_;  // atomic_load/store
};
using SecondaryIndexSetPtr = std::shared_ptr<SecondaryIndexSet>;

/// Counters of one View::ProbeSecondary call (feed QueryMetrics).
struct SecondaryProbeStats {
  size_t matches = 0;         ///< payloads emitted
  size_t from_index = 0;      ///< emitted straight from index positions
  size_t suffix_scanned = 0;  ///< unindexed suffix rows examined
  size_t rows_avoided = 0;    ///< indexed rows never examined (covered - hits)
  bool used_index = false;    ///< false = fell back to a full scan
};

/// One immutable-once-retired version of a partition's storage: the row
/// batches plus the cTrie indexing them. The live generation is appended
/// to under the partition write lock; compaction builds a replacement and
/// swaps it in, after which the old generation is frozen and lives only as
/// long as views referencing it.
struct PartitionGeneration {
  PartitionGeneration(const Schema& schema, size_t batch_bytes,
                      size_t max_row_bytes)
      : store(schema, batch_bytes, max_row_bytes) {}
  IDF_DISALLOW_COPY_AND_ASSIGN(PartitionGeneration);

  RowBatchStore store;
  /// Written by the appender and the compactor only; readers' lookups
  /// write nothing.
  CTrie index;

  /// Secondary indexes of this generation (null when the table has none).
  /// Swapped only by AddSecondaryIndexLocked (under the partition write
  /// lock); read lock-free by Snapshot() via atomic_load.
  SecondaryIndexSetPtr secondary;

  /// Per-key chain bookkeeping maintained at append time and rebuilt by
  /// compaction. Guarded by the partition write lock (appender/compactor
  /// only); readers never touch it.
  struct KeyStat {
    uint32_t chain_len = 0;
    uint32_t first_batch = 0;  // batch of the oldest row on the chain
    uint32_t last_batch = 0;   // batch of the newest row on the chain
  };
  std::unordered_map<uint64_t, KeyStat> key_stats;

  /// View lookups whose live chain head lay past the view's watermark, and
  /// the chain rows they stepped back over. Readers bump them only when
  /// they skip, so a lookup that starts at its head writes nothing shared.
  std::atomic<uint64_t> skipping_lookups{0};
  std::atomic<uint64_t> rows_skipped{0};
};
using PartitionGenerationPtr = std::shared_ptr<PartitionGeneration>;

/// Aggregated chain statistics of one partition (or, summed, a relation):
/// the compaction trigger signal and the exported chain-length histogram.
struct ChainStatsSnapshot {
  uint64_t num_keys = 0;
  uint64_t total_links = 0;     ///< sum of chain lengths (== indexed rows)
  uint64_t max_chain_len = 0;
  uint64_t sum_batch_span = 0;  ///< sum over keys of (last - first + 1)
  uint64_t max_batch_span = 0;
  /// histogram[i] counts keys with chain length in [2^i, 2^(i+1)).
  static constexpr int kHistBuckets = 16;
  uint64_t chain_len_histogram[kHistBuckets] = {0};
  /// View lookups that stepped back past rows appended after their pin,
  /// and the rows stepped over (see View::ChainHead).
  uint64_t skipping_lookups = 0;
  uint64_t rows_skipped = 0;

  double MeanChainLen() const {
    return num_keys == 0 ? 0.0
                         : static_cast<double>(total_links) /
                               static_cast<double>(num_keys);
  }
  double MeanBatchSpan() const {
    return num_keys == 0 ? 0.0
                         : static_cast<double>(sum_batch_span) /
                               static_cast<double>(num_keys);
  }
  void Merge(const ChainStatsSnapshot& o);
  std::string ToString() const;
};

class IndexedPartition {
 public:
  IndexedPartition(SchemaPtr schema, int indexed_col, const EngineConfig& config);

  const SchemaPtr& schema() const { return schema_; }
  int indexed_column() const { return indexed_col_; }

  /// One pre-encoded row of an append batch. `payload`/`size` are the
  /// encoded bytes (back-pointer header excluded); `hash` is the canonical
  /// hash of the indexed key, meaningful iff `indexed` (null keys are
  /// stored but unindexed).
  struct EncodedRowRef {
    const uint8_t* payload;
    uint32_t size;
    uint64_t hash;
    bool indexed;
  };

  /// Per-call counters of one AppendBatch (feed QueryMetrics at the
  /// relation layer).
  struct AppendBatchResult {
    size_t rows_appended = 0;
    size_t keys_published = 0;   ///< cTrie head updates (one per key)
    size_t links_coalesced = 0;  ///< indexed rows - keys_published
    /// Secondary-index maintenance cost of this batch (zero without any).
    SecondaryMaintenanceStats maintenance;
  };

  /// Appends one row: inserts into the row batches, links the backward
  /// pointer to the previous row with the same key, and publishes the new
  /// head pointer in the cTrie. Appender-only (callers serialize).
  /// Rows whose key is null are stored but not indexed.
  Status Append(const Row& row);

  /// Batched append: applies a whole partition group under one caller-held
  /// write lock. Same-key runs are coalesced — chain links between rows of
  /// the batch are built directly (the trie is consulted once per distinct
  /// key for the previous head) and each key publishes exactly one cTrie
  /// head update, after all row bytes are committed. Appender-only.
  ///
  /// On error the rows already committed are published (their keys' heads
  /// are updated) so the store and the index stay consistent, matching the
  /// per-row path's partial-failure behavior.
  Status AppendBatch(const std::vector<EncodedRowRef>& rows,
                     AppendBatchResult* result = nullptr);

  /// Registers a secondary index on `spec.column`, backfilling it from the
  /// rows already in the live generation and publishing a first cut.
  /// Caller must hold the partition write lock. Readers holding older
  /// views simply see no cut for the column and fall back to scanning.
  Status AddSecondaryIndexLocked(const SecondaryIndexSpec& spec);

  /// The secondary-index specs of the live generation (lock-free; the spec
  /// list of a set is immutable once installed).
  std::vector<SecondaryIndexSpec> secondary_specs() const;

  /// \brief A consistent read view: generation + store watermark (+ the
  /// secondary-index cut). Holds its generation alive, so a view outlives
  /// compaction of the partition it came from.
  class View {
   public:
    /// All rows whose indexed column equals `key`, newest first (reverse
    /// chain order). `probes`/`hits` metrics counters may be null.
    RowVec GetRows(const Value& key) const;

    /// Encoded payload pointers of all rows whose indexed column equals
    /// `key`, newest first, appended to `out`. Callers decode lazily —
    /// e.g. a join materializes the build row only when concatenating a
    /// match. Returns the number of appended pointers.
    size_t GetRawRows(const Value& key,
                      std::vector<const uint8_t*>* out) const;

    /// Single-pass variant of GetRawRows: invokes `fn(payload)` for every
    /// row whose indexed column equals `key`, newest first, while the
    /// chain node is still cache-hot (revisiting scattered row-batch
    /// memory in a second pass costs a miss per row). Returns the match
    /// count.
    template <typename Fn>
    size_t ForEachRawRow(const Value& key, Fn&& fn) const {
      if (key.is_null()) return 0;
      PackedPointer ptr = ChainHead(key);
      if (ptr.is_null()) return 0;
      const Schema& schema = *schema_;
      const int col = indexed_col_;
      const RowBatchStore& store = gen_->store;
      // Fast path: for integer-backed indexed columns the key's 8-byte slot
      // image is compared against the raw encoded slot per chain node — no
      // Value materialization. Float and string columns stay on the decode
      // path (0.0 and -0.0 compare equal but differ in bits; strings are
      // out-of-line).
      uint64_t want_slot = 0;
      const bool raw_eq =
          EncodeFixedKeySlot(schema.field(col).type, key, &want_slot);
      const size_t bitmap_bytes = EncodedBitmapBytes(schema.num_fields());
      size_t matched = 0;
      while (!ptr.is_null()) {
        const uint8_t* payload = store.PayloadAt(ptr);
        // Chain nodes are scattered across row batches, so the backward
        // walk is a dependent pointer chase; issuing the next node's
        // payload load before this node's match check overlaps the miss
        // with useful work (effect measured in bench_graph_traversal).
        const PackedPointer next = store.BackPointerAt(ptr);
        if (!next.is_null()) IDF_PREFETCH(store.PayloadAt(next));
        // Verify the actual value: chains link rows with equal key *hash*.
        const bool match =
            raw_eq ? !RawColumnIsNull(payload, col) &&
                         RawColumnSlot(payload, bitmap_bytes, col) == want_slot
                   : DecodeColumn(payload, schema, col) == key;
        if (match) {
          fn(payload);
          ++matched;
        }
        ptr = next;
      }
      return matched;
    }

    /// Visits every row in this view, in append order. Includes rows with
    /// null keys (which are stored but unindexed).
    void Scan(const std::function<void(const Row&)>& fn) const;

    /// Visits the raw encoded payload of every row in this view, in append
    /// order; callers decode lazily (e.g. one filter column per row).
    void ScanRaw(const std::function<void(const uint8_t*)>& fn) const {
      ScanRawFrom(0, fn);
    }

    /// Calls `fn(const RowRun&)` on consecutive runs of the row directory
    /// and column images covering append ordinals [begin, end), in order;
    /// `end` must not exceed num_rows(). The morsel drivers read rows this
    /// way.
    template <typename Fn>
    void ForEachRun(size_t begin, size_t end, Fn&& fn) const {
      gen_->store.ForEachRun(begin, end, std::forward<Fn>(fn));
    }

    /// Visits the packed pointers of the chain for `key`, newest first
    /// (diagnostics and tests).
    void ScanChain(const Value& key,
                   const std::function<void(PackedPointer)>& fn) const;

    /// Probes one or more ANDed secondary-index predicates: emits — in
    /// append order, exactly as a full ScanRaw + predicate would — the
    /// payloads of every row in this view matching ALL of `probes`. Rows
    /// covered by the captured cut come from the indexes' position lists
    /// (several probes intersect sorted positions — the bitmap-AND path);
    /// rows appended between the cut's boundary and this view's watermark
    /// are found by a linear suffix scan. Falls back to a full scan
    /// (used_index=false) when the view lacks an index for any probe's
    /// column. Returns the match count.
    size_t ProbeSecondary(const std::vector<SecondaryProbe>& probes,
                          std::vector<const uint8_t*>* out,
                          SecondaryProbeStats* stats = nullptr) const;

    /// Estimated matches of `probe` against this view: index statistics
    /// for the covered prefix, plus every suffix row (conservative).
    /// `has_index=false` (and a full num_rows() estimate) when the view
    /// has no index on the probe's column.
    uint64_t EstimateProbeMatches(const SecondaryProbe& probe,
                                  bool* has_index) const;

    /// Kind of the secondary index this view carries on `column`.
    SecondaryIndexKind SecondaryKindOf(int column) const;

    size_t num_rows() const { return watermark_.num_rows; }

    /// The store watermark this view reads up to (diagnostics and tests).
    const StoreWatermark& watermark() const { return watermark_; }

    /// The generation this view reads (compaction/reclamation tests).
    const PartitionGenerationPtr& generation() const { return gen_; }

    /// The secondary-index cut this view probes (null when none existed at
    /// capture; diagnostics and tests).
    const SecondaryIndexCutPtr& secondary_cut() const { return secondary_; }

   private:
    friend class IndexedPartition;
    View(SchemaPtr schema, int indexed_col, PartitionGenerationPtr gen,
         StoreWatermark wm, SecondaryIndexCutPtr secondary)
        : schema_(std::move(schema)),
          indexed_col_(indexed_col),
          gen_(std::move(gen)),
          watermark_(wm),
          secondary_(std::move(secondary)) {}

    /// The newest row of `key`'s chain inside this view (null when none):
    /// the live head, stepped back past the rows appended after the
    /// watermark. Positions decrease along every chain (appends and
    /// compaction both write a chain oldest first), so the rest of the
    /// chain is covered too. The steps are bounded by the rows of `key`
    /// appended since the pin; they are counted in the generation's
    /// ChainStats. `key` must not be null.
    PackedPointer ChainHead(const Value& key) const {
      std::optional<uint64_t> head = gen_->index.Lookup(key.Hash());
      if (!head.has_value()) return PackedPointer::Null();
      PackedPointer ptr(*head);
      if (IDF_PREDICT_TRUE(watermark_.Covers(ptr))) return ptr;
      uint64_t skipped = 0;
      do {
        ptr = gen_->store.BackPointerAt(ptr);
        ++skipped;
      } while (!ptr.is_null() && !watermark_.Covers(ptr));
      gen_->skipping_lookups.fetch_add(1, std::memory_order_relaxed);
      gen_->rows_skipped.fetch_add(skipped, std::memory_order_relaxed);
      return ptr;
    }

    /// ScanRaw starting at append ordinal `from` (the suffix between a
    /// cut's covered prefix and this view's row count).
    void ScanRawFrom(size_t from,
                     const std::function<void(const uint8_t*)>& fn) const;

    SchemaPtr schema_;
    int indexed_col_;
    PartitionGenerationPtr gen_;
    StoreWatermark watermark_;
    SecondaryIndexCutPtr secondary_;
  };

  /// Captures a consistent read view (O(1): generation pointer copy and a
  /// few atomic loads; writes nothing). Thread-safe, lock-free.
  View Snapshot() const;

  /// Convenience: lookup against a fresh snapshot.
  RowVec GetRows(const Value& key) const { return Snapshot().GetRows(key); }

  /// Aggregated chain statistics of the live generation. Caller must hold
  /// the partition write lock (the stats map is appender-owned).
  ChainStatsSnapshot ChainStats() const;

  /// The outcome of one compaction pass (see CompactLocked).
  struct CompactionResult {
    PartitionGenerationPtr retired;  ///< the superseded generation
    size_t chains_rewritten = 0;     ///< keys rewritten
    size_t links_rewritten = 0;      ///< chain rows re-linked
    size_t retired_bytes = 0;        ///< store + index bytes to reclaim
  };

  /// Rewrites every chain key-clustered (hottest chains first) into a
  /// fresh generation and swaps it in. Null-key rows are carried over in
  /// append order. Logical contents are unchanged: GetRows returns
  /// byte-identical results in the same newest-first order, Scan sees the
  /// same row set. Caller must hold the partition write lock; concurrent
  /// readers keep their (old-generation) views. The caller owns retiring
  /// `result->retired` — batches of the old generation must stay alive
  /// until every view holding it drains (see indexed/compactor.h).
  Status CompactLocked(CompactionResult* result);

  size_t num_rows() const { return gen()->store.num_rows(); }
  size_t distinct_keys() const { return gen()->index.size_hint(); }

  /// Memory accounting for the paper's "low memory overhead" claim:
  /// `index_bytes` is the live cTrie structure plus the row directory
  /// and its column images;
  /// `arena_bytes` is every trie node allocated, including the CNodes
  /// that adding keys replaced, which the arena holds until the
  /// generation dies (the leak-until-destruction reclamation strategy).
  /// Both are safe while appends run and write nothing.
  size_t data_bytes() const { return gen()->store.used_bytes(); }
  size_t index_bytes() const;
  size_t arena_bytes() const { return gen()->index.MemoryBytesEstimate(); }

  /// The live generation's store. The reference is only stable while no
  /// compaction runs (single-threaded tests and benchmarks).
  const RowBatchStore& store() const { return gen()->store; }

  /// The live generation (thread-safe pointer copy).
  PartitionGenerationPtr gen() const {
    return std::atomic_load_explicit(&gen_, std::memory_order_acquire);
  }

 private:
  Status AppendToGen(PartitionGeneration& g, const Row& row);

  SchemaPtr schema_;
  int indexed_col_;
  size_t batch_bytes_;
  size_t max_row_bytes_;
  // Swapped only by CompactLocked (under the partition write lock); read
  // lock-free by Snapshot(). atomic_load/atomic_store free functions keep
  // the handle safe against concurrent snapshot-vs-swap.
  PartitionGenerationPtr gen_;
};

}  // namespace idf
