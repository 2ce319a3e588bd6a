// Unit tests for IndexedPartition: the cTrie + row batches + backward
// pointers triple, chain semantics, snapshot (MVCC) views, and scans and
// secondary probes read through the row directory.
#include "indexed/indexed_partition.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "reference_walk.h"
#include "sql/index_costing.h"
#include "sql/logical_plan.h"

namespace idf {
namespace {

EngineConfig SmallConfig() {
  EngineConfig cfg;
  cfg.row_batch_bytes = 4096;
  cfg.max_row_bytes = 512;
  cfg.num_partitions = 1;
  cfg.num_threads = 1;
  return cfg.Resolved();
}

SchemaPtr KvSchema() {
  return Schema::Make({{"k", TypeId::kInt64, true}, {"v", TypeId::kString, true}});
}

Row KvRow(int64_t k, const std::string& v) { return {Value(k), Value(v)}; }

TEST(IndexedPartitionTest, AppendThenLookup) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  ASSERT_TRUE(part.Append(KvRow(1, "a")).ok());
  RowVec rows = part.GetRows(Value(int64_t{1}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], KvRow(1, "a"));
  EXPECT_TRUE(part.GetRows(Value(int64_t{2})).empty());
}

TEST(IndexedPartitionTest, NonUniqueKeysChainNewestFirst) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(part.Append(KvRow(7, "v" + std::to_string(i))).ok());
  }
  RowVec rows = part.GetRows(Value(int64_t{7}));
  ASSERT_EQ(rows.size(), 5u);
  // The cTrie points at the latest row; the backward chain yields rows
  // newest-first.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[static_cast<size_t>(i)][1],
              Value("v" + std::to_string(4 - i)));
  }
}

TEST(IndexedPartitionTest, InterleavedKeysKeepSeparateChains) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(part.Append(KvRow(i % 3, "r" + std::to_string(i))).ok());
  }
  for (int64_t k = 0; k < 3; ++k) {
    RowVec rows = part.GetRows(Value(k));
    ASSERT_EQ(rows.size(), 10u) << k;
    for (const Row& row : rows) {
      EXPECT_EQ(row[0], Value(k));
    }
  }
  EXPECT_EQ(part.distinct_keys(), 3u);
  EXPECT_EQ(part.num_rows(), 30u);
}

TEST(IndexedPartitionTest, ChainsSpanBatchBoundaries) {
  EngineConfig cfg = SmallConfig();
  cfg.row_batch_bytes = 256;  // tiny batches force rollover
  cfg.max_row_bytes = 128;
  IndexedPartition part(KvSchema(), 0, cfg);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(part.Append(KvRow(i % 4, "value" + std::to_string(i))).ok());
  }
  EXPECT_GT(part.store().num_batches(), 1u);
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(part.GetRows(Value(k)).size(), 50u);
  }
}

TEST(IndexedPartitionTest, BackwardPointersCarryPrevSize) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  ASSERT_TRUE(part.Append(KvRow(1, "first-row-payload")).ok());
  ASSERT_TRUE(part.Append(KvRow(1, "x")).ok());
  auto view = part.Snapshot();
  std::vector<PackedPointer> chain;
  view.ScanChain(Value(int64_t{1}),
                 [&chain](PackedPointer p) { chain.push_back(p); });
  ASSERT_EQ(chain.size(), 2u);
  // The head pointer records the size of the previous row on the chain.
  EXPECT_GT(chain[0].prev_size(), 0u);
  EXPECT_EQ(chain[1].prev_size(), 0u);  // first row has no predecessor
}

TEST(IndexedPartitionTest, NullKeysStoredButUnindexed) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  ASSERT_TRUE(part.Append({Value::Null(), Value("ghost")}).ok());
  ASSERT_TRUE(part.Append(KvRow(1, "real")).ok());
  EXPECT_TRUE(part.GetRows(Value::Null()).empty());
  EXPECT_EQ(part.num_rows(), 2u);
  // Scans still see the unindexed row.
  size_t scanned = 0;
  part.Snapshot().Scan([&scanned](const Row&) { ++scanned; });
  EXPECT_EQ(scanned, 2u);
}

TEST(IndexedPartitionTest, ScanVisitsAppendOrder) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(part.Append(KvRow(i, "s" + std::to_string(i))).ok());
  }
  std::vector<int64_t> seen;
  part.Snapshot().Scan([&seen](const Row& row) { seen.push_back(row[0].AsInt64()); });
  ASSERT_EQ(seen.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

TEST(IndexedPartitionTest, SnapshotIsolation) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(part.Append(KvRow(5, "old")).ok());
  auto view = part.Snapshot();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(part.Append(KvRow(5, "new")).ok());
  // The view still sees exactly the old rows.
  EXPECT_EQ(view.GetRows(Value(int64_t{5})).size(), 10u);
  EXPECT_EQ(view.num_rows(), 10u);
  // The live partition sees all rows.
  EXPECT_EQ(part.GetRows(Value(int64_t{5})).size(), 20u);
  size_t scanned = 0;
  view.Scan([&scanned](const Row&) { ++scanned; });
  EXPECT_EQ(scanned, 10u);
}

TEST(IndexedPartitionTest, SnapshotSeesNewKeysOnlyAfterTaking) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  ASSERT_TRUE(part.Append(KvRow(1, "a")).ok());
  auto v1 = part.Snapshot();
  ASSERT_TRUE(part.Append(KvRow(2, "b")).ok());
  auto v2 = part.Snapshot();
  EXPECT_TRUE(v1.GetRows(Value(int64_t{2})).empty());
  EXPECT_EQ(v2.GetRows(Value(int64_t{2})).size(), 1u);
}

TEST(IndexedPartitionTest, ConcurrentReadersDuringAppends) {
  EngineConfig cfg = SmallConfig();
  cfg.row_batch_bytes = 1024;
  IndexedPartition part(KvSchema(), 0, cfg);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(part.Append(KvRow(i % 10, "seed")).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto view = part.Snapshot();
        for (int64_t k = 0; k < 10; ++k) {
          RowVec rows = view.GetRows(Value(k));
          // Seed guarantees at least 10 rows per key; every row must carry
          // the queried key.
          if (rows.size() < 10) errors.fetch_add(1);
          for (const Row& row : rows) {
            if (!(row[0] == Value(k))) errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(part.Append(KvRow(i % 10, "live" + std::to_string(i))).ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(part.GetRows(Value(int64_t{0})).size(), 2010u);
}

TEST(IndexedPartitionTest, MemoryAccounting) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(part.Append(KvRow(i, "some payload string")).ok());
  }
  EXPECT_GT(part.data_bytes(), 500u * 24);
  EXPECT_GT(part.index_bytes(), 0u);
}

TEST(IndexedPartitionTest, RejectsOversizedRows) {
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  Status st = part.Append(KvRow(1, std::string(4000, 'x')));
  EXPECT_EQ(st.code(), StatusCode::kCapacityError);
}

TEST(IndexedPartitionTest, HashCollisionsAcrossValuesAreFiltered) {
  // Two different int64 keys never collide under Mix64 (a bijection), but
  // the chain-verify logic must also hold for equal-hash values; emulate by
  // checking that lookups compare the actual column value.
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  ASSERT_TRUE(part.Append(KvRow(1, "one")).ok());
  ASSERT_TRUE(part.Append(KvRow(2, "two")).ok());
  RowVec rows = part.GetRows(Value(int64_t{1}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value("one"));
}

TEST(IndexedPartitionTest, StringKeysWork) {
  IndexedPartition part(KvSchema(), 1, SmallConfig());  // index on v (string)
  ASSERT_TRUE(part.Append(KvRow(1, "alpha")).ok());
  ASSERT_TRUE(part.Append(KvRow(2, "beta")).ok());
  ASSERT_TRUE(part.Append(KvRow(3, "alpha")).ok());
  RowVec rows = part.GetRows(Value("alpha"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(int64_t{3}));  // newest first
  EXPECT_EQ(rows[1][0], Value(int64_t{1}));
}

// --- Scans through the row directory --------------------------------------

/// k: the cTrie key (null every 9th row, repeating every 97 keys); c: a
/// low-cardinality bitmap column with nulls; a, b: variable-width tails,
/// either of which may be null.
SchemaPtr WideSchema() {
  return Schema::Make({{"k", TypeId::kInt64, true},
                       {"c", TypeId::kInt64, true},
                       {"a", TypeId::kString, true},
                       {"b", TypeId::kString, true}});
}

Row WideRow(int64_t i) {
  return {i % 9 == 0 ? Value() : Value(i % 97),
          i % 13 == 0 ? Value() : Value(i % 6),
          i % 5 == 0 ? Value() : Value(std::string(static_cast<size_t>(i % 29), 'a')),
          i % 7 == 0 ? Value() : Value("b" + std::to_string(i))};
}

EngineConfig TinyBatchConfig() {
  EngineConfig cfg = SmallConfig();
  cfg.row_batch_bytes = 512;  // a handful of rows per batch
  cfg.max_row_bytes = 256;
  return cfg;
}

std::vector<const uint8_t*> ScanPayloads(const IndexedPartition::View& view) {
  std::vector<const uint8_t*> out;
  view.ScanRaw([&out](const uint8_t* payload) { out.push_back(payload); });
  return out;
}

/// ScanRaw must yield exactly the reference walk of the view's generation.
void ExpectScanMatchesWalk(const IndexedPartition::View& view,
                           const Schema& schema) {
  const std::vector<const uint8_t*> walk =
      ReferenceWalk(view.generation()->store, schema, view.num_rows());
  ASSERT_EQ(walk.size(), view.num_rows());
  EXPECT_EQ(ScanPayloads(view), walk);
}

RowVec DecodeAll(const std::vector<const uint8_t*>& payloads, const Schema& schema) {
  RowVec out;
  for (const uint8_t* p : payloads) out.push_back(DecodeRow(p, schema));
  return out;
}

TEST(IndexedPartitionDirectoryTest, ScanMatchesReferenceWalk) {
  // Batch rollover every few rows, null keys, null and variable-width
  // strings, and 12k rows: three directory chunks in one partition.
  SchemaPtr schema = WideSchema();
  IndexedPartition part(schema, 0, TinyBatchConfig());
  const int64_t n = 12000;
  for (int64_t i = 0; i < n; ++i) ASSERT_TRUE(part.Append(WideRow(i)).ok());
  ASSERT_GT(part.store().num_batches(), 1000u);
  ASSERT_GT(static_cast<size_t>(n), 2 * RowBatchStore::kDirectoryChunkRows);
  IndexedPartition::View view = part.Snapshot();
  ASSERT_EQ(view.num_rows(), static_cast<size_t>(n));
  ExpectScanMatchesWalk(view, *schema);
  RowVec rows;
  view.Scan([&rows](const Row& row) { rows.push_back(row); });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(rows[static_cast<size_t>(i)], WideRow(i)) << i;
  }
}

TEST(IndexedPartitionDirectoryTest, ViewsBeforeAndAfterCompactionSwap) {
  SchemaPtr schema = WideSchema();
  IndexedPartition part(schema, 0, TinyBatchConfig());
  for (int64_t i = 0; i < 5000; ++i) ASSERT_TRUE(part.Append(WideRow(i)).ok());
  IndexedPartition::View before = part.Snapshot();
  const RowVec before_rows = DecodeAll(ScanPayloads(before), *schema);

  IndexedPartition::CompactionResult result;
  ASSERT_TRUE(part.CompactLocked(&result).ok());
  IndexedPartition::View after = part.Snapshot();
  ASSERT_NE(before.generation(), after.generation());

  // The old view keeps reading the retired generation's directory.
  ExpectScanMatchesWalk(before, *schema);
  EXPECT_EQ(DecodeAll(ScanPayloads(before), *schema), before_rows);
  // The new one reads the rewritten, key-clustered generation: the same
  // rows in a different order, null-key rows carried over.
  ExpectScanMatchesWalk(after, *schema);
  ASSERT_EQ(after.num_rows(), before.num_rows());
  RowVec sorted_before = before_rows;
  RowVec sorted_after = DecodeAll(ScanPayloads(after), *schema);
  SortRows(&sorted_before);
  SortRows(&sorted_after);
  EXPECT_EQ(sorted_after, sorted_before);
}

/// Payloads of `view` whose column `probe.column` matches `probe`, by a
/// full scan.
std::vector<const uint8_t*> ScanMatches(const IndexedPartition::View& view,
                                        const Schema& schema,
                                        const SecondaryProbe& probe) {
  std::vector<const uint8_t*> out;
  view.ScanRaw([&](const uint8_t* payload) {
    if (RawColumnIsNull(payload, probe.column)) return;
    if (ProbeMatches(probe, DecodeColumn(payload, schema, probe.column))) {
      out.push_back(payload);
    }
  });
  return out;
}

TEST(IndexedPartitionDirectoryTest, BackfilledIndexAndSuffixProbeMatchFullScan) {
  SchemaPtr schema = WideSchema();
  IndexedPartition part(schema, 0, TinyBatchConfig());
  for (int64_t i = 0; i < 9000; ++i) ASSERT_TRUE(part.Append(WideRow(i)).ok());
  // Backfill: the new index covers every row already stored, positions
  // being store ordinals.
  ASSERT_TRUE(part.AddSecondaryIndexLocked({1, SecondaryIndexKind::kBitmap}).ok());
  SecondaryProbe probe;
  probe.column = 1;
  probe.kind = SecondaryIndexKind::kBitmap;
  probe.keys = {Value(int64_t{2}), Value(int64_t{5})};

  IndexedPartition::View view = part.Snapshot();
  ASSERT_NE(view.secondary_cut(), nullptr);
  EXPECT_EQ(view.secondary_cut()->covered, view.num_rows());
  std::vector<const uint8_t*> got;
  SecondaryProbeStats stats;
  view.ProbeSecondary({probe}, &got, &stats);
  EXPECT_TRUE(stats.used_index);
  EXPECT_EQ(stats.suffix_scanned, 0u);
  EXPECT_EQ(got, ScanMatches(view, *schema, probe));

  // Rows committed to the store but not yet indexed: the window between
  // AppendBatch's row commits and its cut publish. A view taken there
  // probes the cut and scans the suffix from the cut's covered ordinal.
  const uint64_t covered = view.secondary_cut()->covered;
  for (int64_t i = 9000; i < 9500; ++i) {
    ASSERT_TRUE(
        part.gen()->store.AppendRow(*schema, WideRow(i), PackedPointer::Null(), 0).ok());
  }
  IndexedPartition::View ahead = part.Snapshot();
  ASSERT_EQ(ahead.secondary_cut()->covered, covered);
  ASSERT_EQ(ahead.num_rows(), covered + 500);
  got.clear();
  ahead.ProbeSecondary({probe}, &got, &stats);
  EXPECT_TRUE(stats.used_index);
  EXPECT_EQ(stats.suffix_scanned, 500u);
  EXPECT_GT(stats.from_index, 0u);
  EXPECT_EQ(got, ScanMatches(ahead, *schema, probe));

  // The next publish indexes the suffix too.
  ASSERT_TRUE(part.Append(WideRow(9500)).ok());
  IndexedPartition::View caught_up = part.Snapshot();
  EXPECT_EQ(caught_up.secondary_cut()->covered, caught_up.num_rows());
  got.clear();
  caught_up.ProbeSecondary({probe}, &got, &stats);
  EXPECT_EQ(stats.suffix_scanned, 0u);
  EXPECT_EQ(got, ScanMatches(caught_up, *schema, probe));
}

TEST(IndexedPartitionDirectoryTest, ConcurrentScansSeeCompleteRows) {
  // One appender crosses batch boundaries every few rows and directory
  // chunk (and spine) boundaries several times, while 4 readers take views
  // and scan them: each scan yields exactly the view's row count, and
  // every row decodes to what was appended at that ordinal.
  SchemaPtr schema = WideSchema();
  IndexedPartition part(schema, 0, TinyBatchConfig());
  const int64_t n = 20000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        IndexedPartition::View view = part.Snapshot();
        size_t seen = 0;
        view.ScanRaw([&](const uint8_t* payload) {
          if (!(DecodeRow(payload, *schema) == WideRow(static_cast<int64_t>(seen)))) {
            errors.fetch_add(1);
          }
          ++seen;
        });
        if (seen != view.num_rows()) errors.fetch_add(1);
        scans.fetch_add(1);
      }
    });
  }
  for (int64_t i = 0; i < n; ++i) ASSERT_TRUE(part.Append(WideRow(i)).ok());
  // Let the readers scan the complete partition a few more times.
  const uint64_t target = scans.load() + 8;
  while (scans.load() < target) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(part.num_rows(), static_cast<size_t>(n));
}

// --- Pins read by watermark over the live trie ------------------------------

/// Encoded rows of one AppendBatch call; `refs` point into `bytes`.
struct EncodedRows {
  std::vector<std::vector<uint8_t>> bytes;
  std::vector<IndexedPartition::EncodedRowRef> refs;
};

EncodedRows EncodeRows(const Schema& schema, const RowVec& rows) {
  EncodedRows out;
  out.bytes.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(EncodeRow(schema, rows[i], &out.bytes[i]).ok());
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value& key = rows[i][0];
    out.refs.push_back({out.bytes[i].data(), static_cast<uint32_t>(out.bytes[i].size()),
                        key.is_null() ? 0 : key.Hash(), !key.is_null()});
  }
  return out;
}

RowVec WideRows(int64_t begin, int64_t end) {
  RowVec rows;
  for (int64_t i = begin; i < end; ++i) rows.push_back(WideRow(i));
  return rows;
}

TEST(IndexedPartitionPinTest, PinsAllocateNoTrieNodes) {
  SchemaPtr schema = WideSchema();
  IndexedPartition part(schema, 0, TinyBatchConfig());
  for (int64_t i = 0; i < 2000; ++i) ASSERT_TRUE(part.Append(WideRow(i)).ok());
  const size_t before = part.arena_bytes();
  std::vector<IndexedPartition::View> held;
  for (int i = 0; i < 1000; ++i) held.push_back(part.Snapshot());
  // Stats walk the live trie without a snapshot, too.
  EXPECT_GT(part.index_bytes(), 0u);
  EXPECT_EQ(part.arena_bytes(), before);
}

TEST(IndexedPartitionPinTest, AppendsToPresentKeysAllocateNoTrieNodes) {
  // Keys are i % 97: after the first 200 rows every key is present, so
  // both append paths store each new head into the key's trie cell.
  SchemaPtr schema = WideSchema();
  IndexedPartition part(schema, 0, TinyBatchConfig());
  for (int64_t i = 0; i < 200; ++i) ASSERT_TRUE(part.Append(WideRow(i)).ok());
  const size_t nodes = part.gen()->index.allocated_nodes();
  std::vector<IndexedPartition::View> held;
  for (int64_t i = 200; i < 400; ++i) {
    held.push_back(part.Snapshot());
    ASSERT_TRUE(part.Append(WideRow(i)).ok());
  }
  for (int64_t b = 400; b < 1000; b += 32) {
    held.push_back(part.Snapshot());
    const EncodedRows batch = EncodeRows(*schema, WideRows(b, b + 32));
    ASSERT_TRUE(part.AppendBatch(batch.refs).ok());
  }
  EXPECT_EQ(part.gen()->index.allocated_nodes(), nodes);
  // Each view still reads exactly its own prefix of every key's chain.
  for (const IndexedPartition::View& view : held) {
    for (int64_t k : {1, 5, 96}) {
      size_t expected = 0;
      for (int64_t i = 0; i < static_cast<int64_t>(view.num_rows()); ++i) {
        expected += i % 9 != 0 && i % 97 == k;
      }
      EXPECT_EQ(view.GetRows(Value(k)).size(), expected) << view.num_rows();
    }
  }
}

TEST(IndexedPartitionPinTest, AppendsAfterPinsAllocateLikeUnpinnedAppends) {
  // K rounds of (pin, 32-row batch) against K unpinned batches of the same
  // rows: a pin that froze the trie would make the next batch re-copy the
  // frozen path, so the pinned partition would allocate more nodes.
  SchemaPtr schema = WideSchema();
  IndexedPartition pinned(schema, 0, TinyBatchConfig());
  IndexedPartition unpinned(schema, 0, TinyBatchConfig());
  std::vector<IndexedPartition::View> held;
  constexpr int kRounds = 50;
  for (int r = 0; r < kRounds; ++r) {
    const EncodedRows batch = EncodeRows(*schema, WideRows(32 * r, 32 * (r + 1)));
    held.push_back(pinned.Snapshot());
    ASSERT_TRUE(pinned.AppendBatch(batch.refs).ok());
    ASSERT_TRUE(unpinned.AppendBatch(batch.refs).ok());
  }
  EXPECT_EQ(pinned.arena_bytes(), unpinned.arena_bytes());
  EXPECT_EQ(pinned.gen()->index.allocated_nodes(), unpinned.gen()->index.allocated_nodes());
  // Every held view still reads exactly its own prefix.
  for (size_t r = 0; r < held.size(); ++r) {
    EXPECT_EQ(held[r].num_rows(), 32 * r);
    size_t found = 0;
    for (int64_t k = 0; k < 97; ++k) found += held[r].GetRows(Value(k)).size();
    size_t nulls = 0;
    for (int64_t i = 0; i < static_cast<int64_t>(32 * r); ++i) nulls += i % 9 == 0;
    EXPECT_EQ(found + nulls, 32 * r) << "view " << r;
  }
}

TEST(IndexedPartitionPinTest, IndexEqualsScanForTheSameViewUnderALiveAppender) {
  // One appender alternates 32-row AppendBatch calls with per-row Appends
  // across tiny batches; readers take unpinned views and check that, for
  // sampled keys, the chain of the view yields exactly the view's scan
  // filtered on the key (newest first), and that no chain row lies past
  // the view's row count.
  SchemaPtr schema = WideSchema();
  IndexedPartition part(schema, 0, TinyBatchConfig());
  constexpr int64_t kRows = 8000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> views{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      int64_t probe = r;
      while (!stop.load()) {
        IndexedPartition::View view = part.Snapshot();
        const std::vector<const uint8_t*> scanned = ScanPayloads(view);
        if (scanned.size() != view.num_rows()) errors.fetch_add(1);
        const std::set<const uint8_t*> in_view(scanned.begin(), scanned.end());
        for (int s = 0; s < 4; ++s, probe = (probe + 13) % 97) {
          const Value key(probe);
          std::vector<const uint8_t*> want;
          for (const uint8_t* payload : scanned) {
            if (DecodeColumn(payload, *schema, 0) == key) want.push_back(payload);
          }
          std::reverse(want.begin(), want.end());
          std::vector<const uint8_t*> got;
          view.GetRawRows(key, &got);
          if (got != want) errors.fetch_add(1);
          if (view.GetRows(key).size() != want.size()) errors.fetch_add(1);
          view.ScanChain(key, [&](PackedPointer ptr) {
            if (in_view.count(view.generation()->store.PayloadAt(ptr)) == 0) {
              errors.fetch_add(1);
            }
          });
        }
        views.fetch_add(1);
      }
    });
  }
  int64_t next = 0;
  while (next < kRows) {
    const EncodedRows batch = EncodeRows(*schema, WideRows(next, next + 32));
    ASSERT_TRUE(part.AppendBatch(batch.refs).ok());
    next += 32;
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(part.Append(WideRow(next++)).ok());
  }
  const uint64_t target = views.load() + 4;
  while (views.load() < target) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(views.load(), 0u);
}

TEST(IndexedPartitionPinTest, LookupsPastTheWatermarkAreCounted) {
  // A held view finds a key's live head past its watermark and steps back
  // over the rows appended since the pin; ChainStats counts those steps.
  IndexedPartition part(KvSchema(), 0, SmallConfig());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(part.Append(KvRow(5, "old")).ok());
  IndexedPartition::View held = part.Snapshot();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(part.Append(KvRow(5, "new")).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(part.Append(KvRow(6, "new")).ok());
  EXPECT_EQ(held.GetRows(Value(int64_t{5})).size(), 3u);  // steps over 4
  EXPECT_TRUE(held.GetRows(Value(int64_t{6})).empty());   // steps over 2
  EXPECT_TRUE(held.GetRows(Value(int64_t{7})).empty());   // no chain
  EXPECT_EQ(part.Snapshot().GetRows(Value(int64_t{5})).size(), 7u);
  const ChainStatsSnapshot stats = part.ChainStats();
  EXPECT_EQ(stats.skipping_lookups, 2u);
  EXPECT_EQ(stats.rows_skipped, 6u);
}

TEST(IndexedPartitionPinTest, StatsReadWhileAppendsRun) {
  // index_bytes() counts the trie and the row directory, and is read
  // lock-free while the appender grows both.
  SchemaPtr schema = WideSchema();
  IndexedPartition part(schema, 0, TinyBatchConfig());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::thread reader([&] {
    size_t last = 0;
    while (!stop.load()) {
      const size_t bytes = part.index_bytes();
      if (bytes < last) errors.fetch_add(1);  // append-only: never shrinks
      last = bytes;
      (void)part.arena_bytes();
      (void)part.distinct_keys();
    }
  });
  for (int64_t i = 0; i < 10000; ++i) ASSERT_TRUE(part.Append(WideRow(i)).ok());
  stop.store(true);
  reader.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GE(part.store().directory_bytes(), 10000 * sizeof(const uint8_t*));
  EXPECT_GT(part.index_bytes(), part.store().directory_bytes());
}

}  // namespace
}  // namespace idf
