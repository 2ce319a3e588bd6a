// Tests for background chain compaction: logical equivalence (GetRows is
// byte-identical, newest-first, before and after a compaction pass),
// MVCC safety (pinned views keep reading the retired generation until
// they drain), and the fragmentation trigger. The concurrency test at the
// bottom runs readers, an appender, and a compactor loop together and is
// part of the TSan CI job.
#include "indexed/compactor.h"

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "storage/row_batch.h"

namespace idf {
namespace {

ExecutorContextPtr MakeCtx(int partitions = 4, int threads = 2,
                           size_t batch_bytes = 4 * 1024) {
  EngineConfig cfg;
  cfg.num_partitions = partitions;
  cfg.num_threads = threads;
  cfg.row_batch_bytes = batch_bytes;
  return ExecutorContext::Make(cfg).ValueOrDie();
}

SchemaPtr KvSchema() {
  return Schema::Make({{"k", TypeId::kInt64, true}, {"v", TypeId::kString, true}});
}

// Appends `batches` batches of `per_batch` rows cycling over `keys` keys,
// so every key's chain spreads across many row batches (worst-case
// fragmentation for the chain walk).
void AppendFragmented(ExecutorContext& ctx, IndexedRelation& rel, int batches,
                      int per_batch, int keys, int tag = 0) {
  for (int b = 0; b < batches; ++b) {
    RowVec rows;
    rows.reserve(static_cast<size_t>(per_batch));
    for (int i = 0; i < per_batch; ++i) {
      int64_t k = (b * per_batch + i) % keys;
      rows.push_back({Value(k), Value("t" + std::to_string(tag) + "_b" +
                                      std::to_string(b) + "_r" +
                                      std::to_string(i))});
    }
    IDF_CHECK_OK(rel.AppendRows(ctx, rows));
  }
}

// The exact encoded bytes of every row on `key`'s chain, newest first.
std::vector<std::string> ChainBytes(const IndexedRelationSnapshot& snap,
                                    const Value& key) {
  int p = snap.partitioner().PartitionOf(key);
  const IndexedPartition::View& view = snap.view(p);
  const Schema& schema = *snap.schema();
  std::vector<std::string> out;
  view.ForEachRawRow(key, [&](const uint8_t* payload) {
    out.emplace_back(reinterpret_cast<const char*>(payload),
                     EncodedRowSize(payload, schema));
  });
  return out;
}

size_t CompactAll(Compactor& compactor, IndexedRelation& rel) {
  for (int p = 0; p < rel.num_partitions(); ++p) {
    IDF_CHECK_OK(compactor.CompactPartition(p));
  }
  return compactor.DrainRetired();
}

TEST(CompactionTest, GetRowsByteIdenticalAfterCompaction) {
  auto ctx = MakeCtx();
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  constexpr int kKeys = 37;
  AppendFragmented(*ctx, *rel, /*batches=*/40, /*per_batch=*/50, kKeys);

  IndexedRelationSnapshot before = rel->Snapshot();
  std::vector<std::vector<std::string>> expected;
  for (int64_t k = 0; k < kKeys; ++k) {
    expected.push_back(ChainBytes(before, Value(k)));
    ASSERT_FALSE(expected.back().empty()) << k;
  }

  Compactor compactor(rel);
  CompactAll(compactor, *rel);
  EXPECT_EQ(compactor.stats().compactions_run, 4u);

  IndexedRelationSnapshot after = rel->Snapshot();
  EXPECT_EQ(after.num_rows(), before.num_rows());
  for (int64_t k = 0; k < kKeys; ++k) {
    // Byte-identical payloads in the same newest-first order.
    EXPECT_EQ(ChainBytes(after, Value(k)), expected[static_cast<size_t>(k)])
        << "key " << k;
  }
}

TEST(CompactionTest, FuzzRandomizedAppendsSurviveRepeatedCompaction) {
  auto ctx = MakeCtx(2, 1);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  Compactor compactor(rel);
  std::mt19937 rng(20260805);
  std::uniform_int_distribution<int64_t> key_dist(0, 24);
  std::uniform_int_distribution<int> len_dist(1, 60);
  std::vector<std::vector<std::string>> newest_first_values(25);

  for (int round = 0; round < 30; ++round) {
    RowVec rows;
    const int n = len_dist(rng);
    for (int i = 0; i < n; ++i) {
      int64_t k = key_dist(rng);
      std::string v = "r" + std::to_string(round) + "_" + std::to_string(i);
      rows.push_back({Value(k), Value(v)});
      auto& chain = newest_first_values[static_cast<size_t>(k)];
      chain.insert(chain.begin(), v);
    }
    ASSERT_TRUE(rel->AppendRows(*ctx, rows).ok());
    if (round % 7 == 3) CompactAll(compactor, *rel);
  }
  CompactAll(compactor, *rel);

  for (int64_t k = 0; k <= 24; ++k) {
    RowVec got = rel->GetRows(Value(k));
    const auto& want = newest_first_values[static_cast<size_t>(k)];
    ASSERT_EQ(got.size(), want.size()) << k;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i][1], Value(want[i])) << "key " << k << " pos " << i;
    }
  }
}

TEST(CompactionTest, PinnedViewOutlivesCompactionAndBlocksReclamation) {
  auto ctx = MakeCtx();
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  AppendFragmented(*ctx, *rel, 20, 50, 10);

  PinnedSnapshotPtr pin = rel->Pin();
  std::vector<std::string> pinned_bytes = ChainBytes(pin->snapshot(), Value(int64_t{3}));

  Compactor compactor(rel);
  for (int p = 0; p < rel->num_partitions(); ++p) {
    ASSERT_TRUE(compactor.CompactPartition(p).ok());
  }
  // Append more AFTER the pin: the pinned view must not see it.
  AppendFragmented(*ctx, *rel, 5, 50, 10, /*tag=*/1);

  // The pin still reads the retired generations, byte-identical.
  EXPECT_EQ(ChainBytes(pin->snapshot(), Value(int64_t{3})), pinned_bytes);
  EXPECT_EQ(pin->num_rows(), 1000u);

  // Reclamation is held back while the pin lives...
  EXPECT_EQ(compactor.DrainRetired(), 0u);
  Compactor::Stats held = compactor.stats();
  EXPECT_EQ(held.retired_pending, 4u);
  EXPECT_EQ(held.bytes_reclaimed, 0u);

  // ...and completes once it drains.
  pin.reset();
  EXPECT_EQ(compactor.DrainRetired(), 4u);
  Compactor::Stats drained = compactor.stats();
  EXPECT_EQ(drained.retired_pending, 0u);
  EXPECT_GT(drained.bytes_reclaimed, 0u);
  EXPECT_EQ(drained.generations_retired, 4u);

  // The live relation kept both the original and the post-pin rows.
  EXPECT_EQ(rel->num_rows(), 1250u);
}

TEST(CompactionTest, NullKeyRowsSurviveCompaction) {
  auto ctx = MakeCtx(2, 1);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  RowVec rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back({i % 3 == 0 ? Value::Null() : Value(i % 7),
                    Value("r" + std::to_string(i))});
  }
  ASSERT_TRUE(rel->AppendRows(*ctx, rows).ok());

  Compactor compactor(rel);
  CompactAll(compactor, *rel);

  EXPECT_EQ(rel->num_rows(), 300u);
  size_t scanned = 0, nulls = 0;
  for (int p = 0; p < rel->num_partitions(); ++p) {
    rel->partition(p).Snapshot().Scan([&](const Row& row) {
      ++scanned;
      if (row[0].is_null()) ++nulls;
    });
  }
  EXPECT_EQ(scanned, 300u);
  EXPECT_EQ(nulls, 100u);
}

TEST(CompactionTest, CompactionBoundsChainBatchSpan) {
  auto ctx = MakeCtx(1, 1);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  // Few keys, many batches: every chain crosses ~every row batch.
  AppendFragmented(*ctx, *rel, 50, 40, 8);
  ChainStatsSnapshot before = rel->ChainStats();
  ASSERT_GT(before.MeanBatchSpan(), 4.0);
  EXPECT_EQ(before.total_links, 2000u);

  CompactionConfig config;
  config.max_mean_batch_span = 4.0;
  config.min_partition_rows = 100;
  Compactor compactor(rel, config);
  size_t compacted = compactor.RunOnce().ValueOrDie();
  EXPECT_EQ(compacted, 1u);

  // Key-clustered rewrite: each chain now sits in consecutive batches, so
  // the mean span collapses to ~(chain bytes / batch bytes).
  ChainStatsSnapshot after = rel->ChainStats();
  EXPECT_EQ(after.total_links, 2000u);
  EXPECT_EQ(after.num_keys, before.num_keys);
  EXPECT_LT(after.MeanBatchSpan(), before.MeanBatchSpan() / 2);
  EXPECT_LE(after.max_chain_len, before.max_chain_len);

  // Below threshold now: another pass is a no-op.
  if (after.MeanBatchSpan() <= config.max_mean_batch_span) {
    EXPECT_EQ(compactor.RunOnce().ValueOrDie(), 0u);
  }
}

TEST(CompactionTest, RunOnceSkipsSmallAndDefragmentedPartitions) {
  auto ctx = MakeCtx(2, 1);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  AppendFragmented(*ctx, *rel, 4, 25, 5);  // 100 rows, tiny

  CompactionConfig config;
  config.min_partition_rows = 4096;  // nothing qualifies
  Compactor compactor(rel, config);
  EXPECT_EQ(compactor.RunOnce().ValueOrDie(), 0u);
  EXPECT_EQ(compactor.stats().compactions_run, 0u);
}

TEST(CompactionTest, PassPartitionCapSpreadsWorkAcrossPasses) {
  auto ctx = MakeCtx(4, 1);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  AppendFragmented(*ctx, *rel, 40, 50, 37);  // every partition fragmented

  CompactionConfig config;
  config.max_mean_batch_span = 4.0;
  config.min_partition_rows = 64;
  config.max_partitions_per_pass = 2;
  config.partition_pacing = std::chrono::microseconds(100);
  Compactor compactor(rel, config);

  // No pass may exceed the cap; compacted partitions defragment, so the
  // passes converge once every partition has had its turn.
  size_t passes = 0;
  size_t total_compactions = 0;
  while (true) {
    size_t n = compactor.RunOnce().ValueOrDie();
    if (n == 0) break;
    EXPECT_LE(n, config.max_partitions_per_pass);
    total_compactions += n;
    ASSERT_LE(++passes, 16u) << "capped passes failed to converge";
  }
  EXPECT_GT(passes, 1u);  // the cap actually deferred work to later passes
  EXPECT_EQ(compactor.stats().compactions_run, total_compactions);

  size_t total_rows = 0;
  for (int64_t k = 0; k < 37; ++k) total_rows += rel->GetRows(Value(k)).size();
  EXPECT_EQ(total_rows, rel->num_rows());
}

TEST(CompactionTest, StopCutsPacingWaitShort) {
  auto ctx = MakeCtx(4, 1);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  AppendFragmented(*ctx, *rel, 40, 50, 37);

  CompactionConfig config;
  config.max_mean_batch_span = 4.0;
  config.min_partition_rows = 64;
  config.interval = std::chrono::milliseconds(1);
  // A pacing wait far beyond the test budget: with four fragmented
  // partitions the first background pass parks between rewrites, and only
  // a prompt Stop() can get the thread back.
  config.partition_pacing = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::seconds(60));
  Compactor compactor(rel, config);
  compactor.Start();
  for (int i = 0; i < 400 && compactor.stats().compactions_run == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto t0 = std::chrono::steady_clock::now();
  compactor.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_GE(compactor.stats().compactions_run, 1u);
}

TEST(CompactionTest, BackgroundThreadCompactsUnderAppendStream) {
  auto ctx = MakeCtx(2, 2);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  CompactionConfig config;
  config.max_mean_batch_span = 2.0;
  config.min_partition_rows = 256;
  config.interval = std::chrono::milliseconds(5);
  Compactor compactor(rel, config);
  compactor.Start();
  compactor.Start();  // idempotent
  AppendFragmented(*ctx, *rel, 60, 40, 6);
  // Wait (bounded) for at least one background pass to trigger.
  for (int i = 0; i < 400 && compactor.stats().compactions_run == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    AppendFragmented(*ctx, *rel, 1, 40, 6);
  }
  compactor.Stop();
  EXPECT_GT(compactor.stats().compactions_run, 0u);
  size_t total = 0;
  for (int64_t k = 0; k < 6; ++k) total += rel->GetRows(Value(k)).size();
  EXPECT_EQ(total, rel->num_rows());
}

// The TSan target: concurrent pinned readers + append stream + forced
// compaction, all racing on the same partitions. Asserts only invariants
// that hold at any interleaving; TSan checks the memory model.
TEST(CompactionTest, ConcurrentReadersAppendersAndCompactorAreRaceFree) {
  auto ctx = MakeCtx(2, 4);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  AppendFragmented(*ctx, *rel, 10, 40, 8);
  Compactor compactor(rel);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::mt19937 rng(std::hash<std::thread::id>{}(std::this_thread::get_id()));
      while (!stop.load(std::memory_order_acquire)) {
        PinnedSnapshotPtr pin = rel->Pin();
        const size_t pinned_rows = pin->num_rows();
        size_t seen = 0;
        for (int64_t k = 0; k < 8; ++k) {
          RowVec rows = pin->GetRows(Value(k));
          seen += rows.size();
          for (const Row& row : rows) IDF_CHECK(row[0] == Value(k));
        }
        // An append publishes its key heads before its row count, so
        // every row under the pinned watermark is on its key's chain:
        // with every key indexed, the chains cover the pin exactly.
        IDF_CHECK(seen == pinned_rows)
            << seen << " chain rows vs " << pinned_rows << " pinned";
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread appender([&] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      AppendFragmented(*ctx, *rel, 1, 40, 8, /*tag=*/++round);
    }
  });

  std::thread compact_loop([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int p = 0; p < rel->num_partitions(); ++p) {
        IDF_CHECK_OK(compactor.CompactPartition(p));
      }
      compactor.DrainRetired();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  appender.join();
  compact_loop.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(compactor.stats().compactions_run, 0u);
  // Quiesced: everything retired during the run must now be reclaimable.
  compactor.DrainRetired();
  EXPECT_EQ(compactor.stats().retired_pending, 0u);
  size_t total = 0;
  for (int64_t k = 0; k < 8; ++k) total += rel->GetRows(Value(k)).size();
  EXPECT_EQ(total, rel->num_rows());
}

}  // namespace
}  // namespace idf
