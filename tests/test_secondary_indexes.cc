// Secondary-index tests: differential equality between indexed probes and
// full scans over randomized NULL-bearing data (every comparison op),
// index-kind costing decisions observed through the metrics counters,
// snapshot isolation of probe results under a live appender (the TSan
// target), index rebuild across compaction, and the range builder's run
// structure (one run per publish, geometric merging, immutable cuts).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "indexed/compactor.h"
#include "indexed/indexed_dataframe.h"
#include "indexed/indexed_relation.h"
#include "indexed/range_index.h"
#include "sql/index_costing.h"

namespace idf {
namespace {

// id is the primary (cTrie) index column; cat is low-cardinality (bitmap),
// score is wide-range (range). Both secondary columns carry NULLs.
SchemaPtr TestSchema() {
  return Schema::Make({{"id", TypeId::kInt64, false},
                       {"cat", TypeId::kInt64, true},
                       {"score", TypeId::kInt64, true},
                       {"tag", TypeId::kString, true}});
}

RowVec MakeRows(size_t n, uint64_t seed, int64_t first_id) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> cat_dist(0, 7);
  std::uniform_int_distribution<int64_t> score_dist(0, 9999);
  std::uniform_int_distribution<int> null_dist(0, 7);  // 1/8 nulls
  RowVec rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t id = first_id + static_cast<int64_t>(i);
    Value cat = null_dist(rng) == 0 ? Value() : Value(cat_dist(rng));
    Value score = null_dist(rng) == 0 ? Value() : Value(score_dist(rng));
    rows.push_back(
        {Value(id), std::move(cat), std::move(score), Value("t" + std::to_string(id))});
  }
  return rows;
}

class SecondaryIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    cfg.row_batch_bytes = 64 * 1024;
    session_ = Session::Make(cfg).ValueOrDie();
    schema_ = TestSchema();
    rows_ = MakeRows(4000, /*seed=*/17, /*first_id=*/0);
    df_ = session_->CreateDataFrame(schema_, rows_, "base").ValueOrDie();
    idf_ = std::make_shared<IndexedDataFrame>(
        IndexedDataFrame::CreateIndex(df_, 0, "base_by_id").ValueOrDie().Cache());
    rel_ = idf_->relation();
    ASSERT_TRUE(rel_->AddSecondaryIndex("cat", SecondaryIndexKind::kBitmap).ok());
    ASSERT_TRUE(rel_->AddSecondaryIndex("score", SecondaryIndexKind::kRange).ok());
  }

  /// Runs `pred` through the session planner (where the costing rule may or
  /// may not pick a probe) and returns the sorted result.
  RowVec Indexed(const ExprPtr& pred) {
    RowVec out = idf_->ToDataFrame()
                     .Filter(pred)
                     .ValueOrDie()
                     .Collect()
                     .ValueOrDie();
    SortRows(&out);
    return out;
  }

  /// Brute-force reference over the source rows (nulls never match).
  RowVec Reference(const std::function<bool(const Row&)>& keep) const {
    RowVec out;
    for (const Row& row : rows_) {
      if (keep(row)) out.push_back(row);
    }
    SortRows(&out);
    return out;
  }

  std::string Plan(const ExprPtr& pred) {
    return idf_->ToDataFrame().Filter(pred).ValueOrDie().Explain().ValueOrDie();
  }

  SessionPtr session_;
  SchemaPtr schema_;
  RowVec rows_;
  DataFrame df_;
  std::shared_ptr<IndexedDataFrame> idf_;
  IndexedRelationPtr rel_;
};

// --- Differential fuzz: every comparison op, indexed vs reference ---------

TEST_F(SecondaryIndexTest, RangeOpsMatchScanOverNullBearingData) {
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<int64_t> bound(0, 9999);
  for (int iter = 0; iter < 8; ++iter) {
    const int64_t b = bound(rng);
    const Value vb{b};
    struct Case {
      ExprPtr pred;
      std::function<bool(const Value&)> keep;
    };
    std::vector<Case> cases;
    cases.push_back({Lt(Col("score"), Lit(vb)),
                     [b](const Value& v) { return v.AsInt64() < b; }});
    cases.push_back({Le(Col("score"), Lit(vb)),
                     [b](const Value& v) { return v.AsInt64() <= b; }});
    cases.push_back({Gt(Col("score"), Lit(vb)),
                     [b](const Value& v) { return v.AsInt64() > b; }});
    cases.push_back({Ge(Col("score"), Lit(vb)),
                     [b](const Value& v) { return v.AsInt64() >= b; }});
    cases.push_back({Eq(Col("score"), Lit(vb)),
                     [b](const Value& v) { return v.AsInt64() == b; }});
    const int64_t lo = b, hi = std::min<int64_t>(9999, b + 400);
    cases.push_back({And(Ge(Col("score"), Lit(Value(lo))),
                         Le(Col("score"), Lit(Value(hi)))),
                     [lo, hi](const Value& v) {
                       return v.AsInt64() >= lo && v.AsInt64() <= hi;
                     }});
    for (const Case& c : cases) {
      RowVec got = Indexed(c.pred);
      RowVec want = Reference(
          [&](const Row& row) { return !row[2].is_null() && c.keep(row[2]); });
      ASSERT_EQ(got, want);
    }
  }
}

TEST_F(SecondaryIndexTest, BitmapEqualityAndInMatchScan) {
  for (int64_t k = 0; k < 8; ++k) {
    RowVec got = Indexed(Eq(Col("cat"), Lit(Value(k))));
    RowVec want = Reference([k](const Row& row) {
      return !row[1].is_null() && row[1].AsInt64() == k;
    });
    ASSERT_EQ(got, want);
  }
  // IN as OR-of-equality.
  RowVec got = Indexed(Or(Eq(Col("cat"), Lit(Value(int64_t{2}))),
                          Eq(Col("cat"), Lit(Value(int64_t{5})))));
  RowVec want = Reference([](const Row& row) {
    return !row[1].is_null() &&
           (row[1].AsInt64() == 2 || row[1].AsInt64() == 5);
  });
  EXPECT_EQ(got, want);
}

TEST_F(SecondaryIndexTest, CombinedBitmapAndRangeProbesIntersect) {
  session_->metrics().Reset();
  ExprPtr pred = And(Eq(Col("cat"), Lit(Value(int64_t{3}))),
                     And(Ge(Col("score"), Lit(Value(int64_t{1000}))),
                         Le(Col("score"), Lit(Value(int64_t{1400})))));
  RowVec got = Indexed(pred);
  RowVec want = Reference([](const Row& row) {
    return !row[1].is_null() && !row[2].is_null() && row[1].AsInt64() == 3 &&
           row[2].AsInt64() >= 1000 && row[2].AsInt64() <= 1400;
  });
  EXPECT_EQ(got, want);
  // Both index kinds participated in the ANDed probe.
  EXPECT_GT(session_->metrics().range_probes(), 0u);
  EXPECT_GT(session_->metrics().bitmap_probes(), 0u);
}

// --- Costing: probe on selective predicates, scan when unselective --------

TEST_F(SecondaryIndexTest, SelectiveRangeChoosesProbeAndAvoidsScans) {
  // ~1% selective BETWEEN: must go through the range index.
  ExprPtr pred = And(Ge(Col("score"), Lit(Value(int64_t{500}))),
                     Le(Col("score"), Lit(Value(int64_t{599}))));
  EXPECT_NE(Plan(pred).find("SecondaryIndexProbe"), std::string::npos);
  session_->metrics().Reset();
  RowVec got = Indexed(pred);
  RowVec want = Reference([](const Row& row) {
    return !row[2].is_null() && row[2].AsInt64() >= 500 &&
           row[2].AsInt64() <= 599;
  });
  EXPECT_EQ(got, want);
  EXPECT_GT(session_->metrics().range_probes(), 0u);
  EXPECT_GT(session_->metrics().index_scans_avoided(), 0u);
  // The probe reads far fewer rows than the table holds.
  EXPECT_LT(session_->metrics().rows_scanned(), rows_.size() / 2);
}

TEST_F(SecondaryIndexTest, UnselectivePredicateChoosesVectorizedScan) {
  // ~90% selective: costing must reject the probe and scan.
  ExprPtr pred = Ge(Col("score"), Lit(Value(int64_t{1000})));
  EXPECT_EQ(Plan(pred).find("SecondaryIndexProbe"), std::string::npos);
  session_->metrics().Reset();
  RowVec got = Indexed(pred);
  RowVec want = Reference(
      [](const Row& row) { return !row[2].is_null() && row[2].AsInt64() >= 1000; });
  EXPECT_EQ(got, want);
  EXPECT_EQ(session_->metrics().range_probes(), 0u);
  EXPECT_EQ(session_->metrics().bitmap_probes(), 0u);
}

// --- Appends: probes cover the cut and scan the uncovered suffix ----------

TEST_F(SecondaryIndexTest, ProbesStayExactAcrossAppendBatches) {
  for (int batch = 0; batch < 3; ++batch) {
    RowVec extra =
        MakeRows(2000, /*seed=*/100 + batch, /*first_id=*/10000 + batch * 2000);
    ASSERT_TRUE(rel_->AppendRows(session_->exec(), extra).ok());
    rows_.insert(rows_.end(), extra.begin(), extra.end());
    RowVec got = Indexed(And(Ge(Col("score"), Lit(Value(int64_t{200}))),
                             Le(Col("score"), Lit(Value(int64_t{299})))));
    RowVec want = Reference([](const Row& row) {
      return !row[2].is_null() && row[2].AsInt64() >= 200 &&
             row[2].AsInt64() <= 299;
    });
    ASSERT_EQ(got, want);
  }
  // Maintenance time accumulated on the append path's executor.
  const QueryMetrics& m = session_->metrics();
  EXPECT_GT(m.bitmap_maintenance_us() + m.range_maintenance_us(), 0u);
}

TEST(SecondaryUpkeepTest, EveryPublishReportsItsRangeUpkeepInNanoseconds) {
  // A one-row batch spends well under a microsecond on range upkeep; the
  // per-publish stats carry nanoseconds, row feed and cut build included,
  // so no publish reads as free.
  EngineConfig cfg;
  cfg.num_threads = 1;
  auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
  SchemaPtr schema = TestSchema();
  IndexedPartition part(schema, 0, cfg);
  ASSERT_TRUE(part.AddSecondaryIndexLocked({2, SecondaryIndexKind::kRange}).ok());
  for (int64_t i = 0; i < 50; ++i) {
    RowVec row = {{Value(i), Value(int64_t{1}), Value(i * 3), Value("t")}};
    EncodedRowBatch enc = EncodeRowBatch(*ctx, *schema, row).ValueOrDie();
    IndexedPartition::EncodedRowRef ref{enc.payload(0), enc.size(0),
                                        row[0][0].Hash(), true};
    IndexedPartition::AppendBatchResult result;
    ASSERT_TRUE(part.AppendBatch({ref}, &result).ok());
    EXPECT_EQ(result.maintenance.rows, 1u);
    EXPECT_GT(result.maintenance.range_ns, 0u) << "publish " << i;
    EXPECT_EQ(result.maintenance.bitmap_ns, 0u);
  }
}

// --- View-level semantics: fallback and probe/scan equivalence ------------

TEST_F(SecondaryIndexTest, KindMismatchFallsBackToFullScan) {
  // A range probe against the bitmap column is unservable: the view must
  // fall back to scanning and still return the exact matches.
  SecondaryProbe probe;
  probe.column = 1;
  probe.kind = SecondaryIndexKind::kRange;
  probe.lo = Value(int64_t{2});
  probe.hi = Value(int64_t{5});
  for (int p = 0; p < rel_->num_partitions(); ++p) {
    IndexedPartition::View view = rel_->partition(p).Snapshot();
    std::vector<const uint8_t*> via_probe;
    SecondaryProbeStats stats;
    view.ProbeSecondary({probe}, &via_probe, &stats);
    EXPECT_FALSE(stats.used_index);
    std::vector<const uint8_t*> via_scan;
    view.ScanRaw([&](const uint8_t* payload) {
      if (RawColumnIsNull(payload, 1)) return;
      if (ProbeMatches(probe, DecodeColumn(payload, *schema_, 1))) {
        via_scan.push_back(payload);
      }
    });
    EXPECT_EQ(via_probe, via_scan);
  }
}

TEST_F(SecondaryIndexTest, SnapshotConsistentUnderLiveAppender) {
  // Appender thread lands batches while readers capture views and compare
  // the indexed probe against a full scan of the SAME view: both must see
  // the identical frozen row set (cut + suffix = watermark). TSan verifies
  // the cut's publish edge.
  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::thread appender([&] {
    int64_t next_id = 50000;
    uint64_t seed = 7;
    while (!stop.load(std::memory_order_relaxed)) {
      RowVec extra = MakeRows(128, ++seed, next_id);
      next_id += 128;
      ASSERT_TRUE(rel_->AppendRows(session_->exec(), extra).ok());
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  SecondaryProbe range;
  range.column = 2;
  range.kind = SecondaryIndexKind::kRange;
  range.lo = Value(int64_t{3000});
  range.hi = Value(int64_t{4000});
  SecondaryProbe bitmap;
  bitmap.column = 1;
  bitmap.kind = SecondaryIndexKind::kBitmap;
  bitmap.keys = {Value(int64_t{1}), Value(int64_t{6})};

  for (int iter = 0; iter < 40; ++iter) {
    for (int p = 0; p < rel_->num_partitions(); ++p) {
      IndexedPartition::View view = rel_->partition(p).Snapshot();
      for (const SecondaryProbe* probe : {&range, &bitmap}) {
        std::vector<const uint8_t*> via_index;
        view.ProbeSecondary({*probe}, &via_index, nullptr);
        std::vector<const uint8_t*> via_scan;
        const int col = probe->column;
        view.ScanRaw([&](const uint8_t* payload) {
          if (RawColumnIsNull(payload, col)) return;
          if (ProbeMatches(*probe, DecodeColumn(payload, *schema_, col))) {
            via_scan.push_back(payload);
          }
        });
        // A mismatch here means the cut + suffix decomposition lost or
        // duplicated a row (e.g. an unaligned suffix resume offset).
        ASSERT_EQ(via_index, via_scan);
      }
      // A view is immutable: probing it again after more appends landed
      // returns the identical result (snapshot isolation).
      std::vector<const uint8_t*> again;
      view.ProbeSecondary({range}, &again, nullptr);
      std::vector<const uint8_t*> first;
      view.ProbeSecondary({range}, &first, nullptr);
      ASSERT_EQ(first, again);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  appender.join();
  EXPECT_GT(batches.load(), 0);
}

// --- Compaction: indexes are rebuilt over the compacted generation --------

TEST_F(SecondaryIndexTest, CompactionRebuildsIndexesWithIdenticalResults) {
  // Duplicate keys so compaction actually rewrites chains.
  RowVec dup = MakeRows(1000, /*seed=*/31, /*first_id=*/0);
  ASSERT_TRUE(rel_->AppendRows(session_->exec(), dup).ok());
  rows_.insert(rows_.end(), dup.begin(), dup.end());

  ExprPtr pred = And(Ge(Col("score"), Lit(Value(int64_t{100}))),
                     Le(Col("score"), Lit(Value(int64_t{400}))));
  RowVec before = Indexed(pred);

  Compactor compactor(rel_);
  for (int p = 0; p < rel_->num_partitions(); ++p) {
    ASSERT_TRUE(compactor.CompactPartition(p).ok());
  }
  // Fresh views carry a rebuilt cut covering every surviving row.
  for (int p = 0; p < rel_->num_partitions(); ++p) {
    IndexedPartition::View view = rel_->partition(p).Snapshot();
    ASSERT_NE(view.secondary_cut(), nullptr);
    EXPECT_EQ(view.secondary_cut()->covered, view.num_rows());
  }

  session_->metrics().Reset();
  RowVec after = Indexed(pred);
  EXPECT_EQ(before, after);
  RowVec want = Reference([](const Row& row) {
    return !row[2].is_null() && row[2].AsInt64() >= 100 &&
           row[2].AsInt64() <= 400;
  });
  EXPECT_EQ(after, want);
  // The rebuilt indexes serve probes (not the scan fallback).
  EXPECT_GT(session_->metrics().range_probes(), 0u);
}


// ---------------------------------------------------------------------------
// RangeIndexBuilder: one sorted run per publish, merged geometrically.
// ---------------------------------------------------------------------------

/// Every position of `entries` whose key lies in [lo, hi], ascending.
std::vector<uint32_t> ScanRange(const std::vector<std::pair<int64_t, uint32_t>>& entries,
                                int64_t lo, int64_t hi) {
  std::vector<uint32_t> out;
  for (const auto& [key, pos] : entries) {
    if (key >= lo && key <= hi) out.push_back(pos);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint32_t> ProbeRange(const RangeIndexCut& cut, int64_t lo, int64_t hi) {
  std::vector<uint32_t> out;
  const size_t n = cut.Probe(Value(lo), true, Value(hi), true, &out);
  EXPECT_EQ(n, out.size());
  EXPECT_EQ(cut.CountInRange(Value(lo), true, Value(hi), true), n);
  std::sort(out.begin(), out.end());
  return out;
}

/// Each run sorted by (key, position), and run sizes more than doubling
/// from the newest run down (the cut's O(log n) bound).
void ExpectRunShape(const RangeIndexCut& cut) {
  const auto& runs = cut.runs();
  for (size_t r = 0; r < runs.size(); ++r) {
    const SortedRun& run = *runs[r];
    for (size_t i = 1; i < run.size(); ++i) {
      ASSERT_FALSE(run.keys[i] < run.keys[i - 1]);
      if (run.keys[i] == run.keys[i - 1]) {
        ASSERT_LT(run.pos[i - 1], run.pos[i]);
      }
    }
    if (r > 0) {
      EXPECT_GT(runs[r - 1]->size(), 2 * run.size());
    }
  }
}

TEST(RangeIndexBuilderTest, SingleEntryPublishesKeepLogarithmicRuns) {
  RangeIndexBuilder builder;
  std::mt19937_64 rng(5);
  const uint32_t kPublishes = 10000;
  for (uint32_t n = 1; n <= kPublishes; ++n) {
    builder.Add(Value(static_cast<int64_t>(rng() % 1000)), n - 1);
    RangeIndexCutPtr cut = builder.BuildCut(n);
    ASSERT_EQ(cut->keys_indexed(), n);
    ASSERT_LE(static_cast<double>(cut->runs().size()), 2 * std::log2(n) + 2)
        << "after " << n << " publishes";
    size_t entries = 0;
    for (const SortedRunPtr& run : cut->runs()) entries += run->size();
    ASSERT_EQ(entries, n);
  }
  ExpectRunShape(*builder.BuildCut(kPublishes + 1));
}

TEST(RangeIndexBuilderTest, OldCutProbesSurviveLaterPublishesAndMerges) {
  RangeIndexBuilder builder;
  std::mt19937_64 rng(9);
  std::vector<std::pair<int64_t, uint32_t>> entries;
  uint32_t pos = 0;
  auto add = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t key = static_cast<int64_t>(rng() % 500);
      builder.Add(Value(key), pos);
      entries.emplace_back(key, pos++);
    }
  };
  uint64_t epoch = 0;
  for (int b = 0; b < 20; ++b) {
    add(1 + rng() % 8);
    builder.BuildCut(++epoch);
  }
  RangeIndexCutPtr old_cut = builder.BuildCut(++epoch);
  const auto old_entries = entries;
  const std::vector<uint32_t> before = ProbeRange(*old_cut, 100, 300);
  ASSERT_EQ(before, ScanRange(old_entries, 100, 300));

  // Later publishes merge the runs the old cut shares; MergeAll replaces
  // them all. The old cut's runs are immutable, so its answers stay put.
  for (int b = 0; b < 200; ++b) {
    add(1 + rng() % 8);
    builder.BuildCut(++epoch);
  }
  builder.MergeAll(++epoch);
  RangeIndexCutPtr merged = builder.BuildCut(++epoch);
  EXPECT_EQ(merged->runs().size(), 1u);
  EXPECT_EQ(ProbeRange(*old_cut, 100, 300), before);
  EXPECT_EQ(ProbeRange(*old_cut, 0, 499), ScanRange(old_entries, 0, 499));
  EXPECT_EQ(ProbeRange(*merged, 100, 300), ScanRange(entries, 100, 300));
}

TEST(RangeIndexBuilderTest, ProbeMatchesScanAfterEveryPublishAndMergeAll) {
  RangeIndexBuilder builder;
  std::mt19937_64 rng(13);
  std::vector<std::pair<int64_t, uint32_t>> entries;
  uint32_t pos = 0;
  uint64_t epoch = 0;
  auto check = [&](const RangeIndexCut& cut) {
    ExpectRunShape(cut);
    for (int q = 0; q < 4; ++q) {
      int64_t lo = static_cast<int64_t>(rng() % 220) - 10;
      int64_t hi = lo + static_cast<int64_t>(rng() % 60);
      ASSERT_EQ(ProbeRange(cut, lo, hi), ScanRange(entries, lo, hi))
          << "[" << lo << ", " << hi << "] at epoch " << epoch;
    }
  };
  for (int round = 0; round < 3; ++round) {
    for (int b = 0; b < 150; ++b) {
      // Batches of 0..40 entries; keys with many duplicates.
      const size_t n = rng() % 41;
      for (size_t i = 0; i < n; ++i) {
        const int64_t key = static_cast<int64_t>(rng() % 200);
        builder.Add(Value(key), pos);
        entries.emplace_back(key, pos++);
      }
      RangeIndexCutPtr cut = builder.BuildCut(++epoch);
      ASSERT_EQ(cut->keys_indexed(), entries.size());
      check(*cut);
    }
    // Pending entries fold into the compaction merge too.
    for (int i = 0; i < 5; ++i) {
      const int64_t key = static_cast<int64_t>(rng() % 200);
      builder.Add(Value(key), pos);
      entries.emplace_back(key, pos++);
    }
    builder.MergeAll(++epoch);
    RangeIndexCutPtr cut = builder.BuildCut(++epoch);
    ASSERT_EQ(cut->runs().size(), 1u);
    ASSERT_EQ(cut->runs()[0]->size(), entries.size());
    check(*cut);
  }
}

}  // namespace
}  // namespace idf
