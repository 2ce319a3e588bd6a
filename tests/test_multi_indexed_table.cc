// Tests for MultiIndexedTable: several indexes over one logical table with
// fan-out appends, and the planner choosing among them as access paths.
#include "indexed/multi_indexed_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "service/query_service.h"

namespace idf {
namespace {

class MultiIndexedTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    session_ = Session::Make(cfg).ValueOrDie();
    schema_ = Schema::Make({{"id", TypeId::kInt64, false},
                            {"creator", TypeId::kInt64, false},
                            {"content", TypeId::kString, true}});
    for (int64_t i = 0; i < 300; ++i) {
      rows_.push_back({Value(1000 + i), Value(i % 20),
                       Value("post" + std::to_string(i))});
    }
    df_ = session_->CreateDataFrame(schema_, rows_, "posts").ValueOrDie();
    table_ = std::make_shared<MultiIndexedTable>(
        MultiIndexedTable::Create(df_, {"id", "creator"}, "posts").ValueOrDie());
  }

  /// Filters the table's scan view and a vanilla DataFrame over the same
  /// rows by `pred`: returns the optimized plan, and expects equal results.
  std::string FilterMatchesVanilla(const ExprPtr& pred) {
    auto indexed = table_->ToDataFrame().ValueOrDie().Filter(pred).ValueOrDie();
    auto vanilla = session_->CreateDataFrame(schema_, rows_, "vanilla")
                       .ValueOrDie()
                       .Filter(pred)
                       .ValueOrDie();
    RowVec got = indexed.Collect().ValueOrDie();
    RowVec want = vanilla.Collect().ValueOrDie();
    SortRows(&got);
    SortRows(&want);
    EXPECT_EQ(got, want) << pred->ToString();
    EXPECT_FALSE(want.empty()) << pred->ToString();
    return indexed.Explain().ValueOrDie();
  }

  SessionPtr session_;
  SchemaPtr schema_;
  RowVec rows_;
  DataFrame df_;
  std::shared_ptr<MultiIndexedTable> table_;
};

TEST_F(MultiIndexedTableTest, CreateBuildsAllIndexes) {
  EXPECT_EQ(table_->IndexedColumns(), (std::vector<std::string>{"id", "creator"}));
  EXPECT_TRUE(table_->HasIndexOn("id"));
  EXPECT_TRUE(table_->HasIndexOn("creator"));
  EXPECT_FALSE(table_->HasIndexOn("content"));
  EXPECT_EQ(table_->NumRows(), 300u);
}

TEST_F(MultiIndexedTableTest, CreateRejectsBadInput) {
  EXPECT_TRUE(
      MultiIndexedTable::Create(df_, {}, "x").status().IsInvalidArgument());
  EXPECT_TRUE(MultiIndexedTable::Create(df_, {"id", "id"}, "x")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      MultiIndexedTable::Create(df_, {"missing"}, "x").status().IsKeyError());
}

TEST_F(MultiIndexedTableTest, LookupsRouteToTheRightIndex) {
  EXPECT_EQ(table_->GetRows("id", Value(int64_t{1042}))
                .ValueOrDie()
                .Count()
                .ValueOrDie(),
            1u);
  EXPECT_EQ(table_->GetRows("creator", Value(int64_t{7}))
                .ValueOrDie()
                .Count()
                .ValueOrDie(),
            15u);  // 300 posts / 20 creators
  EXPECT_TRUE(table_->GetRows("content", Value("post1")).status().IsKeyError());
}

TEST_F(MultiIndexedTableTest, AppendFansOutToAllIndexes) {
  RowVec extra = {{Value(int64_t{9999}), Value(int64_t{7}), Value("fresh")}};
  ASSERT_TRUE(table_->AppendRowsDirect(extra).ok());
  EXPECT_EQ(table_->NumRows(), 301u);
  // Visible through BOTH indexes.
  EXPECT_EQ(table_->GetRows("id", Value(int64_t{9999}))
                .ValueOrDie()
                .Count()
                .ValueOrDie(),
            1u);
  EXPECT_EQ(table_->GetRows("creator", Value(int64_t{7}))
                .ValueOrDie()
                .Count()
                .ValueOrDie(),
            16u);
}

TEST_F(MultiIndexedTableTest, EncodeOnceFanOutLandsSameRowCountInEveryIndex) {
  RowVec extra;
  for (int64_t i = 0; i < 250; ++i) {
    extra.push_back({Value(5000 + i), Value(i % 13), Value("x" + std::to_string(i))});
  }
  ASSERT_TRUE(table_->AppendRowsDirect(extra).ok());
  // The batch is encoded once and fanned out; every index must hold
  // exactly the same row count (and the same bytes, per index storage).
  std::vector<size_t> counts;
  size_t data_bytes = 0;
  for (const std::string& col : table_->IndexedColumns()) {
    auto rel = table_->Index(col).ValueOrDie().relation();
    counts.push_back(rel->num_rows());
    if (data_bytes == 0) {
      data_bytes = rel->data_bytes();
    } else {
      EXPECT_EQ(rel->data_bytes(), data_bytes) << col;
    }
  }
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 550u);
  EXPECT_EQ(counts[1], 550u);
}

TEST_F(MultiIndexedTableTest, AppendRowsValidatesSchema) {
  auto other = session_
                   ->CreateDataFrame(Schema::Make({{"x", TypeId::kInt64, false}}),
                                     {{Value(int64_t{1})}}, "o")
                   .ValueOrDie();
  EXPECT_TRUE(table_->AppendRows(other).IsInvalidArgument());
}

TEST_F(MultiIndexedTableTest, JoinPicksMatchingIndex) {
  auto probe_schema = Schema::Make({{"pid", TypeId::kInt64, false}});
  RowVec probe_rows = {{Value(int64_t{1003})}, {Value(int64_t{1007})}};
  auto probe =
      session_->CreateDataFrame(probe_schema, probe_rows, "probe").ValueOrDie();
  auto joined = table_->Join(probe, "id", "pid").ValueOrDie();
  std::string plan = joined.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedJoin [posts_by_id]"), std::string::npos) << plan;
  EXPECT_EQ(joined.Count().ValueOrDie(), 2u);
}

TEST_F(MultiIndexedTableTest, JoinOnUnindexedColumnFallsBack) {
  auto probe_schema = Schema::Make({{"c", TypeId::kString, false}});
  RowVec probe_rows = {{Value("post5")}};
  auto probe =
      session_->CreateDataFrame(probe_schema, probe_rows, "probe").ValueOrDie();
  auto joined = table_->Join(probe, "content", "c").ValueOrDie();
  std::string plan = joined.Explain().ValueOrDie();
  EXPECT_EQ(plan.find("IndexedJoin"), std::string::npos);
  EXPECT_EQ(joined.Count().ValueOrDie(), 1u);
}

TEST_F(MultiIndexedTableTest, JoinOnSecondIndexBuildsOnIt) {
  auto probe_schema = Schema::Make({{"cid", TypeId::kInt64, false}});
  RowVec probe_rows = {{Value(int64_t{3})}, {Value(int64_t{5})}};
  auto probe =
      session_->CreateDataFrame(probe_schema, probe_rows, "probe").ValueOrDie();
  auto joined = table_->Join(probe, "creator", "cid").ValueOrDie();
  std::string plan = joined.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedJoin [posts_by_creator]"), std::string::npos) << plan;
  EXPECT_EQ(joined.Count().ValueOrDie(), 30u);  // 15 posts per creator
}

TEST_F(MultiIndexedTableTest, FiltersPlanThroughTheIndexTheirKeyNames) {
  const ExprPtr creator3 = Eq(Col("creator"), Lit(Value(int64_t{3})));
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "as built" : "after AppendRows");
    // A filter on the second index's column looks that index up.
    std::string plan = FilterMatchesVanilla(creator3);
    EXPECT_NE(plan.find("IndexedLookup [posts_by_creator] key=3"), std::string::npos)
        << plan;
    EXPECT_EQ(plan.find("IndexedScan"), std::string::npos) << plan;

    // An IN-list on it becomes one multi-key lookup.
    plan = FilterMatchesVanilla(Or(creator3, Eq(Col("creator"), Lit(Value(int64_t{5})))));
    EXPECT_NE(plan.find("IndexedLookup [posts_by_creator] key={3, 5}"),
              std::string::npos)
        << plan;

    // Equalities on both keys look up the first-declared index; the other
    // equality stays the residual filter.
    plan = FilterMatchesVanilla(
        And(Eq(Col("creator"), Lit(Value(int64_t{2}))),
            Eq(Col("id"), Lit(Value(int64_t{1042})))));
    EXPECT_NE(plan.find("IndexedLookup [posts_by_id] key=1042"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("Filter (creator#1 = 2)"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("posts_by_creator"), std::string::npos) << plan;

    // An unindexed column still scans, and EXPLAIN shows the paths it had.
    plan = FilterMatchesVanilla(Eq(Col("content"), Lit(Value("post5"))));
    EXPECT_EQ(plan.find("IndexedLookup"), std::string::npos) << plan;
    EXPECT_NE(plan.find("IndexedScan [posts_by_id] indexed_col=id paths=[id, creator]"),
              std::string::npos)
        << plan;

    RowVec extra;
    for (int64_t i = 0; i < 40; ++i) {
      extra.push_back({Value(2000 + 40 * round + i), Value(i % 8),
                       Value("late" + std::to_string(i))});
    }
    ASSERT_TRUE(table_->AppendRows(session_->CreateDataFrame(schema_, extra, "extra")
                                       .ValueOrDie())
                    .ok());
    rows_.insert(rows_.end(), extra.begin(), extra.end());
  }
}

// A prepared lookup through the second index, racing an appender and an
// aggressive compactor, reads exactly the batches committed before the
// epoch its result reports: every access path is pinned at one epoch.
TEST(MultiIndexedServiceTest, SecondIndexLookupsSeeWholeEpochsUnderAppendsAndCompaction) {
  using namespace std::chrono_literals;
  constexpr int64_t kCreator = 7;
  constexpr int64_t kBatchRows = 32;
  ServiceConfig cfg;
  cfg.engine.num_partitions = 4;
  cfg.engine.num_threads = 2;
  cfg.engine.row_batch_bytes = 4 * 1024;  // small batches: chains fragment
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto schema = Schema::Make({{"id", TypeId::kInt64, false},
                              {"creatorId", TypeId::kInt64, false},
                              {"content", TypeId::kString, true}});
  RowVec rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back({Value(i), Value(i % 20), Value("post" + std::to_string(i))});
  }
  const int64_t base = 300 / 20;
  auto df = session->CreateDataFrame(schema, rows, "post").ValueOrDie();
  auto post = std::make_shared<MultiIndexedTable>(
      MultiIndexedTable::Create(df, {"id", "creatorId"}, "post").ValueOrDie());
  ASSERT_TRUE(service->RegisterTable("post", post).ok());
  CompactionConfig compaction;
  compaction.max_mean_batch_span = 1.5;
  compaction.min_partition_rows = 1;
  compaction.interval = 5ms;
  compaction.partition_pacing = 0us;
  ASSERT_TRUE(service->EnableCompaction(compaction).ok());

  auto prep = service->Prepare("SELECT id FROM post WHERE creatorId = ?").ValueOrDie();
  const std::string plan = service->ExplainPrepared(prep.handle).ValueOrDie();
  ASSERT_NE(plan.find("IndexLookup[post_by_creatorId]"), std::string::npos) << plan;
  const uint64_t e0 = service->epoch();

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        QueryResult res = service->ExecutePrepared(prep.handle, {Value(kCreator)});
        std::set<int64_t> ids;
        for (const Row& row : res.rows) ids.insert(row[0].int64_value());
        const size_t want =
            static_cast<size_t>(base + kBatchRows * static_cast<int64_t>(res.epoch - e0));
        if (!res.ok() || ids.size() != want || res.rows.size() != want) {
          violations.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }

  // Append until at least 60 batches landed and the compactor has run.
  int64_t next_id = 1000;
  for (int b = 0; b < 60 || (service->Stats().compactions_run == 0 && b < 2000); ++b) {
    RowVec batch;
    for (int64_t i = 0; i < kBatchRows; ++i, ++next_id) {
      batch.push_back({Value(next_id), Value(kCreator), Value("new")});
    }
    const Status appended = service->Append("post", batch);
    EXPECT_TRUE(appended.ok()) << appended.ToString();
    if (!appended.ok()) break;  // still join the readers below
    std::this_thread::sleep_for(1ms);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_GT(service->Stats().compactions_run, 0u);

  // The final lookup equals a scan of the whole table.
  QueryResult looked_up = service->ExecutePrepared(prep.handle, {Value(kCreator)});
  QueryResult scanned = service->Execute("SELECT id, creatorId FROM post");
  ASSERT_TRUE(looked_up.ok()) << looked_up.status.ToString();
  ASSERT_TRUE(scanned.ok()) << scanned.status.ToString();
  std::vector<int64_t> got, want;
  for (const Row& row : looked_up.rows) got.push_back(row[0].int64_value());
  for (const Row& row : scanned.rows) {
    if (row[1].int64_value() == kCreator) want.push_back(row[0].int64_value());
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), static_cast<size_t>(base + kBatchRows * static_cast<int64_t>(
                                                       looked_up.epoch - e0)));
}

TEST_F(MultiIndexedTableTest, ScanViewSeesAllRows) {
  auto scan = table_->ToDataFrame().ValueOrDie();
  EXPECT_EQ(scan.Count().ValueOrDie(), 300u);
}

TEST_F(MultiIndexedTableTest, StorageCostScalesWithIndexCount) {
  // Each index keeps its own partitioned copy: the documented cost of
  // multi-indexing in this design.
  auto single =
      MultiIndexedTable::Create(df_, {"id"}, "single").ValueOrDie();
  EXPECT_GT(table_->TotalDataBytes(), single.TotalDataBytes());
  EXPECT_GT(table_->TotalIndexBytes(), 0u);
}

TEST_F(MultiIndexedTableTest, IndexAccessorExposesIndexedDataFrame) {
  auto by_creator = table_->Index("creator").ValueOrDie();
  EXPECT_EQ(by_creator.relation()->indexed_column(), 1);
  auto filtered = by_creator.ToDataFrame()
                      .Filter(Eq(Col("creator"), Lit(Value(int64_t{3}))))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedLookup"), std::string::npos);
  // One index, one access path: the scan renders without `paths=`.
  plan = by_creator.ToDataFrame().Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedScan [posts_by_creator] indexed_col=creator\n"),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("paths="), std::string::npos) << plan;
}

}  // namespace
}  // namespace idf
