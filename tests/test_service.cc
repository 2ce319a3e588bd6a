// QueryService tests: snapshot-pinned SQL execution, admission control
// (bounded in-flight + bounded queue with rejection), slot accounting
// across all outcomes, stats export, append-path index upkeep, pin
// lifetime across pooled executions, and the latency histogram itself.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "indexed/multi_indexed_table.h"
#include "service/query_service.h"

namespace idf {
namespace {

using namespace std::chrono_literals;

SchemaPtr TestSchema() {
  return Schema::Make(
      {{"id", TypeId::kInt64, false}, {"name", TypeId::kString, false}});
}

RowVec MakeRows(int64_t begin, int64_t end) {
  RowVec rows;
  rows.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    rows.push_back({Value(i), Value("n" + std::to_string(i))});
  }
  return rows;
}

/// A service with one registered table holding ids [0, n).
QueryServicePtr MakeServiceWithTable(size_t n, ServiceConfig cfg = {}) {
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 4;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto df = session
                ->CreateDataFrame(TestSchema(),
                                  MakeRows(0, static_cast<int64_t>(n)), "people")
                .ValueOrDie();
  auto rel =
      IndexedDataFrame::CreateIndex(df, 0, "people_by_id").ValueOrDie().relation();
  EXPECT_TRUE(service->RegisterTable("people", rel).ok());
  return service;
}

TEST(QueryServiceTest, ExecutesSqlOverRegisteredTable) {
  auto service = MakeServiceWithTable(1000);
  QueryResult r = service->Execute("SELECT name FROM people WHERE id = 42");
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "n42");
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_GT(r.total_micros, 0u);
  ASSERT_NE(r.schema, nullptr);
  EXPECT_EQ(r.schema->num_fields(), 1);
}

TEST(QueryServiceTest, AppendsAdvanceTheEpochAndBecomeVisible) {
  auto service = MakeServiceWithTable(100);
  QueryResult before = service->Execute("SELECT COUNT(*) FROM people");
  ASSERT_TRUE(before.ok()) << before.status.ToString();
  EXPECT_EQ(before.rows[0][0].int64_value(), 100);
  EXPECT_EQ(before.epoch, 0u);

  ASSERT_TRUE(service->Append("people", MakeRows(100, 150)).ok());
  EXPECT_EQ(service->epoch(), 1u);

  QueryResult after = service->Execute("SELECT COUNT(*) FROM people");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.rows[0][0].int64_value(), 150);
  EXPECT_EQ(after.epoch, 1u);
}

TEST(QueryServiceTest, ErrorsAreReportedNotThrown) {
  auto service = MakeServiceWithTable(10);
  QueryResult bad_table = service->Execute("SELECT * FROM nope");
  EXPECT_FALSE(bad_table.ok());
  QueryResult bad_sql = service->Execute("SELEKT");
  EXPECT_FALSE(bad_sql.ok());
  EXPECT_EQ(service->Stats().failed, 2u);
  // Failures released their slots.
  EXPECT_EQ(service->inflight(), 0u);
  QueryResult ok = service->Execute("SELECT * FROM people WHERE id = 1");
  EXPECT_TRUE(ok.ok());
}

TEST(QueryServiceTest, RejectsBeyondQueueBoundAndRunsQueuedAfterRelease) {
  ServiceConfig cfg;
  cfg.max_inflight = 1;
  cfg.max_queue = 1;
  // A big table so the occupying query runs long enough to assert against.
  auto service = MakeServiceWithTable(400000, cfg);

  auto occupier_token = CancellationToken::Make();
  std::atomic<bool> occupier_done{false};
  QueryOptions occupier_opts;
  occupier_opts.cancel = occupier_token;
  std::thread occupier([&] {
    // Misses every key: a full scan (id is indexed, but name is not).
    service->Execute("SELECT COUNT(*) FROM people WHERE name = 'none'",
                     occupier_opts);
    occupier_done.store(true);
  });
  while (service->inflight() == 0 && !occupier_done.load()) {
    std::this_thread::yield();
  }

  std::atomic<bool> queued_ok{false};
  std::thread queued([&] {
    QueryResult r = service->Execute("SELECT * FROM people WHERE id = 7");
    queued_ok.store(r.ok());
  });
  while (service->queued() == 0 && !occupier_done.load()) {
    std::this_thread::yield();
  }

  if (!occupier_done.load()) {
    // Slot busy and queue full: an extra submission must bounce, fast.
    QueryResult rejected = service->Execute("SELECT * FROM people WHERE id = 1");
    EXPECT_TRUE(rejected.status.IsCapacityError())
        << rejected.status.ToString();
    EXPECT_EQ(service->Stats().rejected, 1u);
  }

  occupier_token->Cancel();
  occupier.join();
  queued.join();
  EXPECT_TRUE(queued_ok.load());
  EXPECT_EQ(service->inflight(), 0u);
  EXPECT_EQ(service->queued(), 0u);
}

TEST(QueryServiceTest, ConcurrentReadersAllSucceed) {
  ServiceConfig cfg;
  cfg.max_inflight = 4;
  cfg.max_queue = 64;
  auto service = MakeServiceWithTable(5000, cfg);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        int64_t id = (t * kQueriesPerThread + q) % 5000;
        QueryResult r = service->Execute("SELECT name FROM people WHERE id = " +
                                         std::to_string(id));
        if (!r.ok() || r.rows.size() != 1) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.succeeded, static_cast<uint64_t>(kThreads * kQueriesPerThread));
  EXPECT_EQ(stats.total.count, stats.succeeded);
  EXPECT_GE(stats.total.p99_micros, stats.total.p50_micros);
  EXPECT_NE(stats.ToJson().find("\"p99_us\""), std::string::npos);
  EXPECT_NE(stats.ToString().find("p99="), std::string::npos);
}

TEST(QueryServiceTest, MultiIndexedAppendsReportSecondaryIndexUpkeep) {
  ServiceConfig cfg;
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 4;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto schema = Schema::Make({{"id", TypeId::kInt64, false},
                              {"owner", TypeId::kInt64, false},
                              {"browser", TypeId::kString, false}});
  auto rows = [](int64_t begin, int64_t end) {
    RowVec out;
    for (int64_t i = begin; i < end; ++i) {
      out.push_back({Value(i), Value(i % 50), Value("b" + std::to_string(i % 4))});
    }
    return out;
  };
  auto df = session->CreateDataFrame(schema, rows(0, 100), "posts").ValueOrDie();
  auto table = std::make_shared<MultiIndexedTable>(
      MultiIndexedTable::Create(df, {"id", "owner"}, "posts").ValueOrDie());
  ASSERT_TRUE(table->AddBitmapIndex("browser").ok());
  ASSERT_TRUE(table->AddRangeIndex("owner").ok());
  ASSERT_TRUE(service->RegisterTable("posts", table).ok());

  // The multi-indexed append runs on the service's executor, so its index
  // upkeep shows up in the service counters.
  const ServiceStats before = service->Stats();
  for (int64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(service->Append("posts", rows(1000 + b * 20000, 1000 + (b + 1) * 20000))
                    .ok());
  }
  const ServiceStats after = service->Stats();
  EXPECT_GT(after.bitmap_maintenance_us, before.bitmap_maintenance_us);
  EXPECT_GT(after.range_maintenance_us, before.range_maintenance_us);

  QueryResult r = service->Execute("SELECT COUNT(*) FROM posts WHERE browser = 'b1'");
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows[0][0], Value(int64_t{25 + 20000}));
}

TEST(QueryServiceTest, SmallAppendsAccumulateRangeIndexUpkeep) {
  // 32-row batches spread over 4 partitions spend well under a
  // microsecond per partition on range upkeep; the counter accumulates
  // nanoseconds, including each cut build, so the total still shows.
  ServiceConfig cfg;
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 4;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto schema = Schema::Make({{"id", TypeId::kInt64, false},
                              {"created", TypeId::kInt64, false}});
  auto rows = [](int64_t begin, int64_t end) {
    RowVec out;
    for (int64_t i = begin; i < end; ++i) out.push_back({Value(i), Value(i * 7)});
    return out;
  };
  auto df = session->CreateDataFrame(schema, rows(0, 1000), "posts").ValueOrDie();
  auto table = std::make_shared<MultiIndexedTable>(
      MultiIndexedTable::Create(df, {"id"}, "posts").ValueOrDie());
  ASSERT_TRUE(table->AddRangeIndex("created").ok());
  ASSERT_TRUE(service->RegisterTable("posts", table).ok());

  const ServiceStats before = service->Stats();
  for (int64_t b = 0; b < 50; ++b) {
    const int64_t first = 1000 + b * 32;
    ASSERT_TRUE(service->Append("posts", rows(first, first + 32)).ok());
  }
  const ServiceStats after = service->Stats();
  EXPECT_GT(after.range_maintenance_us, before.range_maintenance_us);
  EXPECT_EQ(after.bitmap_maintenance_us, before.bitmap_maintenance_us);
}

TEST(QueryServiceTest, PooledContextsHoldNoPinsBetweenExecutions) {
  ServiceConfig cfg;
  cfg.engine.row_batch_bytes = 4 * 1024;  // small batches: chains fragment
  auto service = MakeServiceWithTable(8, cfg);
  // Every key's chain spreads over many row batches.
  for (int64_t b = 0; b < 40; ++b) {
    RowVec rows;
    for (int64_t i = 0; i < 40; ++i) {
      rows.push_back({Value((b * 40 + i) % 8), Value("f" + std::to_string(b))});
    }
    ASSERT_TRUE(service->Append("people", rows).ok());
  }
  auto prep =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  for (int64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(service->ExecutePrepared(prep.handle, {Value(id)}).ok());
  }
  ASSERT_TRUE(service->Execute("SELECT COUNT(*) FROM people").ok());

  CompactionConfig compaction;
  compaction.max_mean_batch_span = 1.5;
  compaction.min_partition_rows = 1;
  compaction.interval = 5ms;
  compaction.partition_pacing = 0us;
  ASSERT_TRUE(service->EnableCompaction(compaction).ok());

  // Appends of fresh keys (one batch each, nothing to compact) move the
  // epoch, and a pin moves the service's pin cache past the compaction.
  // After that, only an executor context that kept an old epoch's pins
  // could still hold a retired generation.
  ServiceStats stats = service->Stats();
  for (int64_t next = 1000;
       next < 3000 && (stats.compactions_run == 0 || stats.retired_pending > 0);
       ++next) {
    std::this_thread::sleep_for(5ms);
    ASSERT_TRUE(service->Append("people", MakeRows(next, next + 1)).ok());
    service->snapshots().PinAll();
    stats = service->Stats();
  }
  EXPECT_GT(stats.compactions_run, 0u);
  EXPECT_EQ(stats.retired_pending, 0u);

  // The pooled contexts keep serving, now over the compacted chains.
  QueryResult r = service->ExecutePrepared(prep.handle, {Value(int64_t{3})});
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows.size(), 201u);
}

TEST(QueryServiceTest, ValidatesConfig) {
  ServiceConfig cfg;
  cfg.max_inflight = 0;
  EXPECT_FALSE(QueryService::Make(cfg).ok());
}

TEST(LatencyHistogramTest, PercentilesTrackTheDistribution) {
  LatencyHistogram hist;
  // 1..1000us uniform: p50 ≈ 500, p99 ≈ 990; bucketing error ≤ ~25%.
  for (uint64_t v = 1; v <= 1000; ++v) hist.Record(v);
  EXPECT_EQ(hist.count(), 1000u);
  LatencyHistogram::Summary s = hist.Summarize();
  EXPECT_EQ(s.max_micros, 1000u);
  EXPECT_NEAR(static_cast<double>(s.p50_micros), 500.0, 150.0);
  EXPECT_NEAR(static_cast<double>(s.p99_micros), 990.0, 250.0);
  EXPECT_NEAR(s.mean_micros, 500.5, 1.0);
  EXPECT_LE(s.p50_micros, s.p95_micros);
  EXPECT_LE(s.p95_micros, s.p99_micros);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAreAllCounted) {
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t * 1000 + i % 997));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(hist.Summarize().count, hist.count());
}

TEST(LatencyHistogramTest, HandlesZeroAndHugeSamples) {
  LatencyHistogram hist;
  hist.Record(0);
  hist.Record(uint64_t{1} << 50);  // beyond the last octave: clamps
  LatencyHistogram::Summary s = hist.Summarize();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.max_micros, uint64_t{1} << 50);
  EXPECT_GE(s.p99_micros, s.p50_micros);
}

}  // namespace
}  // namespace idf
