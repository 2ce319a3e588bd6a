// Snapshot isolation under a live append stream (the MVCC guarantee of
// the query service): a pinned snapshot must sit exactly on an epoch
// boundary — never half of a multi-partition batch, and never a row
// present in one index of a multi-indexed table but missing from another.
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

constexpr int64_t kBatchRows = 64;
constexpr int kBatches = 150;

SchemaPtr TwoColSchema() {
  return Schema::Make(
      {{"id", TypeId::kInt64, false}, {"owner", TypeId::kInt64, false}});
}

RowVec Batch(int batch) {
  RowVec rows;
  rows.reserve(kBatchRows);
  for (int64_t i = 0; i < kBatchRows; ++i) {
    int64_t id = batch * kBatchRows + i;
    rows.push_back({Value(id), Value(id % 50)});
  }
  return rows;
}

ServiceConfig SmallEngine() {
  ServiceConfig cfg;
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 8;  // batches span many partitions
  return cfg;
}

TEST(SnapshotIsolationTest, PinNeverSeesAPartialMultiPartitionBatch) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df = session->CreateDataFrame(TwoColSchema(), Batch(0), "t").ValueOrDie();
  auto rel = IndexedDataFrame::CreateIndex(df, 0, "t_by_id").ValueOrDie()
                 .relation();
  ASSERT_TRUE(service->RegisterTable("t", rel).ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        ServiceSnapshot snap = *service->snapshots().PinAll();
        const PinnedTable* t = snap.find("t");
        ASSERT_NE(t, nullptr);
        size_t rows = t->primary()->num_rows();
        // Every batch is kBatchRows and commits with one epoch bump, so a
        // boundary snapshot always satisfies both equalities. A torn read
        // (some partitions of a batch landed, others not yet) breaks them.
        if (rows % static_cast<size_t>(kBatchRows) != 0 ||
            rows != (snap.epoch + 1) * static_cast<size_t>(kBatchRows)) {
          violations.fetch_add(1);
        }
      }
    });
  }

  for (int b = 1; b <= kBatches; ++b) {
    ASSERT_TRUE(service->Append("t", Batch(b)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(service->epoch(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(rel->num_rows(), static_cast<size_t>((kBatches + 1) * kBatchRows));
}

TEST(SnapshotIsolationTest, MultiIndexTablePinsAllIndexesAtOneEpoch) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df =
      session->CreateDataFrame(TwoColSchema(), Batch(0), "posts").ValueOrDie();
  auto table = std::make_shared<MultiIndexedTable>(
      MultiIndexedTable::Create(df, {"id", "owner"}, "posts").ValueOrDie());
  ASSERT_TRUE(service->RegisterTable("posts", table).ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        ServiceSnapshot snap = *service->snapshots().PinAll();
        const PinnedTable* t = snap.find("posts");
        ASSERT_NE(t, nullptr);
        ASSERT_EQ(t->pins.size(), 2u);
        size_t by_id = t->pins[0].second->num_rows();
        size_t by_owner = t->pins[1].second->num_rows();
        // The append fans out to both indexes inside one gate hold: the
        // two pins must agree exactly, on a batch boundary.
        if (by_id != by_owner || by_id % static_cast<size_t>(kBatchRows) != 0) {
          violations.fetch_add(1);
        }
      }
    });
  }

  for (int b = 1; b <= kBatches; ++b) {
    ASSERT_TRUE(service->Append("posts", Batch(b)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(SnapshotIsolationTest, SameEpochPinsShareTheCachedSnapshot) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df = session->CreateDataFrame(TwoColSchema(), Batch(0), "t").ValueOrDie();
  auto rel = IndexedDataFrame::CreateIndex(df, 0, "t_by_id").ValueOrDie()
                 .relation();
  ASSERT_TRUE(service->RegisterTable("t", rel).ok());
  SnapshotManager& mgr = service->snapshots();

  // No epoch moved between the pins: the second is served from the cache
  // and is the very same snapshot object.
  ServiceSnapshotPtr a = mgr.PinAll();
  ServiceSnapshotPtr b = mgr.PinAll();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->find("t")->primary().get(), b->find("t")->primary().get());

  // A committed batch supersedes the cache: a later pin sits on the new
  // boundary while the earlier pins still read the old one.
  ASSERT_TRUE(service->Append("t", Batch(1)).ok());
  ServiceSnapshotPtr c = mgr.PinAll();
  EXPECT_EQ(c->epoch, a->epoch + 1);
  EXPECT_NE(c->find("t")->primary().get(), a->find("t")->primary().get());
  EXPECT_EQ(a->find("t")->primary()->num_rows(), static_cast<size_t>(kBatchRows));
  EXPECT_EQ(c->find("t")->primary()->num_rows(),
            static_cast<size_t>(2 * kBatchRows));

  // Registering a table invalidates the cache even though the epoch is
  // unchanged: the next pin must include the newcomer.
  auto df2 =
      session->CreateDataFrame(TwoColSchema(), Batch(0), "u").ValueOrDie();
  auto rel2 = IndexedDataFrame::CreateIndex(df2, 0, "u_by_id").ValueOrDie()
                  .relation();
  ASSERT_TRUE(service->RegisterTable("u", rel2).ok());
  ServiceSnapshotPtr d = mgr.PinAll();
  EXPECT_EQ(d->epoch, c->epoch);
  ASSERT_NE(d->find("u"), nullptr);
}

TEST(SnapshotIsolationTest, SqlReadersSeeOnlyEpochBoundaries) {
  ServiceConfig cfg = SmallEngine();
  cfg.max_inflight = 4;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto df = session->CreateDataFrame(TwoColSchema(), Batch(0), "t").ValueOrDie();
  auto rel = IndexedDataFrame::CreateIndex(df, 0, "t_by_id").ValueOrDie()
                 .relation();
  ASSERT_TRUE(service->RegisterTable("t", rel).ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        QueryResult res = service->Execute("SELECT COUNT(*) FROM t");
        if (!res.ok()) {
          violations.fetch_add(1);
          continue;
        }
        int64_t n = res.rows[0][0].int64_value();
        if (n % kBatchRows != 0 ||
            n != static_cast<int64_t>(res.epoch + 1) * kBatchRows) {
          violations.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }

  for (int b = 1; b <= 60; ++b) {
    ASSERT_TRUE(service->Append("t", Batch(b)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads.load(), 0);
}

}  // namespace
}  // namespace idf
