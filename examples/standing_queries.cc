// Standing queries demo: subscribe once, read maintained results forever.
// A QueryService fronts an indexed "posts" table; dashboards Subscribe()
// to SQL once and thereafter read incrementally maintained snapshots
// lock-free, while an appender streams commits in. Identical queries
// share ONE maintained arrangement no matter how many dashboards watch,
// and a callback subscriber is notified on every publish.
//
//   Usage: ./standing_queries [seconds]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "indexed/indexed_dataframe.h"
#include "service/query_service.h"

using namespace idf;  // NOLINT — example brevity

namespace {

constexpr int64_t kSeedRows = 20000;
constexpr int64_t kBatchRows = 128;
constexpr int kDashboards = 8;

RowVec MakeRows(int64_t begin, int64_t end) {
  RowVec rows;
  rows.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    rows.push_back({Value(i), Value(i % 100), Value((i * 7919) % 1000)});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds = argc > 1 ? std::atoi(argv[1]) : 3;

  // 1. Service with one updatable indexed table.
  ServiceConfig cfg;
  QueryServicePtr service = QueryService::Make(cfg).ValueOrDie();
  SessionPtr session = Session::Make(cfg.engine).ValueOrDie();
  auto schema = Schema::Make({{"id", TypeId::kInt64, false},
                              {"creator", TypeId::kInt64, false},
                              {"score", TypeId::kInt64, false}});
  DataFrame df =
      session->CreateDataFrame(schema, MakeRows(0, kSeedRows), "posts")
          .ValueOrDie();
  IndexedRelationPtr rel =
      IndexedDataFrame::CreateIndex(df, /*col_no=*/1, "posts_by_creator")
          .ValueOrDie()
          .relation();
  IDF_CHECK(service->RegisterTable("posts", rel).ok());

  // 2. Subscribe once. The aggregate's group state lives resident inside
  //    the service; every commit folds only the delta in. One subscription
  //    carries a callback — it fires after each publish, outside any lock.
  std::atomic<uint64_t> publishes{0};
  ViewSubscriptionPtr notified =
      service
          ->Subscribe(
              "SELECT creator, COUNT(*), SUM(score) FROM posts "
              "GROUP BY creator",
              [&](const ViewSnapshot& snap) {
                publishes.fetch_add(1);
                if (snap.version % 256 == 0) {
                  std::printf("  [callback] version %llu @ epoch %llu: "
                              "%zu groups\n",
                              static_cast<unsigned long long>(snap.version),
                              static_cast<unsigned long long>(snap.epoch),
                              snap.rows->size());
                }
              })
          .ValueOrDie();

  // 3. Seven more dashboards ask the same question: the plan fingerprint
  //    matches, so they all attach to the SAME maintained arrangement —
  //    one delta propagation per commit, not eight.
  std::vector<ViewSubscriptionPtr> dashboards{notified};
  for (int d = 1; d < kDashboards; ++d) {
    dashboards.push_back(
        service
            ->Subscribe(
                "SELECT creator, COUNT(*), SUM(score) FROM posts "
                "GROUP BY creator")
            .ValueOrDie());
  }
  std::printf("%d dashboards -> %zu maintained arrangement(s), kind=%s\n",
              kDashboards, service->views().num_views(),
              ViewKindToString(notified->kind()).c_str());

  // 4. The append stream: every commit triggers one maintenance pass.
  const auto stop_at =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  std::thread appender([&] {
    int64_t next = kSeedRows;
    while (std::chrono::steady_clock::now() < stop_at) {
      IDF_CHECK(
          service->Append("posts", MakeRows(next, next + kBatchRows)).ok());
      next += kBatchRows;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // 5. Dashboards poll lock-free: Snapshot() is one atomic load, never a
  //    query. Versions are monotone; epochs tag the exact commit each
  //    snapshot reflects.
  std::vector<std::thread> pollers;
  for (int d = 0; d < kDashboards; ++d) {
    pollers.emplace_back([&, d] {
      uint64_t last_version = 0;
      while (std::chrono::steady_clock::now() < stop_at) {
        ViewSnapshotPtr snap = dashboards[static_cast<size_t>(d)]->Snapshot();
        IDF_CHECK(snap->version >= last_version);
        last_version = snap->version;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  for (std::thread& t : pollers) t.join();
  appender.join();

  // 6. The maintained snapshot equals a from-scratch execution. The first
  //    read builds the rows; status() reports a failed ORDER BY / LIMIT.
  ViewSnapshotPtr final_snap = notified->Snapshot();
  IDF_CHECK(final_snap->rows.status().ok());
  QueryResult check = service->Execute(notified->sql());
  IDF_CHECK(check.ok());
  std::printf("\nfinal: %zu groups @ epoch %llu (from-scratch agrees: %s), "
              "%llu publishes\n",
              final_snap->rows->size(),
              static_cast<unsigned long long>(final_snap->epoch),
              final_snap->rows->size() == check.rows.size() ? "yes" : "NO",
              static_cast<unsigned long long>(publishes.load()));

  for (const ViewSubscriptionPtr& sub : dashboards) {
    IDF_CHECK(service->Unsubscribe(sub).ok());
  }
  std::printf("\n%s\n", service->Stats().ToString().c_str());
  return 0;
}
