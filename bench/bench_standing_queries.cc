// Standing-query benchmark: the case for incremental view maintenance
// with shared arrangements (DESIGN.md §13). N dashboards watching the
// same aggregate cost ONE delta propagation per commit when subscribed,
// versus N full executions per commit when polling from scratch — the
// headline counter is speedup_scratch_vs_standing (>= 10x expected at
// N=100). A second benchmark profiles per-commit propagation latency
// (commit start to subscriber callback) for each maintenance strategy:
// compiled select, grouped aggregate, indexed join, aggregate over join.
// Both report read_us_per_snapshot: the first dereference of a freshly
// published snapshot, where a reader consolidates the view's trace — the
// work publishing no longer does on the commit path.
//
// The from-scratch phase runs FIRST, against the smaller table; the
// standing phase then continues appending, so its per-commit cost is
// measured against a strictly larger table — the comparison is
// conservative in favor of from-scratch.
//
// Like the other benches, writes machine-readable JSON (consumed by CI)
// to BENCH_standing_queries.json unless --benchmark_out is given.
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "indexed/indexed_dataframe.h"
#include "service/query_service.h"

namespace idf {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int64_t kSeedRows = 20000;
constexpr int64_t kBatchRows = 256;
constexpr int64_t kCreators = 200;
constexpr int kScratchCommits = 8;
constexpr int kStandingCommits = 50;

SchemaPtr PostSchema() {
  return Schema::Make({{"id", TypeId::kInt64, false},
                       {"creator", TypeId::kInt64, false},
                       {"score", TypeId::kInt64, false}});
}

SchemaPtr UserSchema() {
  return Schema::Make(
      {{"uid", TypeId::kInt64, false}, {"region", TypeId::kString, false}});
}

RowVec MakePosts(int64_t begin, int64_t end) {
  RowVec rows;
  rows.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    rows.push_back({Value(i), Value(i % kCreators), Value((i * 7919) % 1000)});
  }
  return rows;
}

/// Service with posts indexed on creator (the join/group column) and, when
/// `with_users` is set, a users table indexed on uid so join views
/// maintain incrementally.
QueryServicePtr BuildService(bool with_users) {
  ServiceConfig cfg;
  cfg.max_inflight = 16;
  cfg.max_queue = 256;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto df = session->CreateDataFrame(PostSchema(), MakePosts(0, kSeedRows),
                                     "posts")
                .ValueOrDie();
  auto rel = IndexedDataFrame::CreateIndex(df, 1, "posts_by_creator")
                 .ValueOrDie()
                 .relation();
  IDF_CHECK(service->RegisterTable("posts", rel).ok());
  if (with_users) {
    RowVec users;
    for (int64_t u = 0; u < kCreators; ++u) {
      users.push_back({Value(u), Value("region-" + std::to_string(u % 8))});
    }
    auto udf =
        session->CreateDataFrame(UserSchema(), std::move(users), "users")
            .ValueOrDie();
    auto urel = IndexedDataFrame::CreateIndex(udf, 0, "users_by_uid")
                    .ValueOrDie()
                    .relation();
    IDF_CHECK(service->RegisterTable("users", urel).ok());
  }
  return service;
}

double Pct(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
}

/// N subscribers on one shared maintained aggregate vs N from-scratch
/// executions per commit. state.range(0) = subscriber count.
void BM_SharedViewVsFromScratch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::string sql =
      "SELECT creator, COUNT(*), SUM(score) FROM posts GROUP BY creator";
  for (auto _ : state) {
    QueryServicePtr service = BuildService(/*with_users=*/false);
    int64_t next = kSeedRows;

    // --- Phase 1: from-scratch — every commit, all N clients re-execute.
    auto scratch_start = Clock::now();
    for (int c = 0; c < kScratchCommits; ++c) {
      IDF_CHECK(service->Append("posts", MakePosts(next, next + kBatchRows))
                    .ok());
      next += kBatchRows;
      for (int i = 0; i < n; ++i) {
        QueryResult r = service->Execute(sql);
        IDF_CHECK(r.ok());
        benchmark::DoNotOptimize(r.rows.size());
      }
    }
    const double scratch_us_per_commit =
        std::chrono::duration<double, std::micro>(Clock::now() - scratch_start)
            .count() /
        kScratchCommits;

    // --- Phase 2: standing — N subscriptions share ONE arrangement; each
    // commit propagates one delta and every client reads lock-free.
    std::vector<double> prop_us;
    prop_us.reserve(kStandingCommits);
    Clock::time_point commit_start{};
    std::vector<ViewSubscriptionPtr> subs;
    subs.reserve(static_cast<size_t>(n));
    // The first subscriber's callback timestamps commit-to-publish.
    subs.push_back(service
                       ->Subscribe(sql,
                                   [&](const ViewSnapshot&) {
                                     prop_us.push_back(
                                         std::chrono::duration<double,
                                                               std::micro>(
                                             Clock::now() - commit_start)
                                             .count());
                                   })
                       .ValueOrDie());
    for (int i = 1; i < n; ++i) {
      subs.push_back(service->Subscribe(sql).ValueOrDie());
    }
    IDF_CHECK(service->views().num_views() == 1);

    double read_us = 0;
    auto standing_start = Clock::now();
    for (int c = 0; c < kStandingCommits; ++c) {
      commit_start = Clock::now();
      IDF_CHECK(service->Append("posts", MakePosts(next, next + kBatchRows))
                    .ok());
      next += kBatchRows;
      // Every subscriber shares one snapshot: the first read consolidates
      // it, the rest hit the cached rows.
      const auto read_start = Clock::now();
      benchmark::DoNotOptimize(subs[0]->Snapshot()->rows->size());
      read_us += std::chrono::duration<double, std::micro>(Clock::now() -
                                                           read_start)
                     .count();
      for (const auto& sub : subs) {
        benchmark::DoNotOptimize(sub->Snapshot()->rows->size());
      }
    }
    const double standing_us_per_commit =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  standing_start)
            .count() /
        kStandingCommits;

    ServiceStats stats = service->Stats();
    for (const auto& sub : subs) IDF_CHECK(service->Unsubscribe(sub).ok());

    state.counters["scratch_us_per_commit"] = scratch_us_per_commit;
    state.counters["standing_us_per_commit"] = standing_us_per_commit;
    state.counters["speedup_scratch_vs_standing"] =
        scratch_us_per_commit / std::max(1.0, standing_us_per_commit);
    state.counters["propagation_p50_us"] = Pct(prop_us, 0.50);
    state.counters["propagation_p99_us"] = Pct(prop_us, 0.99);
    state.counters["read_us_per_snapshot"] = read_us / kStandingCommits;
    state.counters["arrangements_shared"] =
        static_cast<double>(stats.arrangements_shared);
    state.counters["rows_maintained"] =
        static_cast<double>(stats.rows_maintained_incrementally);
  }
}

BENCHMARK(BM_SharedViewVsFromScratch)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

/// Per-commit propagation latency by maintenance strategy: one subscriber,
/// callback-timed from just before Append to snapshot publish.
void BM_PropagationLatencyByKind(benchmark::State& state) {
  static const char* kSqls[] = {
      // compiled/vectorized select
      "SELECT id FROM posts WHERE score > 900",
      // grouped aggregate with resident state
      "SELECT creator, COUNT(*), SUM(score) FROM posts GROUP BY creator",
      // delta-probed indexed join
      "SELECT p.id, u.region FROM posts p JOIN users u ON p.creator = u.uid",
      // aggregate over the join: joined delta rows fold into group state
      "SELECT u.region, COUNT(*), SUM(p.score) FROM posts p "
      "JOIN users u ON p.creator = u.uid GROUP BY u.region",
  };
  static const char* kKinds[] = {"select", "aggregate", "join", "aggregate"};
  static const char* kLabels[] = {"select", "aggregate", "join",
                                  "aggregate_over_join"};
  const size_t which = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    QueryServicePtr service = BuildService(/*with_users=*/true);
    std::vector<double> prop_us;
    Clock::time_point commit_start{};
    auto sub = service
                   ->Subscribe(kSqls[which],
                               [&](const ViewSnapshot&) {
                                 prop_us.push_back(
                                     std::chrono::duration<double, std::micro>(
                                         Clock::now() - commit_start)
                                         .count());
                               })
                   .ValueOrDie();
    IDF_CHECK(std::string(ViewKindToString(sub->kind())) == kKinds[which]);

    int64_t next = kSeedRows;
    double read_us = 0;
    for (int c = 0; c < kStandingCommits; ++c) {
      commit_start = Clock::now();
      IDF_CHECK(service->Append("posts", MakePosts(next, next + kBatchRows))
                    .ok());
      next += kBatchRows;
      const auto read_start = Clock::now();
      benchmark::DoNotOptimize(sub->Snapshot()->rows->size());
      read_us += std::chrono::duration<double, std::micro>(Clock::now() -
                                                           read_start)
                     .count();
    }
    IDF_CHECK(service->Stats().views_recomputed == 0);
    IDF_CHECK(service->Unsubscribe(sub).ok());
    state.counters["propagation_p50_us"] = Pct(prop_us, 0.50);
    state.counters["propagation_p99_us"] = Pct(prop_us, 0.99);
    state.counters["read_us_per_snapshot"] = read_us / kStandingCommits;
    state.counters["commits"] = static_cast<double>(prop_us.size());
    state.SetLabel(kLabels[which]);
  }
}

BENCHMARK(BM_PropagationLatencyByKind)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
}  // namespace idf

// Like BENCHMARK_MAIN(), but defaults to also writing machine-readable
// JSON results to BENCH_standing_queries.json (consumed by CI) when the
// caller passes no --benchmark_out of their own.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_standing_queries.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
