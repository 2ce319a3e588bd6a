// Prepared statements and the parameterized plan cache: differential
// equality against ad-hoc SQL with the (coerced) literal spliced in,
// NULL-parameter semantics, type coercion, cache hit/miss/eviction
// accounting, DDL invalidation, zero recompilation or re-lowering across
// re-executions and epochs, concurrent execution under a live append
// stream, and ResetStats.
#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "service/plan_cache.h"
#include "service/query_service.h"

namespace idf {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make({{"id", TypeId::kInt64, false},
                       {"grp", TypeId::kInt32, false},
                       {"score", TypeId::kFloat64, false},
                       {"name", TypeId::kString, false}});
}

RowVec MakeRows(int64_t begin, int64_t end) {
  RowVec rows;
  rows.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    rows.push_back({Value(i), Value(static_cast<int32_t>(i % 16)),
                    Value(static_cast<double>(i % 100) / 2.0),
                    Value("n" + std::to_string(i))});
  }
  return rows;
}

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

/// Renders a (already coerced) parameter value as a SQL literal, so the
/// ad-hoc side of a differential check runs the exact same constant the
/// prepared side bound.
std::string ToSqlLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_string()) return "'" + v.string_value() + "'";
  if (v.is_double()) {
    std::ostringstream out;
    out.precision(17);
    out << v.double_value();
    std::string s = out.str();
    if (s.find('.') == std::string::npos && s.find('e') == std::string::npos) {
      s += ".0";  // keep it a float literal
    }
    return s;
  }
  return v.ToString();
}

/// Splices literals into `template_sql` at each '?' (in order).
std::string Splice(const std::string& template_sql,
                   const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (char c : template_sql) {
    if (c == '?') {
      out += ToSqlLiteral(params[next++]);
    } else {
      out.push_back(c);
    }
  }
  EXPECT_EQ(next, params.size());
  return out;
}

RowVec Sorted(RowVec rows) {
  std::sort(rows.begin(), rows.end(), RowLess());
  return rows;
}

/// Runs one differential check: prepared(params) vs ad-hoc with the
/// coerced literals spliced in. Rows must match exactly (as multisets).
void ExpectPreparedMatchesAdHoc(const QueryServicePtr& service,
                                const std::string& template_sql,
                                const std::vector<Value>& params) {
  Result<PreparedInfo> prep = service->Prepare(template_sql);
  ASSERT_TRUE(prep.ok()) << template_sql << ": " << prep.status().ToString();
  ASSERT_EQ(prep->num_params, params.size());

  QueryResult prepared = service->ExecutePrepared(prep->handle, params);
  ASSERT_TRUE(prepared.ok()) << template_sql << ": "
                             << prepared.status.ToString();

  // The ad-hoc twin must see the value the prepared path actually bound,
  // i.e. after coercion to the inferred parameter type.
  std::vector<Value> coerced;
  for (size_t i = 0; i < params.size(); ++i) {
    coerced.push_back(params[i].is_null()
                          ? Value::Null()
                          : params[i].CastTo(prep->param_types[i]).ValueOrDie());
  }
  const std::string adhoc_sql = Splice(template_sql, coerced);
  QueryResult adhoc = service->Execute(adhoc_sql);
  ASSERT_TRUE(adhoc.ok()) << adhoc_sql << ": " << adhoc.status.ToString();

  EXPECT_EQ(Sorted(prepared.rows), Sorted(adhoc.rows))
      << "prepared " << template_sql << " with "
      << Splice(template_sql, coerced) << " diverged ("
      << prepared.rows.size() << " vs " << adhoc.rows.size() << " rows)";
  ASSERT_TRUE(service->ClosePrepared(prep->handle).ok());
}

TEST(PreparedStatementsTest, PointLookupMatchesAdHoc) {
  auto service = MakeServiceWithTable(1000);
  for (int64_t id : {0, 1, 499, 999, 1000, -5}) {
    ExpectPreparedMatchesAdHoc(
        service, "SELECT name FROM people WHERE id = ?", {Value(id)});
  }
}

TEST(PreparedStatementsTest, ReusedHandleRebindsWithoutRecompiling) {
  auto service = MakeServiceWithTable(500);
  auto prep =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  for (int64_t id = 0; id < 50; ++id) {
    QueryResult r = service->ExecutePrepared(prep.handle, {Value(id)});
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].string_value(), "n" + std::to_string(id));
  }
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.prepared_executions, 50u);
  // The plan was lowered once, at Prepare; all 50 executions reuse it —
  // zero re-plans, zero recompiles.
  EXPECT_EQ(stats.prepared_replans, 0u);
}

TEST(PreparedStatementsTest, AppendsAreSeenWithoutReplanning) {
  auto service = MakeServiceWithTable(100);
  auto prep =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  ASSERT_TRUE(service->ExecutePrepared(prep.handle, {Value(int64_t{7})}).ok());
  const std::string plan = service->ExplainPrepared(prep.handle).ValueOrDie();
  const uint64_t replans = service->Stats().prepared_replans;

  // Each append moves the epoch; the cached plan reads every new epoch
  // through the pins the execution brings, so it is never re-lowered.
  for (int64_t batch = 0; batch < 3; ++batch) {
    const int64_t first = 100 + 10 * batch;
    ASSERT_TRUE(service->Append("people", MakeRows(first, first + 10)).ok());
    QueryResult r = service->ExecutePrepared(prep.handle, {Value(first + 5)});
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.epoch, service->epoch());
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].string_value(), "n" + std::to_string(first + 5));
  }
  EXPECT_EQ(service->Stats().prepared_replans, replans);
  EXPECT_EQ(service->ExplainPrepared(prep.handle).ValueOrDie(), plan);
}

TEST(PreparedStatementsTest, DifferentialFuzzOverRandomParams) {
  auto service = MakeServiceWithTable(2000);
  const std::vector<std::pair<std::string, int>> templates = {
      {"SELECT name FROM people WHERE id = ?", 1},
      {"SELECT id, score FROM people WHERE grp = ? AND score > ?", 2},
      {"SELECT id FROM people WHERE id >= ? AND id < ?", 2},
      {"SELECT COUNT(*) FROM people WHERE score >= ? OR grp = ?", 2},
      {"SELECT name FROM people WHERE id = ? OR id = ?", 2},
      {"SELECT grp, COUNT(*) FROM people WHERE score < ? GROUP BY grp", 1},
  };
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int64_t> id_dist(-10, 2100);
  std::uniform_real_distribution<double> score_dist(-5.0, 55.0);
  for (int round = 0; round < 40; ++round) {
    const auto& [sql, nparams] = templates[round % templates.size()];
    // Draw values matching each ordinal's inferred type (Prepare is
    // cheap here: after round one every template is a cache hit).
    Result<PreparedInfo> sig = service->Prepare(sql);
    ASSERT_TRUE(sig.ok()) << sql << ": " << sig.status().ToString();
    ASSERT_EQ(sig->num_params, static_cast<size_t>(nparams)) << sql;
    std::vector<Value> params;
    for (int p = 0; p < nparams; ++p) {
      if (rng() % 8 == 0) {
        params.push_back(Value::Null());  // ~1 in 8 params is NULL
      } else if (sig->param_types[static_cast<size_t>(p)] ==
                 TypeId::kFloat64) {
        params.push_back(Value(score_dist(rng)));
      } else {
        params.push_back(Value(id_dist(rng)));
      }
    }
    ASSERT_TRUE(service->ClosePrepared(sig->handle).ok());
    ExpectPreparedMatchesAdHoc(service, sql, params);
  }
}

TEST(PreparedStatementsTest, CoercesIntParamForFloatColumnAndBack) {
  auto service = MakeServiceWithTable(200);
  // int literal bound against a float64 column: coerced to 4.0.
  ExpectPreparedMatchesAdHoc(
      service, "SELECT id FROM people WHERE score = ?", {Value(int64_t{4})});
  // int32 bound against the int64 key column.
  ExpectPreparedMatchesAdHoc(
      service, "SELECT name FROM people WHERE id = ?", {Value(int32_t{42})});
  // Lossy coercion fails cleanly instead of silently truncating.
  auto prep =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  QueryResult bad = service->ExecutePrepared(prep.handle, {Value(3.5)});
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status.IsInvalidArgument()) << bad.status.ToString();
}

TEST(PreparedStatementsTest, NullParameterMatchesNothingEverywhere) {
  auto service = MakeServiceWithTable(100);
  // On the indexed key path (lookup key slot)...
  auto by_key =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  QueryResult r1 = service->ExecutePrepared(by_key.handle, {Value::Null()});
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  EXPECT_TRUE(r1.rows.empty());
  // ...and on the compiled-predicate scan path: `x = NULL` is SQL
  // unknown, never true.
  auto by_scan =
      service->Prepare("SELECT id FROM people WHERE grp = ?").ValueOrDie();
  QueryResult r2 = service->ExecutePrepared(by_scan.handle, {Value::Null()});
  ASSERT_TRUE(r2.ok()) << r2.status.ToString();
  EXPECT_TRUE(r2.rows.empty());
}

TEST(PreparedStatementsTest, NonPatchableShapesFallBackToReplanning) {
  auto service = MakeServiceWithTable(300);
  // A parameter inside an aggregate argument is not a patchable slot:
  // the service substitutes it as a literal and replans per execution —
  // results must still match the ad-hoc twin.
  ExpectPreparedMatchesAdHoc(
      service, "SELECT SUM(score + ?) FROM people WHERE grp = ?",
      {Value(1.5), Value(int32_t{3})});
  EXPECT_GE(service->Stats().prepared_replans, 1u);
}

TEST(PreparedStatementsTest, CacheHitsAndMissesAreCounted) {
  auto service = MakeServiceWithTable(50);
  auto a = service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  // Same statement modulo case and whitespace: one plan, one miss.
  auto b =
      service->Prepare("select  name  FROM people\nWHERE id = ?").ValueOrDie();
  auto c = service->Prepare("SELECT id FROM people WHERE grp = ?").ValueOrDie();
  EXPECT_NE(a.handle, b.handle);  // handles are distinct even on a hit
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.statements_prepared, 3u);
  EXPECT_EQ(stats.plan_cache_misses, 2u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  ASSERT_TRUE(service->ClosePrepared(c.handle).ok());
}

TEST(PreparedStatementsTest, StringLiteralsKeepCaseInFingerprint) {
  auto service = MakeServiceWithTable(50);
  EXPECT_EQ(NormalizeSql("SELECT name FROM people WHERE name = 'N7'"),
            "select name from people where name = 'N7'");
  ASSERT_TRUE(service->Prepare("SELECT id FROM people WHERE name = 'n7'").ok());
  ASSERT_TRUE(service->Prepare("SELECT id FROM people WHERE name = 'N7'").ok());
  // Different literals must not share a cache entry.
  EXPECT_EQ(service->Stats().plan_cache_misses, 2u);
  EXPECT_EQ(service->Stats().plan_cache_hits, 0u);
}

TEST(PreparedStatementsTest, DdlInvalidatesCacheAndReprepares) {
  auto service = MakeServiceWithTable(100);
  auto prep =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  ASSERT_TRUE(service->ExecutePrepared(prep.handle, {Value(int64_t{3})}).ok());
  EXPECT_EQ(service->Stats().plan_cache_misses, 1u);

  // DDL: register another table. Every cached plan is invalidated.
  auto session = Session::Make(service->config().engine).ValueOrDie();
  auto df = session->CreateDataFrame(TestSchema(), MakeRows(0, 10), "other")
                .ValueOrDie();
  auto rel =
      IndexedDataFrame::CreateIndex(df, 0, "other_by_id").ValueOrDie().relation();
  ASSERT_TRUE(service->RegisterTable("other", rel).ok());

  // A fresh Prepare of the same SQL misses (the stale plan was dropped).
  ASSERT_TRUE(service->Prepare("SELECT name FROM people WHERE id = ?").ok());
  EXPECT_EQ(service->Stats().plan_cache_misses, 2u);
  EXPECT_EQ(service->Stats().plan_cache_hits, 0u);

  // The old handle keeps working: the service re-prepares transparently.
  QueryResult r = service->ExecutePrepared(prep.handle, {Value(int64_t{4})});
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "n4");
}

TEST(PreparedStatementsTest, LruEvictsBeyondCapacityButHandlesSurvive) {
  ServiceConfig cfg;
  cfg.plan_cache_capacity = 2;
  auto service = MakeServiceWithTable(100, cfg);
  auto a = service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  ASSERT_TRUE(service->Prepare("SELECT id FROM people WHERE grp = ?").ok());
  ASSERT_TRUE(service->Prepare("SELECT COUNT(*) FROM people").ok());
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.plan_cache_misses, 3u);
  EXPECT_EQ(stats.plan_cache_evictions, 1u);
  // `a` was evicted (LRU) yet its handle still executes.
  QueryResult r = service->ExecutePrepared(a.handle, {Value(int64_t{9})});
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows[0][0].string_value(), "n9");
}

TEST(PreparedStatementsTest, ArgumentErrorsAreReported) {
  auto service = MakeServiceWithTable(10);
  auto prep =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  QueryResult wrong_count = service->ExecutePrepared(prep.handle, {});
  EXPECT_TRUE(wrong_count.status.IsInvalidArgument());
  QueryResult bad_handle = service->ExecutePrepared(99999, {Value(int64_t{1})});
  EXPECT_TRUE(bad_handle.status.IsInvalidArgument());
  EXPECT_TRUE(service->ClosePrepared(prep.handle).ok());
  EXPECT_FALSE(service->ClosePrepared(prep.handle).ok());  // already closed
  QueryResult closed = service->ExecutePrepared(prep.handle, {Value(int64_t{1})});
  EXPECT_TRUE(closed.status.IsInvalidArgument());
  // Unpreparable SQL is an error, not a crash.
  EXPECT_FALSE(service->Prepare("SELECT ? FROM people").ok());
  EXPECT_FALSE(service->Prepare("SELEKT ?").ok());
}

TEST(PreparedStatementsTest, ConcurrentExecutionsUnderAppendStream) {
  auto service = MakeServiceWithTable(1000);
  auto prep =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::thread appender([&] {
    int64_t next = 1000;
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(service->Append("people", MakeRows(next, next + 10)).ok());
      next += 10;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 50; ++i) {
        const int64_t id = static_cast<int64_t>(rng() % 1000);
        QueryResult r = service->ExecutePrepared(prep.handle, {Value(id)});
        ASSERT_TRUE(r.ok()) << r.status.ToString();
        ASSERT_EQ(r.rows.size(), 1u);
        ASSERT_EQ(r.rows[0][0].string_value(), "n" + std::to_string(id));
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  appender.join();
  EXPECT_EQ(checked.load(), 200u);
  EXPECT_EQ(service->Stats().prepared_executions, 200u);
}

TEST(PreparedStatementsTest, ResetStatsZeroesCountersAndHistograms) {
  auto service = MakeServiceWithTable(100);
  auto prep =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  ASSERT_TRUE(service->ExecutePrepared(prep.handle, {Value(int64_t{1})}).ok());
  ASSERT_TRUE(service->Execute("SELECT COUNT(*) FROM people").ok());
  ASSERT_FALSE(service->Execute("SELEKT").ok());
  ServiceStats before = service->Stats();
  EXPECT_GT(before.submitted, 0u);
  EXPECT_GT(before.statements_prepared, 0u);
  EXPECT_GT(before.total.count, 0u);

  service->ResetStats();
  ServiceStats after = service->Stats();
  EXPECT_EQ(after.submitted, 0u);
  EXPECT_EQ(after.succeeded, 0u);
  EXPECT_EQ(after.failed, 0u);
  EXPECT_EQ(after.statements_prepared, 0u);
  EXPECT_EQ(after.plan_cache_hits, 0u);
  EXPECT_EQ(after.plan_cache_misses, 0u);
  EXPECT_EQ(after.plan_cache_evictions, 0u);
  EXPECT_EQ(after.prepared_executions, 0u);
  EXPECT_EQ(after.prepared_replans, 0u);
  EXPECT_EQ(after.total.count, 0u);
  EXPECT_EQ(after.exec.count, 0u);

  // The service keeps working and counting after a reset.
  ASSERT_TRUE(service->ExecutePrepared(prep.handle, {Value(int64_t{2})}).ok());
  EXPECT_EQ(service->Stats().prepared_executions, 1u);
}

}  // namespace
}  // namespace idf
