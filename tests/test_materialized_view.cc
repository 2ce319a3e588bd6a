// Differential tests for the standing-query subsystem (src/view): after
// any interleaving of appends, a subscription's incrementally maintained
// snapshot must be byte-equal to a from-scratch execution of the same SQL
// against the current epoch — across every maintenance strategy (compiled
// select, grouped and global aggregate, indexed join, aggregate over join
// with probe and scan terms, recompute fallback), NULL-bearing group and
// join keys, post-ops (HAVING / ORDER BY / LIMIT), arrangement sharing,
// and concurrent subscribe/unsubscribe while an appender commits. The
// trace tests check the published delta runs: held snapshots across later
// merges, concurrent first reads, and the logarithmic run count. Runs
// under TSan in CI.
#include <atomic>
#include <cmath>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "indexed/multi_indexed_table.h"
#include "service/query_service.h"
#include "snb/tables.h"
#include "sql/session.h"
#include "types/row.h"
#include "view/view_plan.h"
#include "view/view_trace.h"

namespace idf {
namespace {

SchemaPtr OrdersSchema() {
  return Schema::Make({{"oid", TypeId::kInt64, false},
                       {"user_id", TypeId::kInt64, true},  // nullable join key
                       {"amount", TypeId::kInt64, false},
                       {"status", TypeId::kString, true}});  // nullable group key
}

SchemaPtr UsersSchema() {
  return Schema::Make({{"uid", TypeId::kInt64, true},  // nullable join key
                       {"name", TypeId::kString, false}});
}

/// Service with two indexed tables: orders (indexed on user_id) and users
/// (indexed on uid) — both join columns indexed, so join views maintain
/// incrementally instead of degrading to recompute.
QueryServicePtr MakeViewService() {
  ServiceConfig cfg;
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 4;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto odf = session->CreateDataFrame(OrdersSchema(), {}, "orders").ValueOrDie();
  auto orel = IndexedDataFrame::CreateIndex(odf, 1, "orders_by_user")
                  .ValueOrDie()
                  .relation();
  EXPECT_TRUE(service->RegisterTable("orders", orel).ok());
  auto udf = session->CreateDataFrame(UsersSchema(), {}, "users").ValueOrDie();
  auto urel =
      IndexedDataFrame::CreateIndex(udf, 0, "users_by_uid").ValueOrDie().relation();
  EXPECT_TRUE(service->RegisterTable("users", urel).ok());
  return service;
}

/// Deterministic random order rows; ~1/8 NULL user_id, ~1/8 NULL status.
RowVec RandomOrders(std::mt19937* rng, int64_t* next_oid, size_t n) {
  static const char* kStatuses[] = {"new", "paid", "shipped"};
  RowVec rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value user = ((*rng)() % 8 == 0)
                     ? Value::Null()
                     : Value(static_cast<int64_t>((*rng)() % 20));
    Value status = ((*rng)() % 8 == 0)
                       ? Value::Null()
                       : Value(kStatuses[(*rng)() % 3]);
    rows.push_back({Value((*next_oid)++),
                    user,
                    Value(static_cast<int64_t>((*rng)() % 100)),
                    status});
  }
  return rows;
}

/// Deterministic random user rows; ~1/8 NULL uid (stored but unindexed —
/// inner joins must never match them).
RowVec RandomUsers(std::mt19937* rng, int64_t* next_uid, size_t n) {
  RowVec rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value uid =
        ((*rng)() % 8 == 0) ? Value::Null() : Value((*next_uid)++);
    std::string name("u");
    name += std::to_string((*next_uid)++);
    rows.push_back({uid, Value(std::move(name))});
  }
  return rows;
}

/// The differential oracle: the maintained snapshot must equal a
/// from-scratch execution of the subscription's own SQL at the current
/// epoch. `ordered` compares row-for-row (ORDER BY views); otherwise both
/// sides are canonicalized with SortRows.
::testing::AssertionResult MatchesRecompute(QueryService* service,
                                            const ViewSubscriptionPtr& sub,
                                            bool ordered = false) {
  QueryResult full = service->Execute(sub->sql());
  if (!full.ok()) {
    return ::testing::AssertionFailure()
           << "recompute failed: " << full.status.ToString();
  }
  ViewSnapshotPtr snap = sub->Snapshot();
  if (snap == nullptr) {
    return ::testing::AssertionFailure() << "null snapshot";
  }
  if (!snap->rows.status().ok()) {
    return ::testing::AssertionFailure()
           << "snapshot read failed: " << snap->rows.status().ToString();
  }
  RowVec got = *snap->rows;
  RowVec want = std::move(full.rows);
  if (!ordered) {
    SortRows(&got);
    SortRows(&want);
  }
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "row count: maintained=" << got.size()
           << " recomputed=" << want.size() << " for \"" << sub->sql() << '"';
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      return ::testing::AssertionFailure()
             << "row " << i << ": maintained=" << RowToString(got[i])
             << " recomputed=" << RowToString(want[i]) << " for \""
             << sub->sql() << '"';
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MaterializedViewTest, SelectViewTracksAppendsIncrementally) {
  auto service = MakeViewService();
  auto sub = service
                 ->Subscribe(
                     "SELECT oid, amount FROM orders "
                     "WHERE amount > 50 AND status = 'paid'")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kSelect);
  EXPECT_TRUE(MatchesRecompute(service.get(), sub));  // empty table

  std::mt19937 rng(7);
  int64_t oid = 0;
  for (int pass = 0; pass < 8; ++pass) {
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 40))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  ServiceStats stats = service->Stats();
  EXPECT_GT(stats.deltas_propagated, 0u);
  EXPECT_GT(stats.rows_maintained_incrementally, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, GroupedAggregateWithNullKeysMatchesRecompute) {
  auto service = MakeViewService();
  auto sub = service
                 ->Subscribe(
                     "SELECT status, COUNT(*), SUM(amount) FROM orders "
                     "GROUP BY status")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kAggregate);

  std::mt19937 rng(11);
  int64_t oid = 0;
  for (int pass = 0; pass < 8; ++pass) {
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 30))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, GlobalAggregateCorrectFromEmptyTableOnward) {
  auto service = MakeViewService();
  auto sub =
      service->Subscribe("SELECT COUNT(*), SUM(amount) FROM orders")
          .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kAggregate);
  // Empty table: one default row (COUNT 0), same as the from-scratch plan.
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  ASSERT_EQ(sub->Snapshot()->rows->size(), 1u);
  EXPECT_EQ((*sub->Snapshot()->rows)[0][0].int64_value(), 0);

  std::mt19937 rng(13);
  int64_t oid = 0;
  for (int pass = 0; pass < 5; ++pass) {
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 25))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, JoinViewWithNullKeysMatchesRecompute) {
  auto service = MakeViewService();
  auto sub = service
                 ->Subscribe(
                     "SELECT o.oid, u.name FROM orders o "
                     "JOIN users u ON o.user_id = u.uid")
                 .ValueOrDie();
  // Both join columns are indexed, so the view maintains incrementally.
  EXPECT_EQ(sub->kind(), ViewKind::kJoin);

  std::mt19937 rng(17);
  int64_t oid = 0, uid = 0;
  for (int pass = 0; pass < 10; ++pass) {
    // Interleave sides, sometimes both in one pass (same-pass cross
    // deltas must count exactly once), with NULL keys on both sides.
    if (pass % 3 != 1) {
      ASSERT_TRUE(
          service->Append("users", RandomUsers(&rng, &uid, 1 + rng() % 6))
              .ok());
    }
    if (pass % 3 != 2) {
      ASSERT_TRUE(
          service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 20))
              .ok());
    }
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  // The incremental join path must have survived every pass (a
  // maintenance error would silently degrade to recompute and still
  // satisfy the differential check).
  EXPECT_EQ(service->views().Stats().maintenance_errors, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, JoinWithOneSideWhereFiltersTheInput) {
  auto service = MakeViewService();
  auto sub = service
                 ->Subscribe(
                     "SELECT o.oid, u.name FROM orders o "
                     "JOIN users u ON o.user_id = u.uid "
                     "WHERE o.amount > 40")
                 .ValueOrDie();
  std::mt19937 rng(19);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 15)).ok());
  for (int pass = 0; pass < 6; ++pass) {
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 20))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, RecomputeFallbackStaysCorrect) {
  auto service = MakeViewService();
  // A three-table join has no incremental strategy: classified as
  // recompute and re-executed against each new epoch.
  auto sub = service
                 ->Subscribe(
                     "SELECT a.oid, b.oid, u.name FROM orders a "
                     "JOIN orders b ON a.user_id = b.user_id "
                     "JOIN users u ON b.user_id = u.uid WHERE a.amount > 80")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kRecompute);

  std::mt19937 rng(23);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 10)).ok());
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 15))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  EXPECT_GT(service->Stats().views_recomputed, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, HavingOrderByLimitPostOpsMatchOrdered) {
  auto service = MakeViewService();
  // Deterministic data so sort keys are distinct (no tie ambiguity in the
  // ordered comparison): per-status totals 3*70, 2*80, 1*90.
  RowVec rows;
  int64_t oid = 0;
  for (int i = 0; i < 3; ++i) rows.push_back({Value(oid++), Value(int64_t{1}), Value(int64_t{70}), Value("new")});
  for (int i = 0; i < 2; ++i) rows.push_back({Value(oid++), Value(int64_t{2}), Value(int64_t{80}), Value("paid")});
  rows.push_back({Value(oid++), Value(int64_t{3}), Value(int64_t{90}), Value("shipped")});
  auto sub = service
                 ->Subscribe(
                     "SELECT status, SUM(amount) AS total FROM orders "
                     "GROUP BY status HAVING COUNT(*) > 1 "
                     "ORDER BY total DESC LIMIT 2")
                 .ValueOrDie();
  ASSERT_TRUE(service->Append("orders", rows).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), sub, /*ordered=*/true));
  auto snap = sub->Snapshot();
  ASSERT_EQ(snap->rows->size(), 2u);  // HAVING drops 'shipped', LIMIT 2
  EXPECT_EQ((*snap->rows)[0][0].string_value(), "new");     // 210
  EXPECT_EQ((*snap->rows)[1][0].string_value(), "paid");    // 160

  // Push 'paid' past 'new': incremental state must re-rank on publish.
  ASSERT_TRUE(service
                  ->Append("orders", {{Value(oid++), Value(int64_t{2}),
                                       Value(int64_t{99}), Value("paid")}})
                  .ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), sub, /*ordered=*/true));
  EXPECT_EQ((*sub->Snapshot()->rows)[0][0].string_value(), "paid");  // 259
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, MidStreamSubscribeSeesExistingRows) {
  auto service = MakeViewService();
  std::mt19937 rng(29);
  int64_t oid = 0;
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 50)).ok());

  auto sub =
      service->Subscribe("SELECT status, COUNT(*) FROM orders GROUP BY status")
          .ValueOrDie();
  // The initial state is built from an epoch pin, not from future deltas.
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));

  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 30)).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  ASSERT_TRUE(service->Unsubscribe(sub).ok());

  // A join subscribed over already-populated tables seeds its state from
  // the pin (left rows probe the right index at subscribe time).
  int64_t uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 12)).ok());
  auto join_sub = service
                      ->Subscribe(
                          "SELECT o.oid, u.name FROM orders o "
                          "JOIN users u ON o.user_id = u.uid")
                      .ValueOrDie();
  EXPECT_EQ(join_sub->kind(), ViewKind::kJoin);
  ASSERT_TRUE(MatchesRecompute(service.get(), join_sub));
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 20)).ok());
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 5)).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), join_sub));
  EXPECT_EQ(service->views().Stats().maintenance_errors, 0u);
  ASSERT_TRUE(service->Unsubscribe(join_sub).ok());
}

TEST(MaterializedViewTest, IdenticalPlansShareOneArrangement) {
  auto service = MakeViewService();
  const std::string sql = "SELECT status, COUNT(*) FROM orders GROUP BY status";
  auto a = service->Subscribe(sql).ValueOrDie();
  // Same plan, different whitespace: fingerprints match.
  auto b = service
               ->Subscribe(
                   "SELECT  status,  COUNT(*)  FROM orders  GROUP BY status")
               .ValueOrDie();
  auto c = service->Subscribe(sql).ValueOrDie();
  EXPECT_EQ(service->views().num_views(), 1u);
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.views_registered, 1u);
  EXPECT_EQ(stats.view_subscribers, 3u);
  EXPECT_EQ(stats.arrangements_shared, 2u);

  // A different plan gets its own arrangement.
  auto d = service->Subscribe("SELECT COUNT(*) FROM orders").ValueOrDie();
  EXPECT_EQ(service->views().num_views(), 2u);

  // All subscribers observe the same maintained state.
  std::mt19937 rng(31);
  int64_t oid = 0;
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 40)).ok());
  EXPECT_EQ(*a->Snapshot()->rows, *b->Snapshot()->rows);
  EXPECT_EQ(*a->Snapshot()->rows, *c->Snapshot()->rows);

  // Teardown: the arrangement survives until its last subscriber leaves.
  ASSERT_TRUE(service->Unsubscribe(a).ok());
  ASSERT_TRUE(service->Unsubscribe(b).ok());
  EXPECT_EQ(service->views().num_views(), 2u);
  ASSERT_TRUE(service->Unsubscribe(c).ok());
  EXPECT_EQ(service->views().num_views(), 1u);
  EXPECT_FALSE(service->Unsubscribe(c).ok());  // already unsubscribed
  ASSERT_TRUE(service->Unsubscribe(d).ok());
  EXPECT_EQ(service->views().num_views(), 0u);

  // A detached handle still serves its last snapshot (it just stops
  // advancing).
  EXPECT_NE(a->Snapshot(), nullptr);
}

TEST(MaterializedViewTest, CallbacksDeliverMonotonicVersions) {
  auto service = MakeViewService();
  std::vector<uint64_t> versions;
  std::vector<uint64_t> epochs;
  auto sub = service
                 ->Subscribe("SELECT COUNT(*) FROM orders",
                             [&](const ViewSnapshot& snap) {
                               versions.push_back(snap.version);
                               epochs.push_back(snap.epoch);
                             })
                 .ValueOrDie();
  std::mt19937 rng(37);
  int64_t oid = 0;
  const int kAppends = 6;
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 5)).ok());
  }
  // Single-threaded appends: one publish (and one callback) per commit.
  ASSERT_EQ(versions.size(), static_cast<size_t>(kAppends));
  for (size_t i = 1; i < versions.size(); ++i) {
    EXPECT_GT(versions[i], versions[i - 1]);
    EXPECT_GT(epochs[i], epochs[i - 1]);
  }
  EXPECT_EQ(epochs.back(), service->epoch());
  EXPECT_EQ(sub->Snapshot()->version, versions.back());
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, RandomizedInterleavingsAcrossAllViewKinds) {
  auto service = MakeViewService();
  std::mt19937 rng(41);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 8)).ok());

  std::vector<ViewSubscriptionPtr> subs;
  subs.push_back(
      service->Subscribe("SELECT oid FROM orders WHERE amount > 30")
          .ValueOrDie());
  subs.push_back(service
                     ->Subscribe(
                         "SELECT user_id, COUNT(*), SUM(amount) FROM orders "
                         "GROUP BY user_id")
                     .ValueOrDie());
  subs.push_back(service
                     ->Subscribe(
                         "SELECT o.oid, u.name FROM orders o "
                         "JOIN users u ON o.user_id = u.uid")
                     .ValueOrDie());
  subs.push_back(service
                     ->Subscribe(
                         "SELECT u.name, SUM(o.amount) FROM orders o "
                         "JOIN users u ON o.user_id = u.uid GROUP BY u.name")
                     .ValueOrDie());

  for (int step = 0; step < 30; ++step) {
    if (rng() % 4 == 0) {
      ASSERT_TRUE(
          service->Append("users", RandomUsers(&rng, &uid, 1 + rng() % 4))
              .ok());
    } else {
      ASSERT_TRUE(
          service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 12))
              .ok());
    }
    if (step == 10) {
      // Mid-stream subscriber must converge with the rest.
      subs.push_back(
          service->Subscribe("SELECT status, MAX(amount) FROM orders "
                             "GROUP BY status")
              .ValueOrDie());
    }
    if (step % 5 == 4) {
      for (const auto& sub : subs) {
        ASSERT_TRUE(MatchesRecompute(service.get(), sub)) << "step " << step;
      }
    }
  }
  for (const auto& sub : subs) {
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
    ASSERT_TRUE(service->Unsubscribe(sub).ok());
  }
  EXPECT_EQ(service->views().num_views(), 0u);
  // Planned recomputes (the aggregate-over-join view) are not errors;
  // nothing may have degraded.
  EXPECT_EQ(service->views().Stats().maintenance_errors, 0u);
}

TEST(MaterializedViewTest, ConcurrentSubscribeUnsubscribeWhileAppending) {
  auto service = MakeViewService();
  std::mt19937 seed_rng(43);
  int64_t uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&seed_rng, &uid, 10)).ok());

  // One subscription held for the whole run: the final differential check
  // proves no delta was lost or double-applied under churn.
  auto held = service
                  ->Subscribe(
                      "SELECT status, COUNT(*), SUM(amount) FROM orders "
                      "GROUP BY status")
                  .ValueOrDie();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> oid_counter{0};
  // The appender starts once every churner has subscribed, so churner 0's
  // first subscription, which shares `held`'s arrangement, always lands
  // before `stop`.
  constexpr int kChurners = 3;
  std::latch all_subscribed(kChurners);

  std::thread appender([&] {
    all_subscribed.wait();
    std::mt19937 rng(47);
    for (int i = 0; i < 60; ++i) {
      RowVec rows;
      for (size_t r = 0; r < 1 + rng() % 8; ++r) {
        rows.push_back({Value(oid_counter.fetch_add(1)),
                        Value(static_cast<int64_t>(rng() % 10)),
                        Value(static_cast<int64_t>(rng() % 100)),
                        Value("s" + std::to_string(rng() % 3))});
      }
      ASSERT_TRUE(service->Append("orders", rows).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  // Churners subscribe, poll (versions must be monotone per handle),
  // and unsubscribe — racing the appender's maintenance passes.
  const char* kSqls[] = {
      "SELECT status, COUNT(*), SUM(amount) FROM orders GROUP BY status",
      "SELECT oid FROM orders WHERE amount > 50",
      "SELECT COUNT(*) FROM orders",
  };
  std::vector<std::thread> churners;
  for (int t = 0; t < kChurners; ++t) {
    churners.emplace_back([&, t] {
      bool counted = false;
      while (!stop.load(std::memory_order_acquire)) {
        auto r = service->Subscribe(kSqls[t]);
        if (!counted) {
          all_subscribed.count_down();
          counted = true;
        }
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ViewSubscriptionPtr sub = r.ValueOrDie();
        uint64_t last = 0;
        for (int p = 0; p < 5; ++p) {
          ViewSnapshotPtr snap = sub->Snapshot();
          ASSERT_NE(snap, nullptr);
          ASSERT_GE(snap->version, last);
          last = snap->version;
          std::this_thread::yield();
        }
        ASSERT_TRUE(service->Unsubscribe(sub).ok());
      }
    });
  }

  appender.join();
  for (auto& t : churners) t.join();

  ASSERT_TRUE(MatchesRecompute(service.get(), held));
  ASSERT_TRUE(service->Unsubscribe(held).ok());
  EXPECT_EQ(service->views().num_views(), 0u);

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.view_subscribers, 0u);
  EXPECT_GT(stats.deltas_propagated, 0u);
  EXPECT_GT(stats.arrangements_shared, 0u);  // churner 0 shares with `held`
}

TEST(MaterializedViewTest, StatsExportIncludesViewCounters) {
  auto service = MakeViewService();
  auto sub =
      service->Subscribe("SELECT COUNT(*) FROM orders").ValueOrDie();
  ASSERT_TRUE(
      service->Append("orders", {{Value(int64_t{1}), Value(int64_t{1}),
                                  Value(int64_t{10}), Value("new")}})
          .ok());
  std::string json = service->Stats().ToJson();
  for (const char* key :
       {"\"views_registered\"", "\"view_subscribers\"",
        "\"arrangements_shared\"", "\"deltas_propagated\"",
        "\"rows_maintained_incrementally\"", "\"views_recomputed\"",
        "\"view_trace_runs\"", "\"view_trace_rows\"",
        "\"view_maintenance_us\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing:\n"
                                                 << json;
  }
  EXPECT_NE(service->Stats().ToString().find("views:"), std::string::npos);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, SecondaryOnlyJoinColumnMaintainsThroughScanTerm) {
  // A join keyed on a column that carries only a bitmap/range secondary
  // index must never probe that index: secondary cuts are published per
  // append batch, not pinned per epoch. The term whose probe key has no
  // primary cTrie index scans the other side's rows at the term's pin
  // instead, so the view maintains incrementally and stays correct under
  // live appends to both sides.
  ServiceConfig cfg;
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 4;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto odf = session->CreateDataFrame(OrdersSchema(), {}, "orders").ValueOrDie();
  auto orel = IndexedDataFrame::CreateIndex(odf, 1, "orders_by_user")
                  .ValueOrDie()
                  .relation();
  // `amount` gets a range secondary index — queries can probe it, but the
  // join below is keyed on it and must not treat it as a join arrangement.
  ASSERT_TRUE(orel->AddSecondaryIndex("amount", SecondaryIndexKind::kRange).ok());
  ASSERT_TRUE(service->RegisterTable("orders", orel).ok());
  auto udf = session->CreateDataFrame(UsersSchema(), {}, "users").ValueOrDie();
  auto urel =
      IndexedDataFrame::CreateIndex(udf, 0, "users_by_uid").ValueOrDie().relation();
  ASSERT_TRUE(service->RegisterTable("users", urel).ok());

  auto sub = service
                 ->Subscribe(
                     "SELECT o.oid, u.name FROM orders o "
                     "JOIN users u ON o.amount = u.uid")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kJoin);

  std::mt19937 rng(41);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 12)).ok());
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 15))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  // Users deltas run the scan term (orders has no primary index on amount).
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 40)).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  EXPECT_EQ(service->views().Stats().maintenance_errors, 0u);
  EXPECT_EQ(service->Stats().views_recomputed, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, SubscribeRejectsInvalidSql) {
  auto service = MakeViewService();
  EXPECT_FALSE(service->Subscribe("SELECT FROM WHERE").ok());
  EXPECT_FALSE(service->Subscribe("SELECT x FROM no_such_table").ok());
  EXPECT_EQ(service->views().num_views(), 0u);
  // A failed subscribe leaves the delta feed disabled.
  EXPECT_FALSE(service->views().wants_deltas());
}


/// Rows of a one-shot execution of `sql` (test helper).
size_t CountRows(QueryService* service, const std::string& sql) {
  QueryResult r = service->Execute(sql);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  return r.rows.size();
}

TEST(MaterializedViewTest, OneSideWhereOverJoinKeepsOnlyPublishedRows) {
  auto service = MakeViewService();
  std::mt19937 rng(43);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 12)).ok());
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 30)).ok());
  // The right-side conjunct is pushed onto the users input: it filters
  // user deltas and the users rows that order deltas probe, so the
  // resident join never holds a row the view does not publish.
  auto sub = service
                 ->Subscribe(
                     "SELECT o.oid, u.name FROM orders o "
                     "JOIN users u ON o.user_id = u.uid WHERE u.uid < 8")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kJoin);
  for (int pass = 0; pass < 8; ++pass) {
    if (pass % 2 == 0) {
      ASSERT_TRUE(
          service->Append("users", RandomUsers(&rng, &uid, 1 + rng() % 4))
              .ok());
    }
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 20))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  const size_t published = sub->Snapshot()->rows->size();
  const size_t full_join = CountRows(
      service.get(),
      "SELECT o.oid FROM orders o JOIN users u ON o.user_id = u.uid");
  EXPECT_GT(published, 0u);
  EXPECT_LT(published, full_join);
  EXPECT_EQ(service->views().Stats().resident_rows, published);
  EXPECT_EQ(service->views().Stats().maintenance_errors, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, PushedConjunctsShareOneArrangementAcrossOrder) {
  // Views are fingerprinted after optimization: each conjunct below moves
  // onto its own join input, so both spellings maintain one arrangement.
  auto service = MakeViewService();
  auto a = service
               ->Subscribe(
                   "SELECT o.oid, u.name FROM orders o JOIN users u "
                   "ON o.user_id = u.uid WHERE u.uid < 8 AND o.amount > 20")
               .ValueOrDie();
  auto b = service
               ->Subscribe(
                   "SELECT o.oid, u.name FROM orders o JOIN users u "
                   "ON o.user_id = u.uid WHERE o.amount > 20 AND u.uid < 8")
               .ValueOrDie();
  EXPECT_EQ(a->kind(), ViewKind::kJoin);
  EXPECT_EQ(service->views().num_views(), 1u);
  std::mt19937 rng(67);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 10)).ok());
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 40)).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), a));
  ASSERT_TRUE(MatchesRecompute(service.get(), b));
  ASSERT_TRUE(service->Unsubscribe(a).ok());
  ASSERT_TRUE(service->Unsubscribe(b).ok());
}

TEST(MaterializedViewTest, CrossSideConjunctStaysAPostOpAndIsApplied) {
  auto service = MakeViewService();
  std::mt19937 rng(47);
  int64_t oid = 0, uid = 0;
  // `o.amount > u.uid` reads both sides: it cannot move below the join, so
  // it stays a row-wise post-op and runs on each delta's joined rows.
  auto sub = service
                 ->Subscribe(
                     "SELECT o.oid, u.name FROM orders o "
                     "JOIN users u ON o.user_id = u.uid WHERE o.amount > u.uid")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kJoin);
  for (int pass = 0; pass < 8; ++pass) {
    if (pass % 3 != 1) {
      ASSERT_TRUE(
          service->Append("users", RandomUsers(&rng, &uid, 1 + rng() % 6))
              .ok());
    }
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 20))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  const size_t published = sub->Snapshot()->rows->size();
  EXPECT_LT(published,
            CountRows(service.get(),
                      "SELECT o.oid FROM orders o "
                      "JOIN users u ON o.user_id = u.uid"));
  EXPECT_EQ(service->views().Stats().resident_rows, published);
  EXPECT_EQ(service->views().Stats().maintenance_errors, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, FilterOverProjectBecomesSelectWithInputPredicate) {
  // SQL never puts WHERE above the SELECT list, so build Filter(Project(
  // Scan)) with the DataFrame API and classify its optimized plan.
  auto session = Session::Make(EngineConfig{}).ValueOrDie();
  auto orders =
      session->CreateDataFrame(OrdersSchema(), {}, "orders").ValueOrDie();
  auto df = orders.Select({"oid", "amount"})
                .ValueOrDie()
                .Filter(Gt(Col("amount"), Lit(Value(int64_t{30}))))
                .ValueOrDie();
  ASSERT_EQ(df.plan()->kind(), PlanKind::kFilter);
  auto optimized = session->OptimizeOnly(df.plan()).ValueOrDie();
  ViewSpec spec = BuildViewSpec("filter over project", optimized).ValueOrDie();
  EXPECT_EQ(spec.kind, ViewKind::kSelect);
  EXPECT_EQ(spec.input.table, "orders");
  ASSERT_NE(spec.input.predicate, nullptr);
  ASSERT_EQ(spec.row_post.size(), 1u);
  EXPECT_EQ(spec.row_post[0].kind, ViewPostOp::kProject);
  EXPECT_TRUE(spec.post.empty());

  // The same shape through a subscription: the selected rows equal a
  // one-shot execution after appends.
  auto service = MakeViewService();
  auto sub = service->Subscribe("SELECT oid, amount FROM orders WHERE amount > 30")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kSelect);
  std::mt19937 rng(53);
  int64_t oid = 0;
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 25)).ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  EXPECT_EQ(service->views().Stats().resident_rows,
            sub->Snapshot()->rows->size());
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, OrderByLimitOverJoinPublishesInOrder) {
  auto service = MakeViewService();
  std::mt19937 rng(59);
  int64_t oid = 0, uid = 0;
  auto sub = service
                 ->Subscribe(
                     "SELECT o.oid, u.name FROM orders o "
                     "JOIN users u ON o.user_id = u.uid WHERE u.uid < 12 "
                     "ORDER BY o.oid DESC LIMIT 5")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kJoin);
  for (int pass = 0; pass < 8; ++pass) {
    ASSERT_TRUE(
        service->Append("users", RandomUsers(&rng, &uid, 1 + rng() % 3)).ok());
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 15))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub, /*ordered=*/true));
  }
  const RowVec& rows = *sub->Snapshot()->rows;
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i - 1][0].int64_value(), rows[i][0].int64_value());
  }
  EXPECT_EQ(service->views().Stats().maintenance_errors, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, SelfJoinCountsEachSeedPairOnce) {
  auto service = MakeViewService();
  std::mt19937 rng(61);
  int64_t oid = 0;
  // Seeded from a populated table, then fed deltas that land on both
  // sides at once; the one-side conjunct filters only the right input.
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 40)).ok());
  auto sub = service
                 ->Subscribe(
                     "SELECT a.oid, b.oid FROM orders a "
                     "JOIN orders b ON a.user_id = b.user_id "
                     "WHERE b.amount > 50")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kJoin);
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  for (int pass = 0; pass < 5; ++pass) {
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 10))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  EXPECT_EQ(service->views().Stats().resident_rows,
            sub->Snapshot()->rows->size());
  EXPECT_EQ(service->views().Stats().maintenance_errors, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

// ---------------------------------------------------------------------------
// Aggregate over join: the delta rule Δγ(L⋈R) = γ(ΔL⋈R_cur) + γ(L_prev⋈ΔR)
// ---------------------------------------------------------------------------

/// Appends random batches to users and orders for `passes` rounds and
/// checks every subscription after each commit. Every third round commits
/// to both tables before one maintenance pass, so both join terms run in
/// the same pass.
void DriveBothSides(QueryService* service,
                    const std::vector<ViewSubscriptionPtr>& subs,
                    uint32_t seed, int passes, bool ordered = false) {
  std::mt19937 rng(seed);
  int64_t oid = 1000 * static_cast<int64_t>(seed);
  int64_t uid = 0;
  auto check = [&] {
    for (const auto& sub : subs) {
      ASSERT_TRUE(MatchesRecompute(service, sub, ordered));
    }
  };
  for (int pass = 0; pass < passes; ++pass) {
    RowVec users = RandomUsers(&rng, &uid, 1 + rng() % 4);
    RowVec orders = RandomOrders(&rng, &oid, 1 + rng() % 12);
    if (pass % 3 == 2) {
      ASSERT_TRUE(service->snapshots().Append("users", users).ok());
      ASSERT_TRUE(service->snapshots().Append("orders", orders).ok());
      service->views().Propagate();
      check();
    } else {
      ASSERT_TRUE(service->Append("users", users).ok());
      check();
      ASSERT_TRUE(service->Append("orders", orders).ok());
      check();
    }
  }
}

TEST(MaterializedViewTest, GroupedAggregateOverJoinAllFunctionsMatchRecompute) {
  auto service = MakeViewService();
  // Null join keys on both sides never match; null `status` is a group.
  auto by_status = service
                       ->Subscribe(
                           "SELECT o.status, COUNT(*), SUM(o.amount), "
                           "MIN(o.amount), MAX(u.name) FROM orders o "
                           "JOIN users u ON o.user_id = u.uid "
                           "GROUP BY o.status")
                       .ValueOrDie();
  auto by_name = service
                     ->Subscribe(
                         "SELECT u.name, COUNT(*), MAX(o.amount) FROM orders o "
                         "JOIN users u ON o.user_id = u.uid GROUP BY u.name")
                     .ValueOrDie();
  EXPECT_EQ(by_status->kind(), ViewKind::kAggregate);
  EXPECT_EQ(by_name->kind(), ViewKind::kAggregate);
  DriveBothSides(service.get(), {by_status, by_name}, 71, 12);
  ViewManagerStats stats = service->views().Stats();
  EXPECT_EQ(stats.views_recomputed, 0u);
  EXPECT_EQ(stats.maintenance_errors, 0u);
  ASSERT_TRUE(service->Unsubscribe(by_status).ok());
  ASSERT_TRUE(service->Unsubscribe(by_name).ok());
}

TEST(MaterializedViewTest, GlobalAggregateOverJoinFromEmptyTablesOnward) {
  auto service = MakeViewService();
  auto sub = service
                 ->Subscribe(
                     "SELECT COUNT(*), SUM(o.amount), MIN(o.amount), "
                     "MAX(o.amount) FROM orders o "
                     "JOIN users u ON o.user_id = u.uid")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kAggregate);
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));  // one row: 0, nulls
  ASSERT_EQ(sub->Snapshot()->rows->size(), 1u);
  DriveBothSides(service.get(), {sub}, 73, 9);
  EXPECT_EQ(service->views().Stats().views_recomputed, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, HavingOrderByLimitOverJoinAggregateMatchOrdered) {
  auto service = MakeViewService();
  // Sort keys are unique per row (status breaks count ties), so the
  // ordered comparison is deterministic. HAVING drops and re-admits
  // groups as counts grow.
  auto sub = service
                 ->Subscribe(
                     "SELECT o.status, COUNT(*) AS n FROM orders o "
                     "JOIN users u ON o.user_id = u.uid GROUP BY o.status "
                     "HAVING COUNT(*) > 3 ORDER BY n DESC, status LIMIT 2")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kAggregate);
  DriveBothSides(service.get(), {sub}, 79, 10, /*ordered=*/true);
  EXPECT_EQ(sub->Snapshot()->rows->size(), 2u);
  EXPECT_EQ(service->views().Stats().views_recomputed, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, SelfJoinAggregateMatchesRecompute) {
  auto service = MakeViewService();
  std::mt19937 rng(83);
  int64_t oid = 0;
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 30)).ok());
  auto sub = service
                 ->Subscribe(
                     "SELECT a.status, COUNT(*), SUM(b.amount) FROM orders a "
                     "JOIN orders b ON a.user_id = b.user_id "
                     "WHERE b.amount > 40 GROUP BY a.status")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kAggregate);
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  for (int pass = 0; pass < 6; ++pass) {
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 10))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  EXPECT_EQ(service->views().Stats().views_recomputed, 0u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(MaterializedViewTest, MidStreamSubscribeToJoinAggregateSeesExistingRows) {
  auto service = MakeViewService();
  std::mt19937 rng(89);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 15)).ok());
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 60)).ok());
  auto early = service
                   ->Subscribe(
                       "SELECT u.name, COUNT(*) FROM orders o "
                       "JOIN users u ON o.user_id = u.uid GROUP BY u.name")
                   .ValueOrDie();
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 20)).ok());
  auto late = service
                  ->Subscribe(
                      "SELECT o.status, SUM(o.amount) FROM orders o "
                      "JOIN users u ON o.user_id = u.uid GROUP BY o.status")
                  .ValueOrDie();
  ASSERT_TRUE(MatchesRecompute(service.get(), early));
  ASSERT_TRUE(MatchesRecompute(service.get(), late));
  DriveBothSides(service.get(), {early, late}, 97, 6);
  ASSERT_TRUE(service->Unsubscribe(early).ok());
  ASSERT_TRUE(service->Unsubscribe(late).ok());
}

TEST(MaterializedViewTest, UnindexedJoinKeyRunsTheScanTerm) {
  auto service = MakeViewService();
  // orders has no primary index on `amount`: user deltas (term 2) and, in
  // the mirrored view, term 1 scan the orders rows at the term's pin.
  auto agg = service
                 ->Subscribe(
                     "SELECT u.name, COUNT(*) FROM orders o "
                     "JOIN users u ON o.amount = u.uid GROUP BY u.name")
                 .ValueOrDie();
  auto mirrored = service
                      ->Subscribe(
                          "SELECT COUNT(*), MAX(o.oid) FROM users u "
                          "JOIN orders o ON u.uid = o.amount "
                          "WHERE o.status = 'paid'")
                      .ValueOrDie();
  EXPECT_EQ(agg->kind(), ViewKind::kAggregate);
  EXPECT_EQ(mirrored->kind(), ViewKind::kAggregate);
  DriveBothSides(service.get(), {agg, mirrored}, 101, 12);
  ViewManagerStats stats = service->views().Stats();
  EXPECT_EQ(stats.views_recomputed, 0u);
  EXPECT_EQ(stats.maintenance_errors, 0u);
  ASSERT_TRUE(service->Unsubscribe(agg).ok());
  ASSERT_TRUE(service->Unsubscribe(mirrored).ok());
}

TEST(MaterializedViewTest, DemoDashboardShapesAllMaintainIncrementally) {
  // The demo's five dashboards over the demo's tables and indexes (empty:
  // classification needs schemas and index shapes, not data).
  ServiceConfig cfg;
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 2;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto indexed = [&](SchemaPtr schema, const char* name, int key) {
    auto df = session->CreateDataFrame(std::move(schema), {}, name).ValueOrDie();
    return IndexedDataFrame::CreateIndex(df, key, name).ValueOrDie().relation();
  };
  ASSERT_TRUE(service
                  ->RegisterTable("person", indexed(snb::PersonSchema(), "person",
                                                    snb::person::kId))
                  .ok());
  ASSERT_TRUE(service
                  ->RegisterTable("knows", indexed(snb::KnowsSchema(), "knows",
                                                   snb::knows::kPerson1))
                  .ok());
  ASSERT_TRUE(service
                  ->RegisterTable("comment",
                                  indexed(snb::CommentSchema(), "comment",
                                          snb::comment::kReplyOfPostId))
                  .ok());
  auto post_df =
      session->CreateDataFrame(snb::PostSchema(), {}, "post").ValueOrDie();
  auto post = std::make_shared<MultiIndexedTable>(
      MultiIndexedTable::Create(post_df, {"id", "creatorId"}, "post")
          .ValueOrDie());
  ASSERT_TRUE(post->AddBitmapIndex("browserUsed").ok());
  ASSERT_TRUE(service->RegisterTable("post", post).ok());

  const std::vector<std::pair<std::string, ViewKind>> dashboards = {
      {"SELECT browserUsed, COUNT(*) AS posts FROM post GROUP BY browserUsed",
       ViewKind::kAggregate},
      {"SELECT creatorId, COUNT(*) AS replies, MAX(creationDate) AS lastReply "
       "FROM comment GROUP BY creatorId",
       ViewKind::kAggregate},
      {"SELECT person2Id, creationDate FROM knows WHERE person1Id = 7",
       ViewKind::kSelect},
      {"SELECT c.id AS commentId, c.creatorId AS replier, p.id AS postId "
       "FROM comment c JOIN post p ON c.replyOfPostId = p.id "
       "WHERE p.creatorId = 7",
       ViewKind::kJoin},
      {"SELECT COUNT(*) AS friends FROM knows k JOIN person p "
       "ON k.person2Id = p.id WHERE k.person1Id = 7",
       ViewKind::kAggregate},
  };
  for (const auto& [sql, kind] : dashboards) {
    auto sub = service->Subscribe(sql).ValueOrDie();
    EXPECT_EQ(sub->kind(), kind) << sql;
    EXPECT_NE(sub->kind(), ViewKind::kRecompute) << sql;
    ASSERT_TRUE(service->Unsubscribe(sub).ok());
  }
}

TEST(MaterializedViewTest, RecomputeViewLowersItsPlanOnceUntilDdl) {
  auto service = MakeViewService();
  auto sub = service
                 ->Subscribe(
                     "SELECT a.oid, u.name FROM orders a "
                     "JOIN orders b ON a.user_id = b.user_id "
                     "JOIN users u ON b.user_id = u.uid")
                 .ValueOrDie();
  EXPECT_EQ(sub->kind(), ViewKind::kRecompute);
  std::mt19937 rng(103);
  int64_t oid = 0, uid = 0;
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 3)).ok());
    ASSERT_TRUE(
        service->Append("orders", RandomOrders(&rng, &oid, 1 + rng() % 10))
            .ok());
    ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  }
  EXPECT_EQ(service->views().Stats().recompute_plans_lowered, 1u);

  // DDL moves the version: the next pass re-lowers and stays correct.
  auto session = Session::Make(ServiceConfig{}.engine).ValueOrDie();
  auto extra = session->CreateDataFrame(UsersSchema(), {}, "extra").ValueOrDie();
  ASSERT_TRUE(service
                  ->RegisterTable("extra", IndexedDataFrame::CreateIndex(
                                               extra, 0, "extra_by_uid")
                                               .ValueOrDie()
                                               .relation())
                  .ok());
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 8)).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 3)).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), sub));
  EXPECT_EQ(service->views().Stats().recompute_plans_lowered, 2u);
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

// ---------------------------------------------------------------------------
// The published trace
// ---------------------------------------------------------------------------

TEST(ViewTraceTest, DeltaRunsConsolidateAndCancel) {
  DeltaRun run = DeltaRun::Build(
      {{Value(int64_t{2})}, {Value(int64_t{1})}, {Value(int64_t{2})},
       {Value(int64_t{3})}, {Value(int64_t{3})}},
      {1, 1, 1, 1, -1});
  ASSERT_EQ(run.size(), 2u);  // (1)+1, (2)+2; (3) cancels
  for (size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run.diffs[i], run.rows[i][0].int64_value());
    EXPECT_EQ(run.hashes[i], HashRow(run.rows[i]));
  }
  DeltaRun retract = DeltaRun::Build({{Value(int64_t{1})}}, {-1});
  DeltaRun merged = DeltaRun::Merge(run, DeltaRun(retract));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.rows[0][0].int64_value(), 2);

  ViewRows rows({std::make_shared<const DeltaRun>(run),
                 std::make_shared<const DeltaRun>(retract)},
                nullptr);
  ASSERT_EQ(rows->size(), 2u);  // multiplicity 2 expands
  EXPECT_EQ((*rows)[0][0].int64_value(), 2);
  EXPECT_EQ((*rows)[1][0].int64_value(), 2);
}

TEST(ViewTraceTest, HeldSnapshotReadsItsRowsAfterLaterMerges) {
  auto service = MakeViewService();
  const std::string sql = "SELECT oid, amount FROM orders WHERE amount >= 0";
  auto sub = service->Subscribe(sql).ValueOrDie();
  std::mt19937 rng(107);
  int64_t oid = 0;
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 37)).ok());
  // Held unread: its first dereference comes after the merges below.
  ViewSnapshotPtr held = sub->Snapshot();
  RowVec want = service->Execute(sql).rows;
  const size_t runs_before = held->rows.runs().size();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 1)).ok());
  }
  EXPECT_EQ(held->rows.runs().size(), runs_before);
  RowVec got = *held->rows;
  SortRows(&got);
  SortRows(&want);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(MatchesRecompute(service.get(), sub));
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
}

TEST(ViewTraceTest, ConcurrentFirstDereferenceSeesIdenticalRows) {
  auto service = MakeViewService();
  auto sub = service
                 ->Subscribe(
                     "SELECT status, COUNT(*), SUM(amount) FROM orders "
                     "GROUP BY status ORDER BY status")
                 .ValueOrDie();
  auto join = service
                  ->Subscribe(
                      "SELECT o.oid, u.name FROM orders o "
                      "JOIN users u ON o.user_id = u.uid")
                  .ValueOrDie();
  DriveBothSides(service.get(), {}, 109, 15);
  for (const ViewSubscriptionPtr& s : {sub, join}) {
    ViewSnapshotPtr fresh = s->Snapshot();  // not yet dereferenced
    std::vector<RowVec> seen(8);
    std::vector<std::thread> readers;
    for (size_t t = 0; t < seen.size(); ++t) {
      readers.emplace_back([&fresh, &seen, t] { seen[t] = *fresh->rows; });
    }
    for (std::thread& r : readers) r.join();
    for (const RowVec& rows : seen) EXPECT_EQ(rows, seen[0]);
    EXPECT_TRUE(MatchesRecompute(service.get(), s, /*ordered=*/s == sub));
  }
  ASSERT_TRUE(service->Unsubscribe(sub).ok());
  ASSERT_TRUE(service->Unsubscribe(join).ok());
}

TEST(ViewTraceTest, RunCountStaysLogarithmicAfterEveryPublish) {
  auto service = MakeViewService();
  auto select = service->Subscribe("SELECT oid FROM orders").ValueOrDie();
  auto global = service->Subscribe("SELECT COUNT(*) FROM orders").ValueOrDie();
  auto grouped = service
                     ->Subscribe(
                         "SELECT user_id, COUNT(*) FROM orders GROUP BY user_id")
                     .ValueOrDie();
  std::mt19937 rng(113);
  int64_t oid = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 1)).ok());
    for (const ViewSubscriptionPtr& s : {select, global, grouped}) {
      ViewSnapshotPtr snap = s->Snapshot();
      const double rows = std::max<double>(1, snap->rows->size());
      ASSERT_LE(static_cast<double>(snap->rows.runs().size()),
                2 * std::log2(rows) + 2)
          << s->sql() << " after " << i + 1 << " publishes";
    }
  }
  // Retractions cancel in merges: the global count's trace stays tiny.
  EXPECT_LE(global->Snapshot()->rows.runs().size(), 2u);
  ViewManagerStats stats = service->views().Stats();
  EXPECT_GT(stats.trace_runs, 0u);
  EXPECT_GE(stats.trace_rows, 1000u);
  EXPECT_GT(stats.maintenance_us, 0u);
  EXPECT_TRUE(MatchesRecompute(service.get(), grouped));
  for (const ViewSubscriptionPtr& s : {select, global, grouped}) {
    ASSERT_TRUE(service->Unsubscribe(s).ok());
  }
}

TEST(ViewTraceTest, ReadsStartFromThePreviousSnapshot) {
  // A delta run per row state change: +2 new, 1 -> 0, 2 -> 1, 1 -> 3.
  auto row = [](int64_t v) { return Row{Value(v)}; };
  DeltaRun base = DeltaRun::Build({row(1), row(2), row(2), row(3), row(4)},
                                  {1, 1, 1, 1, 1});
  DeltaRun delta = DeltaRun::Build({row(5), row(1), row(2), row(4), row(6)},
                                   {2, -1, -1, 2, 1});
  auto base_ptr = std::make_shared<const DeltaRun>(base);
  const std::vector<DeltaRunPtr> both = {base_ptr,
                                         std::make_shared<const DeltaRun>(delta)};
  ViewRows merged(both, nullptr);
  ASSERT_EQ(merged.build(), ViewRows::Build::kMergedRuns);
  ASSERT_EQ(merged->size(), 8u);  // 2, 3, 4 x3, 5 x2, 6

  for (bool hold_previous : {false, true}) {
    auto previous = std::make_shared<ViewSnapshot>(
        1, 1, nullptr, std::vector<DeltaRunPtr>{base_ptr}, nullptr, nullptr,
        nullptr);
    const RowVec previous_rows = *previous->rows;  // read: now reusable
    ASSERT_TRUE(previous->rows.Reusable());
    std::shared_ptr<const ViewRows> link(previous, &previous->rows);
    ViewSnapshotPtr held = hold_previous ? previous : nullptr;
    previous.reset();
    ViewRows next(both, nullptr, std::move(link),
                  std::make_unique<DeltaRun>(delta));
    EXPECT_EQ(*next, *merged) << "hold_previous=" << hold_previous;
    EXPECT_EQ(next.build(), hold_previous ? ViewRows::Build::kCopiedPrevious
                                          : ViewRows::Build::kMovedPrevious);
    if (held != nullptr) EXPECT_EQ(*held->rows, previous_rows);
  }

  // An unread previous snapshot cannot seed the next one.
  auto unread = std::make_shared<ViewSnapshot>(
      1, 1, nullptr, std::vector<DeltaRunPtr>{base_ptr}, nullptr, nullptr,
      nullptr);
  ViewRows cold(both, nullptr,
                std::shared_ptr<const ViewRows>(unread, &unread->rows),
                std::make_unique<DeltaRun>(delta));
  EXPECT_EQ(cold.build(), ViewRows::Build::kMergedRuns);
  EXPECT_EQ(*cold, *merged);
}

TEST(ViewTraceTest, ReadingSubscriberMovesThePreviousRows) {
  auto service = MakeViewService();
  std::mt19937 rng(127);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 20)).ok());
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 60)).ok());
  auto select =
      service->Subscribe("SELECT oid, amount FROM orders WHERE amount > 20")
          .ValueOrDie();
  auto grouped = service
                     ->Subscribe(
                         "SELECT user_id, COUNT(*), MIN(amount) FROM orders "
                         "GROUP BY user_id")
                     .ValueOrDie();
  auto join = service
                  ->Subscribe(
                      "SELECT o.oid, u.name FROM orders o "
                      "JOIN users u ON o.user_id = u.uid")
                  .ValueOrDie();
  // Every pass rewrites the single row: cheaper to read from the runs.
  auto global = service->Subscribe("SELECT COUNT(*) FROM orders").ValueOrDie();
  auto ordered = service
                     ->Subscribe(
                         "SELECT oid, amount FROM orders ORDER BY amount DESC, "
                         "oid LIMIT 5")
                     .ValueOrDie();
  const std::vector<ViewSubscriptionPtr> moved = {select, grouped, join};
  for (const auto& s : moved) ASSERT_TRUE(MatchesRecompute(service.get(), s));
  ASSERT_TRUE(MatchesRecompute(service.get(), global));
  for (int pass = 0; pass < 20; ++pass) {
    ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 2)).ok());
    for (const auto& s : moved) {
      // Nobody else holds the previous snapshot: its rows move.
      EXPECT_EQ(s->Snapshot()->rows.build(), ViewRows::Build::kMovedPrevious)
          << s->sql() << " pass " << pass;
      ASSERT_TRUE(MatchesRecompute(service.get(), s));
    }
    EXPECT_EQ(global->Snapshot()->rows.build(), ViewRows::Build::kMergedRuns);
    ASSERT_TRUE(MatchesRecompute(service.get(), global));
    // ORDER BY ... LIMIT rows are not in run order: always from the runs.
    EXPECT_EQ(ordered->Snapshot()->rows.build(), ViewRows::Build::kMergedRuns);
    ASSERT_TRUE(MatchesRecompute(service.get(), ordered, /*ordered=*/true));
  }
  // A held snapshot is copied from, not moved, and keeps its rows.
  ViewSnapshotPtr held = join->Snapshot();
  const RowVec held_rows = *held->rows;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 5)).ok());
  EXPECT_EQ(join->Snapshot()->rows.build(), ViewRows::Build::kCopiedPrevious);
  EXPECT_EQ(*held->rows, held_rows);
  ASSERT_TRUE(MatchesRecompute(service.get(), join));
  // A snapshot nobody read before the next publish: that one merges.
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 2)).ok());
  ViewSnapshotPtr skipped = join->Snapshot();
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 2)).ok());
  EXPECT_EQ(join->Snapshot()->rows.build(), ViewRows::Build::kMergedRuns);
  ASSERT_TRUE(MatchesRecompute(service.get(), join));
  for (const auto& s : {select, grouped, join, global, ordered}) {
    ASSERT_TRUE(service->Unsubscribe(s).ok());
  }
}

TEST(ViewTraceTest, FailedReadSidePostOpIsCountedAndReported) {
  auto errors = std::make_shared<std::atomic<uint64_t>>(0);
  // An unbound sort key fails to evaluate at read time.
  ViewPostOp sort{ViewPostOp::kSort, nullptr, {}, {}, 0};
  sort.keys.push_back(SortKey{std::make_shared<ColumnRefExpr>("missing"), true});
  auto read = std::make_shared<const ViewReadSide>(ViewReadSide{{sort}, errors});
  DeltaRun run = DeltaRun::Build({{Value(int64_t{1})}, {Value(int64_t{2})}}, {1, 1});
  ViewRows rows({std::make_shared<const DeltaRun>(std::move(run))}, read);
  EXPECT_TRUE(rows->empty());
  EXPECT_FALSE(rows.status().ok());
  EXPECT_FALSE(rows.Reusable());
  EXPECT_EQ(errors->load(), 1u);
  EXPECT_TRUE(rows->empty());  // cached: counted once
  EXPECT_EQ(errors->load(), 1u);
}

TEST(MaterializedViewTest, ScanTermReadsThroughAnIndexedEquality) {
  auto service = MakeViewService();
  std::mt19937 rng(131);
  int64_t oid = 0, uid = 0;
  ASSERT_TRUE(service->Append("orders", RandomOrders(&rng, &oid, 200)).ok());
  // orders has no primary index on `amount`, so users deltas scan orders;
  // `o.user_id = 3` names orders' index, so the scan is one lookup.
  auto narrow = service
                    ->Subscribe(
                        "SELECT u.name, COUNT(*) FROM orders o "
                        "JOIN users u ON o.amount = u.uid "
                        "WHERE o.user_id = 3 GROUP BY u.name")
                    .ValueOrDie();
  const size_t user3 =
      service->Execute("SELECT oid FROM orders WHERE user_id = 3").rows.size();
  ASSERT_GT(user3, 0u);
  uint64_t before = service->views().Stats().scan_term_rows;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 30)).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), narrow));
  EXPECT_EQ(service->views().Stats().scan_term_rows - before, user3);
  ASSERT_TRUE(service->Unsubscribe(narrow).ok());

  // Without such an equality the term reads every stored orders row once.
  auto wide = service
                  ->Subscribe(
                      "SELECT u.name, COUNT(*) FROM orders o "
                      "JOIN users u ON o.amount = u.uid "
                      "WHERE o.status = 'paid' GROUP BY u.name")
                  .ValueOrDie();
  before = service->views().Stats().scan_term_rows;
  ASSERT_TRUE(service->Append("users", RandomUsers(&rng, &uid, 30)).ok());
  ASSERT_TRUE(MatchesRecompute(service.get(), wide));
  EXPECT_EQ(service->views().Stats().scan_term_rows - before, 200u);
  EXPECT_EQ(service->views().Stats().views_recomputed, 0u);
  ASSERT_TRUE(service->Unsubscribe(wide).ok());
}

}  // namespace
}  // namespace idf
