// API tests for IndexedDataFrame: the paper's Listing 1 surface, the
// optimizer integration (indexed rewrites and fallback), and update
// visibility semantics.
#include "indexed/indexed_dataframe.h"

#include <gtest/gtest.h>

#include "indexed/indexed_rules.h"

namespace idf {
namespace {

class IndexedDataFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    cfg.row_batch_bytes = 64 * 1024;
    session_ = Session::Make(cfg).ValueOrDie();
    schema_ = Schema::Make({{"k", TypeId::kInt64, false},
                            {"payload", TypeId::kString, true},
                            {"w", TypeId::kInt64, true}});
    RowVec rows;
    for (int64_t i = 0; i < 500; ++i) {
      rows.push_back({Value(i % 50), Value("p" + std::to_string(i)), Value(i)});
    }
    df_ = session_->CreateDataFrame(schema_, rows, "base").ValueOrDie();
    idf_ = std::make_shared<IndexedDataFrame>(
        IndexedDataFrame::CreateIndex(df_, 0, "base_by_k").ValueOrDie().Cache());
  }

  SessionPtr session_;
  SchemaPtr schema_;
  DataFrame df_;
  std::shared_ptr<IndexedDataFrame> idf_;
};

TEST_F(IndexedDataFrameTest, CreateIndexByNameAndOrdinalAgree) {
  auto by_name =
      IndexedDataFrame::CreateIndex(df_, "k", "x").ValueOrDie();
  EXPECT_EQ(by_name.relation()->indexed_column(), 0);
  EXPECT_EQ(by_name.NumRows(), 500u);
}

TEST_F(IndexedDataFrameTest, CreateIndexRejectsBadColumn) {
  EXPECT_TRUE(
      IndexedDataFrame::CreateIndex(df_, 9, "x").status().IsIndexError());
  EXPECT_TRUE(
      IndexedDataFrame::CreateIndex(df_, "none", "x").status().IsKeyError());
}

TEST_F(IndexedDataFrameTest, CacheMarksHandle) {
  EXPECT_TRUE(idf_->cached());
  auto uncached = IndexedDataFrame::CreateIndex(df_, 0).ValueOrDie();
  EXPECT_FALSE(uncached.cached());
  EXPECT_TRUE(uncached.Cache().cached());
}

TEST_F(IndexedDataFrameTest, GetRowsReturnsAllRowsForKey) {
  RowVec rows = idf_->GetRows(Value(int64_t{7})).Collect().ValueOrDie();
  ASSERT_EQ(rows.size(), 10u);
  for (const Row& row : rows) EXPECT_EQ(row[0], Value(int64_t{7}));
}

TEST_F(IndexedDataFrameTest, GetRowsMissingKeyIsEmptyDataFrame) {
  EXPECT_EQ(idf_->GetRows(Value(int64_t{777})).Count().ValueOrDie(), 0u);
}

TEST_F(IndexedDataFrameTest, GetRowsComposesWithDataFrameOps) {
  // The lookup result is a regular DataFrame: filter and project it.
  auto result = idf_->GetRows(Value(int64_t{7}))
                    .Filter(Gt(Col("w"), Lit(Value(int64_t{100}))))
                    .ValueOrDie()
                    .Select({"payload"})
                    .ValueOrDie()
                    .Collect()
                    .ValueOrDie();
  for (const Row& row : result) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_TRUE(row[0].is_string());
  }
}

TEST_F(IndexedDataFrameTest, EqualityFilterIsRewrittenToIndexLookup) {
  auto filtered = idf_->ToDataFrame()
                      .Filter(Eq(Col("k"), Lit(Value(int64_t{3}))))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedLookup"), std::string::npos);
  EXPECT_NE(plan.find("IndexLookup"), std::string::npos);  // physical
  EXPECT_EQ(filtered.Count().ValueOrDie(), 10u);
}

TEST_F(IndexedDataFrameTest, ConjunctiveFilterKeepsResidual) {
  auto filtered = idf_->ToDataFrame()
                      .Filter(And(Eq(Col("k"), Lit(Value(int64_t{3}))),
                                  Gt(Col("w"), Lit(Value(int64_t{200})))))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedLookup"), std::string::npos);
  EXPECT_NE(plan.find("Filter"), std::string::npos);
  RowVec rows = filtered.Collect().ValueOrDie();
  for (const Row& row : rows) {
    EXPECT_EQ(row[0], Value(int64_t{3}));
    EXPECT_GT(row[2].AsInt64(), 200);
  }
  // Equivalent vanilla result.
  size_t expected = df_.Filter(And(Eq(Col("k"), Lit(Value(int64_t{3}))),
                                   Gt(Col("w"), Lit(Value(int64_t{200})))))
                        .ValueOrDie()
                        .Count()
                        .ValueOrDie();
  EXPECT_EQ(rows.size(), expected);
}

TEST_F(IndexedDataFrameTest, NonIndexedFilterFallsBackToScan) {
  auto filtered = idf_->ToDataFrame()
                      .Filter(Eq(Col("w"), Lit(Value(int64_t{10}))))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_EQ(plan.find("IndexedLookup"), std::string::npos);
  EXPECT_NE(plan.find("IndexedScan"), std::string::npos);  // full scan
  EXPECT_EQ(filtered.Count().ValueOrDie(), 1u);
}

TEST_F(IndexedDataFrameTest, InListOnIndexedColumnBecomesMultiKeyLookup) {
  // The desugared form of `k IN (3, 5, 777)` — an OR of equalities — is
  // rewritten to one multi-key index lookup.
  auto filtered =
      idf_->ToDataFrame()
          .Filter(Or(Or(Eq(Col("k"), Lit(Value(int64_t{3}))),
                        Eq(Col("k"), Lit(Value(int64_t{5})))),
                     Eq(Col("k"), Lit(Value(int64_t{777})))))  // miss
          .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedLookup"), std::string::npos) << plan;
  EXPECT_EQ(filtered.Count().ValueOrDie(), 20u);  // 10 each for 3 and 5
}

TEST_F(IndexedDataFrameTest, MixedOrDoesNotBecomeLookup) {
  // OR across different columns cannot use the index.
  auto filtered = idf_->ToDataFrame()
                      .Filter(Or(Eq(Col("k"), Lit(Value(int64_t{3}))),
                                 Eq(Col("w"), Lit(Value(int64_t{7})))))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_EQ(plan.find("IndexedLookup"), std::string::npos);
  EXPECT_EQ(filtered.Count().ValueOrDie(), 11u);
}

TEST_F(IndexedDataFrameTest, GetRowsMultiApi) {
  RowVec rows = idf_->GetRowsMulti({Value(int64_t{1}), Value(int64_t{2})})
                    .Collect()
                    .ValueOrDie();
  EXPECT_EQ(rows.size(), 20u);
  session_->metrics().Reset();
  idf_->GetRowsMulti({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{999})})
      .Collect()
      .ValueOrDie();
  EXPECT_EQ(session_->metrics().index_probes(), 3u);
  EXPECT_EQ(session_->metrics().index_hits(), 2u);
}

TEST_F(IndexedDataFrameTest, NonIndexedComparisonFusesIntoScanFilter) {
  // A single-column comparison that cannot use the index is executed as a
  // fused lazy-decoding scan-filter, not Filter-over-IndexedScan.
  auto filtered = idf_->ToDataFrame()
                      .Filter(Ge(Col("w"), Lit(Value(int64_t{400}))))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedScanFilter"), std::string::npos);
  EXPECT_EQ(filtered.Count().ValueOrDie(), 100u);  // w in [400, 500)
  // Results identical to the vanilla computation.
  RowVec vanilla = df_.Filter(Ge(Col("w"), Lit(Value(int64_t{400}))))
                       .ValueOrDie()
                       .Collect()
                       .ValueOrDie();
  RowVec fused = filtered.Collect().ValueOrDie();
  SortRows(&vanilla);
  SortRows(&fused);
  EXPECT_EQ(vanilla, fused);
}

TEST_F(IndexedDataFrameTest, DisjunctionCompilesAndFuses) {
  // An OR of comparisons on a non-indexed column compiles to an
  // encoded-row program and fuses into the lazy-decoding scan-filter.
  auto filtered = idf_->ToDataFrame()
                      .Filter(Or(Eq(Col("w"), Lit(Value(int64_t{1}))),
                                 Eq(Col("w"), Lit(Value(int64_t{2})))))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedScanFilter"), std::string::npos);
  EXPECT_NE(plan.find("(compiled)"), std::string::npos);
  EXPECT_EQ(filtered.Count().ValueOrDie(), 2u);
}

TEST_F(IndexedDataFrameTest, NonCompilablePredicateDoesNotFuse) {
  // LIKE has no encoded-row program; with nothing compilable the planner
  // falls back to the generic Filter over the scan — transparently, with
  // identical results.
  auto filtered = idf_->ToDataFrame()
                      .Filter(Like(Col("payload"), "p1%"))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_EQ(plan.find("IndexedScanFilter"), std::string::npos);
  // payload is "p" + i for i in [0, 500): "p1", "p10".."p19", "p100".."p199".
  EXPECT_EQ(filtered.Count().ValueOrDie(), 111u);
}

TEST_F(IndexedDataFrameTest, RangeFilterFallsBack) {
  auto filtered = idf_->ToDataFrame()
                      .Filter(Lt(Col("k"), Lit(Value(int64_t{5}))))
                      .ValueOrDie();
  std::string plan = filtered.Explain().ValueOrDie();
  EXPECT_EQ(plan.find("IndexedLookup"), std::string::npos);
  EXPECT_EQ(filtered.Count().ValueOrDie(), 50u);
}

TEST_F(IndexedDataFrameTest, JoinUsesIndexAsBuildSide) {
  auto probe_schema = Schema::Make({{"fk", TypeId::kInt64, false},
                                    {"tag", TypeId::kString, true}});
  RowVec probe_rows;
  for (int64_t i = 0; i < 5; ++i) {
    probe_rows.push_back({Value(i), Value("t" + std::to_string(i))});
  }
  auto probe =
      session_->CreateDataFrame(probe_schema, probe_rows, "probe").ValueOrDie();
  auto joined = idf_->Join(probe, "k", "fk").ValueOrDie();
  std::string plan = joined.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedJoin"), std::string::npos);
  EXPECT_NE(plan.find("IndexedEquiJoin"), std::string::npos);
  RowVec rows = joined.Collect().ValueOrDie();
  EXPECT_EQ(rows.size(), 50u);  // 5 keys x 10 rows each
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 5u);
    EXPECT_EQ(row[0], row[3]);  // k == fk; indexed columns come first
  }
}

TEST_F(IndexedDataFrameTest, JoinFromRegularSideAlsoUsesIndex) {
  auto probe_schema = Schema::Make({{"fk", TypeId::kInt64, false}});
  RowVec probe_rows = {{Value(int64_t{1})}, {Value(int64_t{2})}};
  auto probe =
      session_->CreateDataFrame(probe_schema, probe_rows, "probe").ValueOrDie();
  // probe JOIN indexed (indexed on the right side of the user's join).
  auto joined = probe.Join(idf_->ToDataFrame(), "fk", "k").ValueOrDie();
  std::string plan = joined.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedJoin"), std::string::npos);
  RowVec rows = joined.Collect().ValueOrDie();
  EXPECT_EQ(rows.size(), 20u);
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0], row[1]);  // probe columns first (original order)
  }
}

TEST_F(IndexedDataFrameTest, JoinOnNonIndexedKeyFallsBack) {
  auto probe_schema = Schema::Make({{"fk", TypeId::kInt64, false}});
  RowVec probe_rows = {{Value(int64_t{10})}};
  auto probe =
      session_->CreateDataFrame(probe_schema, probe_rows, "probe").ValueOrDie();
  auto joined = idf_->Join(probe, "w", "fk").ValueOrDie();
  std::string plan = joined.Explain().ValueOrDie();
  EXPECT_EQ(plan.find("IndexedJoin"), std::string::npos);
  EXPECT_EQ(joined.Count().ValueOrDie(), 1u);  // w==10 once
}

TEST_F(IndexedDataFrameTest, AppendRowsVisibleToSubsequentQueries) {
  RowVec extra;
  for (int i = 0; i < 7; ++i) {
    extra.push_back({Value(int64_t{3}), Value("new"), Value(int64_t{1000 + i})});
  }
  auto extra_df = session_->CreateDataFrame(schema_, extra, "extra").ValueOrDie();
  auto idf2 = idf_->AppendRows(extra_df).ValueOrDie();
  EXPECT_EQ(idf2.GetRows(Value(int64_t{3})).Count().ValueOrDie(), 17u);
  // Handles share the multi-versioned relation (paper: the cached frame
  // remains valid under appends).
  EXPECT_EQ(idf_->GetRows(Value(int64_t{3})).Count().ValueOrDie(), 17u);
  EXPECT_EQ(idf2.NumRows(), 507u);
}

TEST_F(IndexedDataFrameTest, AppendRowsSchemaMismatchRejected) {
  auto other_schema = Schema::Make({{"x", TypeId::kInt64, false}});
  auto other =
      session_->CreateDataFrame(other_schema, {{Value(int64_t{1})}}, "o")
          .ValueOrDie();
  EXPECT_TRUE(idf_->AppendRows(other).status().IsInvalidArgument());
}

TEST_F(IndexedDataFrameTest, ToDataFrameScanSeesEverything) {
  EXPECT_EQ(idf_->ToDataFrame().Count().ValueOrDie(), 500u);
  RowVec a = idf_->ToDataFrame().Collect().ValueOrDie();
  RowVec b = df_.Collect().ValueOrDie();
  SortRows(&a);
  SortRows(&b);
  EXPECT_EQ(a, b);
}

TEST_F(IndexedDataFrameTest, AggregationOverIndexedScan) {
  auto agg = idf_->ToDataFrame()
                 .GroupByAgg({"k"}, {CountStar("cnt")})
                 .ValueOrDie();
  RowVec rows = agg.Collect().ValueOrDie();
  EXPECT_EQ(rows.size(), 50u);
  for (const Row& row : rows) EXPECT_EQ(row[1], Value(int64_t{10}));
}

TEST_F(IndexedDataFrameTest, IndexOverheadRatioReported) {
  double ratio = idf_->IndexOverheadRatio();
  EXPECT_GT(ratio, 0.0);
  EXPECT_LT(ratio, 10.0);
}

TEST_F(IndexedDataFrameTest, ProjectionOverIndexedScanFusesColumnPruning) {
  auto projected = idf_->ToDataFrame().Select({"payload", "k"}).ValueOrDie();
  std::string plan = projected.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedScanProject"), std::string::npos) << plan;
  RowVec rows = projected.Collect().ValueOrDie();
  ASSERT_EQ(rows.size(), 500u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_TRUE(rows[0][0].is_string());
  EXPECT_TRUE(rows[0][1].is_int64());
  // Same rows as the vanilla projection.
  RowVec expected = df_.Select({"payload", "k"}).ValueOrDie().Collect()
                        .ValueOrDie();
  SortRows(&rows);
  SortRows(&expected);
  EXPECT_EQ(rows, expected);
}

TEST_F(IndexedDataFrameTest, FilterProjectOverIndexedScanFusesBoth) {
  auto q = idf_->ToDataFrame()
               .Filter(Gt(Col("w"), Lit(Value(int64_t{450}))))
               .ValueOrDie()
               .Select({"payload"})
               .ValueOrDie();
  std::string plan = q.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedScanFilter"), std::string::npos) << plan;
  EXPECT_NE(plan.find("pruned"), std::string::npos) << plan;
  RowVec rows = q.Collect().ValueOrDie();
  EXPECT_EQ(rows.size(), 49u);  // w in (450, 500)
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_TRUE(row[0].is_string());
  }
}

TEST_F(IndexedDataFrameTest, ComputedProjectionDoesNotFuse) {
  auto q = idf_->ToDataFrame()
               .SelectExprs({Add(Col("w"), Lit(Value(int64_t{1})))}, {"w1"})
               .ValueOrDie();
  std::string plan = q.Explain().ValueOrDie();
  EXPECT_EQ(plan.find("IndexedScanProject"), std::string::npos);
  EXPECT_EQ(q.Count().ValueOrDie(), 500u);
}

TEST_F(IndexedDataFrameTest, PinnedViewFreezesAVersion) {
  auto pinned = idf_->Pin();
  uint64_t v0 = pinned.version();
  size_t rows_before = pinned.NumRows();
  EXPECT_EQ(rows_before, 500u);

  // Grow the live relation.
  RowVec extra;
  for (int i = 0; i < 50; ++i) {
    extra.push_back({Value(int64_t{3}), Value("late"), Value(int64_t{5000 + i})});
  }
  ASSERT_TRUE(idf_->AppendRowsDirect(extra).ok());

  // The pin is frozen; the live handle sees the appends.
  EXPECT_EQ(pinned.NumRows(), rows_before);
  EXPECT_EQ(pinned.GetRows(Value(int64_t{3})).size(), 10u);
  EXPECT_EQ(idf_->GetRows(Value(int64_t{3})).Count().ValueOrDie(), 60u);
  EXPECT_GT(idf_->relation()->version(), v0);

  // The frozen scan is a composable DataFrame.
  auto df = pinned.ToDataFrame();
  EXPECT_EQ(df.Count().ValueOrDie(), rows_before);
  auto filtered =
      df.Filter(Eq(Col("payload"), Lit(Value("late")))).ValueOrDie();
  EXPECT_EQ(filtered.Count().ValueOrDie(), 0u);  // "late" rows are post-pin
  // EXPLAIN names the pinned version the plan reads.
  std::string plan = df.Explain().ValueOrDie();
  EXPECT_NE(plan.find("@v" + std::to_string(v0)), std::string::npos) << plan;
  // The pinned relation takes the same indexed paths as the live one: a
  // key equality is a point lookup on the frozen version.
  auto by_key = df.Filter(Eq(Col("k"), Lit(Value(int64_t{3})))).ValueOrDie();
  EXPECT_EQ(by_key.Count().ValueOrDie(), 10u);
  EXPECT_NE(by_key.Explain().ValueOrDie().find("IndexLookup"), std::string::npos);
}

TEST_F(IndexedDataFrameTest, SuccessivePinsSeeSuccessiveVersions) {
  auto p0 = idf_->Pin();
  ASSERT_TRUE(idf_->AppendRowsDirect(
                      {{Value(int64_t{1}), Value("x"), Value(int64_t{1})}})
                  .ok());
  auto p1 = idf_->Pin();
  ASSERT_TRUE(idf_->AppendRowsDirect(
                      {{Value(int64_t{1}), Value("y"), Value(int64_t{2})}})
                  .ok());
  auto p2 = idf_->Pin();
  EXPECT_EQ(p0.NumRows(), 500u);
  EXPECT_EQ(p1.NumRows(), 501u);
  EXPECT_EQ(p2.NumRows(), 502u);
  EXPECT_LT(p0.version(), p1.version());
  EXPECT_LT(p1.version(), p2.version());
  // Pinned views can be joined against live data.
  auto joined = p1.ToDataFrame()
                    .Join(idf_->ToDataFrame(), "k", "k")
                    .ValueOrDie();
  EXPECT_GT(joined.Count().ValueOrDie(), 0u);
}

TEST_F(IndexedDataFrameTest, MetricsShowIndexProbes) {
  session_->metrics().Reset();
  idf_->GetRows(Value(int64_t{1})).Collect().ValueOrDie();
  EXPECT_GE(session_->metrics().index_probes(), 1u);
  EXPECT_GE(session_->metrics().index_hits(), 1u);
}

TEST_F(IndexedDataFrameTest, IndexedJoinShufflesOnlyProbeSide) {
  // Large probe forces the shuffled path; the build side must move nothing.
  RowVec probe_rows;
  auto probe_schema = Schema::Make({{"fk", TypeId::kInt64, false},
                                    {"pad", TypeId::kString, true}});
  for (int64_t i = 0; i < 2000; ++i) {
    probe_rows.push_back({Value(i % 50), Value(std::string(5000, 'x'))});
  }
  auto probe =
      session_->CreateDataFrame(probe_schema, probe_rows, "bigprobe").ValueOrDie();
  auto joined = idf_->Join(probe, "k", "fk").ValueOrDie();
  std::string plan = joined.Explain().ValueOrDie();
  EXPECT_NE(plan.find("shuffled probe"), std::string::npos);
  session_->metrics().Reset();
  EXPECT_EQ(joined.Count().ValueOrDie(), 2000u * 10);
  // Shuffled rows ~ probe size (plus nothing for the build side).
  EXPECT_GE(session_->metrics().shuffled_rows(), 2000u);
  EXPECT_LT(session_->metrics().shuffled_rows(), 2000u + 500u);
}

}  // namespace
}  // namespace idf
