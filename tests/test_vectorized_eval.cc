// Directed tests for batch-at-a-time vectorized predicate evaluation
// (sql/vectorized_eval.h, DESIGN.md §12) and its operator integration.
// The kernel must reproduce the row-at-a-time EvalEncoded tri-state
// bit-for-bit lane by lane (including NULL, NaN, -0.0, and type-widening
// edges), through both lane loaders (gathered payloads and a store run's
// column images), and the fused operators — scan-filter, scan-aggregate, and the
// join build-side filter — must return the rows the same query returns on
// an unindexed session (interpreted Expr::Eval) while reporting the vector
// metrics. Random-tree coverage lives in test_property_fuzz.cc.
#include "sql/vectorized_eval.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "indexed/indexed_operators.h"
#include "indexed/indexed_partition.h"
#include "reference_walk.h"
#include "sql/session.h"
#include "storage/row_batch.h"

namespace idf {
namespace {

// ---------------------------------------------------------------------------
// Kernel: EvalBatch / FilterBatch vs EvalEncoded
// ---------------------------------------------------------------------------

class VectorizedEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Make({{"i64", TypeId::kInt64, true},
                            {"i32", TypeId::kInt32, true},
                            {"f64", TypeId::kFloat64, true},
                            {"b", TypeId::kBool, true},
                            {"s", TypeId::kString, true},
                            {"ts", TypeId::kTimestamp, true}});
  }

  std::vector<uint8_t> Encode(const Row& row) {
    std::vector<uint8_t> out;
    EXPECT_TRUE(EncodeRow(*schema_, row, &out).ok());
    return out;
  }

  // Compiles `expr` (must succeed) and checks EvalBatch lane-for-lane and
  // FilterBatch's selection vector against row-at-a-time EvalEncoded, on
  // gathered payloads and on the runs of a store holding the same rows.
  void ExpectBatchAgrees(const ExprPtr& expr, const RowVec& rows) {
    ExprPtr bound = BindExpr(expr, *schema_).ValueOrDie();
    std::optional<CompiledPredicate> compiled =
        CompiledPredicate::Compile(bound, *schema_);
    ASSERT_TRUE(compiled.has_value()) << bound->ToString();
    std::vector<std::vector<uint8_t>> bufs;
    bufs.reserve(rows.size());
    for (const Row& row : rows) bufs.push_back(Encode(row));
    std::vector<const uint8_t*> ptrs;
    ptrs.reserve(bufs.size());
    for (const auto& b : bufs) ptrs.push_back(b.data());

    VectorizedPredicate vec(*compiled);
    VectorScratch scratch;
    std::vector<uint8_t> tri(rows.size());
    vec.EvalBatch(RowRun(ptrs.data(), ptrs.size()), tri.data(), &scratch);
    std::vector<uint32_t> sel(rows.size());
    const size_t kept =
        vec.FilterBatch(RowRun(ptrs.data(), ptrs.size()), sel.data(), &scratch);
    size_t want_kept = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      const TriBool want = compiled->EvalEncoded(ptrs[r]);
      ASSERT_EQ(static_cast<int>(tri[r]), static_cast<int>(want))
          << bound->ToString() << " row " << r;
      if (want == TriBool::kTrue) {
        ASSERT_LT(want_kept, kept) << bound->ToString();
        EXPECT_EQ(sel[want_kept], r) << bound->ToString();
        ++want_kept;
      }
    }
    EXPECT_EQ(kept, want_kept) << bound->ToString();

    RowBatchStore store(*schema_, 4096, 1024);
    for (const Row& row : rows) {
      ASSERT_TRUE(store.AppendRow(*schema_, row, PackedPointer::Null(), 0).ok());
    }
    size_t base = 0;
    store.ForEachRun(0, rows.size(), [&](const RowRun& run) {
      std::vector<uint8_t> dense(run.count);
      vec.EvalBatch(run, dense.data(), &scratch);
      std::vector<uint32_t> dense_sel(run.count);
      const size_t dense_kept = vec.FilterBatch(run, dense_sel.data(), &scratch);
      size_t j = 0;
      for (size_t i = 0; i < run.count; ++i) {
        ASSERT_EQ(dense[i], tri[base + i])
            << bound->ToString() << " row " << base + i << " (column images)";
        if (dense[i] == static_cast<uint8_t>(TriBool::kTrue)) {
          ASSERT_LT(j, dense_kept);
          EXPECT_EQ(dense_sel[j++], i);
        }
      }
      EXPECT_EQ(dense_kept, j) << bound->ToString();
      base += run.count;
    });
    EXPECT_EQ(base, rows.size());
  }

  // Edge-heavy rows: NULL in every column, both zero signs, NaN, int32/64
  // extremes, empty and high-bit strings.
  RowVec SampleRows() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {
        {Value(int64_t{0}), Value(int32_t{0}), Value(0.0), Value(false),
         Value(""), Value(int64_t{0})},
        {Value(int64_t{-3}), Value(int32_t{-3}), Value(-0.0), Value(true),
         Value("a"), Value(int64_t{-3})},
        {Value(int64_t{7}), Value(int32_t{7}), Value(2.5), Value(true),
         Value("ab"), Value(int64_t{7})},
        {Value(std::numeric_limits<int64_t>::min()),
         Value(std::numeric_limits<int32_t>::min()), Value(nan), Value(false),
         Value("\x80z"), Value(std::numeric_limits<int64_t>::max())},
        {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
         Value::Null(), Value::Null()},
        {Value(int64_t{1} << 40), Value(int32_t{1}), Value(1.0), Value(true),
         Value("abc"), Value(int64_t{1})},
        {Value::Null(), Value(int32_t{2}), Value(-1.0), Value::Null(),
         Value("b"), Value::Null()},
    };
  }

  SchemaPtr schema_;
};

TEST_F(VectorizedEvalTest, AllComparisonOpsOnAllTypes) {
  const RowVec rows = SampleRows();
  const char* cols[] = {"i64", "i32", "f64", "b", "s", "ts"};
  const Value lits[] = {Value(int64_t{0}), Value(int32_t{-3}), Value(0.0),
                        Value(true),       Value("ab"),        Value(int64_t{7})};
  for (int c = 0; c < 6; ++c) {
    ExpectBatchAgrees(Eq(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Ne(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Lt(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Le(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Gt(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Ge(Col(cols[c]), Lit(lits[c])), rows);
  }
}

TEST_F(VectorizedEvalTest, KleeneLaneLogicWithNulls) {
  const RowVec rows = SampleRows();
  ExpectBatchAgrees(IsNull(Col("f64")), rows);
  ExpectBatchAgrees(IsNotNull(Col("s")), rows);
  ExpectBatchAgrees(Col("b"), rows);
  ExpectBatchAgrees(Not(Col("b")), rows);
  ExpectBatchAgrees(Lit(Value::Null()), rows);
  // NULL AND FALSE = FALSE, NULL OR TRUE = TRUE: the lane kernels must
  // implement full Kleene logic, not null-propagation.
  ExpectBatchAgrees(And(Col("b"), Lt(Col("i64"), Lit(Value(int64_t{5})))), rows);
  ExpectBatchAgrees(Or(Col("b"), Ge(Col("f64"), Lit(Value(0.0)))), rows);
  ExpectBatchAgrees(
      Not(And(Or(Col("b"), IsNull(Col("i32"))),
              Ne(Col("s"), Lit(Value("a"))))),
      rows);
}

TEST_F(VectorizedEvalTest, IntColumnVsDoubleLiteralWidens) {
  const RowVec rows = SampleRows();
  ExpectBatchAgrees(Lt(Col("i64"), Lit(Value(0.5))), rows);
  ExpectBatchAgrees(Ge(Col("i32"), Lit(Value(-2.5))), rows);
  ExpectBatchAgrees(Eq(Col("i64"), Lit(Value(0.0))), rows);
}

TEST_F(VectorizedEvalTest, NaNAndNegativeZeroMatchScalar) {
  const RowVec rows = SampleRows();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectBatchAgrees(Eq(Col("f64"), Lit(Value(nan))), rows);
  ExpectBatchAgrees(Lt(Col("f64"), Lit(Value(nan))), rows);
  ExpectBatchAgrees(Ge(Col("f64"), Lit(Value(nan))), rows);
  // -0.0 == 0.0 under IEEE compare; both signs must land identically.
  ExpectBatchAgrees(Eq(Col("f64"), Lit(Value(-0.0))), rows);
  ExpectBatchAgrees(Le(Col("f64"), Lit(Value(-0.0))), rows);
}

TEST_F(VectorizedEvalTest, CrossesInternalBatchBoundary) {
  RowVec rows;
  const size_t n = 2 * VectorizedPredicate::kBatchRows + 37;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(i % 100);
    rows.push_back({i % 13 == 0 ? Value::Null() : Value(v),
                    Value(static_cast<int32_t>(i % 7)), Value(0.5 * v),
                    Value(i % 2 == 0), Value("s" + std::to_string(i % 5)),
                    Value(static_cast<int64_t>(i))});
  }
  ExpectBatchAgrees(And(Lt(Col("i64"), Lit(Value(int64_t{60}))),
                        Ne(Col("s"), Lit(Value("s3")))),
                    rows);
}

TEST_F(VectorizedEvalTest, CrossesDirectoryChunkBoundary) {
  // Enough rows for several store runs, the last one partly filled.
  RowVec rows;
  const size_t n = 2 * RowBatchStore::kDirectoryChunkRows + 99;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(i % 100) - 50;
    rows.push_back({i % 13 == 0 ? Value::Null() : Value(v),
                    i % 9 == 0 ? Value::Null() : Value(static_cast<int32_t>(-v)),
                    Value(0.5 * v), Value(i % 2 == 0), Value("s" + std::to_string(i % 5)),
                    Value(static_cast<int64_t>(i))});
  }
  ExpectBatchAgrees(Or(Lt(Col("i64"), Lit(Value(int64_t{-20}))),
                       And(Ge(Col("i32"), Lit(Value(int32_t{10}))), Col("b"))),
                    rows);
  ExpectBatchAgrees(Gt(Col("ts"), Lit(Value(int64_t{1500}))), rows);
}

TEST_F(VectorizedEvalTest, CompactedGenerationImagesMatchPayloads) {
  // Compaction rewrites a partition into a fresh generation in chain
  // order; its store must mirror the rewritten payloads, and the filter
  // over its runs must match row-at-a-time evaluation.
  EngineConfig cfg;
  cfg.row_batch_bytes = 1024;
  cfg.max_row_bytes = 512;
  IndexedPartition part(schema_, 0, cfg);
  const size_t n = 2 * RowBatchStore::kDirectoryChunkRows + 500;
  for (size_t i = 0; i < n; ++i) {
    const int64_t key = static_cast<int64_t>(i % 37);
    ASSERT_TRUE(part.Append({i % 41 == 0 ? Value::Null() : Value(key),
                             i % 7 == 0 ? Value::Null() : Value(static_cast<int32_t>(-key)),
                             i % 3 == 0 ? Value(-0.0) : Value(0.25 * static_cast<double>(i)),
                             Value(i % 4 == 0), Value("c" + std::to_string(i % 11)),
                             Value(static_cast<int64_t>(i))})
                    .ok());
  }
  const PartitionGenerationPtr before = part.Snapshot().generation();
  IndexedPartition::CompactionResult result;
  ASSERT_TRUE(part.CompactLocked(&result).ok());
  IndexedPartition::View view = part.Snapshot();
  ASSERT_NE(view.generation(), before);
  ASSERT_EQ(view.num_rows(), n);
  EXPECT_EQ(ExpectImagesMatchPayloads(part.store(), *schema_, 0, n), n);

  ExprPtr bound = BindExpr(And(Le(Col("i32"), Lit(Value(int32_t{-10}))),
                               Or(Col("b"), Lt(Col("f64"), Lit(Value(100.0))))),
                           *schema_)
                      .ValueOrDie();
  const CompiledPredicate compiled = *CompiledPredicate::Compile(bound, *schema_);
  VectorizedPredicate vec(compiled);
  VectorScratch scratch;
  size_t seen = 0;
  view.ForEachRun(0, n, [&](const RowRun& run) {
    std::vector<uint8_t> tri(run.count);
    vec.EvalBatch(run, tri.data(), &scratch);
    for (size_t i = 0; i < run.count; ++i) {
      ASSERT_EQ(tri[i], static_cast<uint8_t>(compiled.EvalEncoded(run.payloads[i])))
          << "row " << seen + i;
    }
    seen += run.count;
  });
  EXPECT_EQ(seen, n);
}

TEST_F(VectorizedEvalTest, SelectionVectorAllAndNone) {
  RowVec rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value(i), Value(int32_t{1}), Value(1.0), Value(true),
                    Value("x"), Value(i)});
  }
  ExpectBatchAgrees(Ge(Col("i64"), Lit(Value(int64_t{0}))), rows);   // all
  ExpectBatchAgrees(Lt(Col("i64"), Lit(Value(int64_t{0}))), rows);   // none
  ExpectBatchAgrees(Eq(Col("i64"), Lit(Value(int64_t{50}))), rows);  // one
}

TEST_F(VectorizedEvalTest, StackDepthReflectsProgramShape) {
  ExprPtr flat = BindExpr(Lt(Col("i64"), Lit(Value(int64_t{1}))), *schema_)
                     .ValueOrDie();
  VectorizedPredicate vec1(*CompiledPredicate::Compile(flat, *schema_));
  EXPECT_EQ(vec1.stack_depth(), 1u);

  // A right-nested conjunction pushes both operands before combining.
  ExprPtr nested =
      BindExpr(And(Col("b"), And(Col("b"), And(Col("b"), Col("b")))), *schema_)
          .ValueOrDie();
  VectorizedPredicate vec2(*CompiledPredicate::Compile(nested, *schema_));
  EXPECT_GE(vec2.stack_depth(), 2u);
}

// ---------------------------------------------------------------------------
// Operator integration: vectorized on vs off must be row-identical, and
// the fused read paths must report the vector counters.
// ---------------------------------------------------------------------------

class VectorizedOperatorTest : public ::testing::Test {
 protected:
  static SessionPtr MakeSession() {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    cfg.morsel_rows = 512;
    return Session::Make(cfg).ValueOrDie();
  }

  void SetUp() override {
    session_ = MakeSession();
    ref_ = MakeSession();
    schema_ = Schema::Make({{"k", TypeId::kInt64, false},
                            {"g", TypeId::kInt64, false},
                            {"v", TypeId::kInt64, true},
                            {"d", TypeId::kFloat64, true},
                            {"s", TypeId::kString, false}});
    rows_.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      rows_.push_back({Value(i), Value(i % 64),
                       i % 11 == 0 ? Value::Null() : Value(i % 1000),
                       i % 13 == 0 ? Value::Null() : Value(0.5 * (i % 97)),
                       Value("r" + std::to_string(i % 7))});
    }
    auto df = session_->CreateDataFrame(schema_, rows_, "t").ValueOrDie();
    rel_ = IndexedDataFrame::CreateIndex(df, 0, "t_by_k").ValueOrDie()
               .relation();
    pred_ = BindExpr(Predicate(), *schema_).ValueOrDie();
  }

  static ExprPtr Predicate() {
    return And(Lt(Col("v"), Lit(Value(int64_t{700}))),
               Ne(Col("s"), Lit(Value("r3"))));
  }

  PushedFilter Pushed() {
    return PushedFilter::FromSplit(SplitForCompilation(pred_, *schema_));
  }

  /// The same rows as an unindexed table of the reference session, whose
  /// plans evaluate every expression through the interpreter.
  DataFrame Reference() {
    return ref_->CreateDataFrame(schema_, rows_, "t").ValueOrDie();
  }

  static RowVec Sorted(RowVec rows) {
    SortRows(&rows);
    return rows;
  }

  static constexpr int64_t kRows = 20000;
  SessionPtr session_;
  SessionPtr ref_;  // no index: the interpreted reference
  SchemaPtr schema_;
  RowVec rows_;
  IndexedRelationPtr rel_;
  ExprPtr pred_;
};

TEST_F(VectorizedOperatorTest, FilterScanMatchesScalarAndCountsMetrics) {
  IndexedScanFilterOp scan(rel_, pred_, Pushed());
  session_->metrics().Reset();
  RowVec fused = CollectRows(scan.Execute(session_->exec()).ValueOrDie());
  const auto& m = session_->metrics();
  EXPECT_GT(m.rows_filtered_vectorized(), 0u);
  EXPECT_GT(m.vector_batches_evaluated(), 0u);
  EXPECT_EQ(m.rows_filtered_vectorized(), m.rows_filtered_encoded());

  RowVec expected = Reference().Filter(Predicate()).ValueOrDie().Collect().ValueOrDie();
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Sorted(fused), Sorted(expected));
  EXPECT_EQ(m.rows_filtered_encoded(), static_cast<uint64_t>(kRows) - expected.size());
}

TEST_F(VectorizedOperatorTest, ResidualOnlyFilterScanSendsEveryRowToTheResidual) {
  // No compiled part: the scan driver keeps every row for the residual.
  PushedFilter residual_only;
  residual_only.residual = pred_;
  IndexedScanFilterOp scan(rel_, pred_, residual_only);
  session_->metrics().Reset();
  RowVec fused = CollectRows(scan.Execute(session_->exec()).ValueOrDie());
  EXPECT_EQ(session_->metrics().rows_filtered_encoded(), 0u);
  EXPECT_EQ(session_->metrics().vector_batches_evaluated(), 0u);
  EXPECT_EQ(session_->metrics().rows_scanned(), static_cast<uint64_t>(kRows));

  RowVec expected = Reference().Filter(Predicate()).ValueOrDie().Collect().ValueOrDie();
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Sorted(fused), Sorted(expected));
}

TEST_F(VectorizedOperatorTest, GroupedFusedAggregateMatchesScalar) {
  auto aggs_over = [](const auto& arg) {
    return std::vector<AggSpec>{CountStar("cnt"), SumOf(arg("v"), "sv"),
                                AvgOf(arg("d"), "ad"), MinOf(arg("v"), "mn"),
                                MaxOf(arg("s"), "mx")};
  };
  std::vector<ExprPtr> groups = {BindExpr(Col("g"), *schema_).ValueOrDie()};
  SchemaPtr out = Schema::Make({{"g", TypeId::kInt64, false},
                                {"cnt", TypeId::kInt64, false},
                                {"sv", TypeId::kInt64, true},
                                {"ad", TypeId::kFloat64, true},
                                {"mn", TypeId::kInt64, true},
                                {"mx", TypeId::kString, true}});
  IndexedScanAggregateOp agg(
      rel_, pred_, Pushed(), groups,
      aggs_over([&](const char* c) { return BindExpr(Col(c), *schema_).ValueOrDie(); }),
      out);
  session_->metrics().Reset();
  RowVec fused = CollectRows(agg.Execute(session_->exec()).ValueOrDie());
  EXPECT_GT(session_->metrics().rows_filtered_vectorized(), 0u);
  EXPECT_GT(session_->metrics().rows_aggregated_encoded(), 0u);

  RowVec expected = Reference()
                        .Filter(Predicate())
                        .ValueOrDie()
                        .Aggregate({Col("g")},
                                   aggs_over([](const char* c) { return Col(c); }))
                        .ValueOrDie()
                        .Collect()
                        .ValueOrDie();
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Sorted(fused), Sorted(expected));  // doubles are exact sums of halves
}

TEST_F(VectorizedOperatorTest, UngroupedFusedAggregateUsesLaneFastPath) {
  auto aggs_over = [](const auto& arg) {
    return std::vector<AggSpec>{CountStar("cnt"),    SumOf(arg("v"), "sv"),
                                SumOf(arg("d"), "sd"), AvgOf(arg("d"), "ad"),
                                MinOf(arg("v"), "mn"), MaxOf(arg("v"), "mx")};
  };
  SchemaPtr out = Schema::Make({{"cnt", TypeId::kInt64, false},
                                {"sv", TypeId::kInt64, true},
                                {"sd", TypeId::kFloat64, true},
                                {"ad", TypeId::kFloat64, true},
                                {"mn", TypeId::kInt64, true},
                                {"mx", TypeId::kInt64, true}});
  IndexedScanAggregateOp agg(
      rel_, pred_, Pushed(), {},
      aggs_over([&](const char* c) { return BindExpr(Col(c), *schema_).ValueOrDie(); }),
      out);
  session_->metrics().Reset();
  RowVec fused = CollectRows(agg.Execute(session_->exec()).ValueOrDie());
  // Every surviving row accumulates straight off the payload lanes.
  EXPECT_GT(session_->metrics().rows_filtered_vectorized(), 0u);
  EXPECT_GT(session_->metrics().rows_aggregated_encoded(), 0u);

  RowVec expected = Reference()
                        .Filter(Predicate())
                        .ValueOrDie()
                        .Aggregate({}, aggs_over([](const char* c) { return Col(c); }))
                        .ValueOrDie()
                        .Collect()
                        .ValueOrDie();
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused, expected);
}

TEST_F(VectorizedOperatorTest, JoinBuildFilterMatchesScalarOnAllProbePaths) {
  // Duplicate build keys give multi-link chains, so one probe finds several
  // build candidates; probe keys cycle past the build domain, so some miss.
  RowVec extra;
  for (int64_t i = 0; i < 3000; ++i) {
    extra.push_back({Value(i % 500), Value(i % 64), Value(i), Value(0.5 * i),
                     Value("x" + std::to_string(i % 5))});
  }
  ASSERT_TRUE(rel_->AppendRows(session_->exec(), extra).ok());
  RowVec build_rows = rows_;
  build_rows.insert(build_rows.end(), extra.begin(), extra.end());
  DataFrame ref_build =
      ref_->CreateDataFrame(schema_, build_rows, "t").ValueOrDie();

  SchemaPtr probe_schema = Schema::Make(
      {{"fk", TypeId::kInt64, false}, {"seq", TypeId::kInt64, false}});
  RowVec probe_rows;
  for (int64_t i = 0; i < 6000; ++i) {
    probe_rows.push_back({Value((i * 7) % (kRows + 200)), Value(i)});
  }
  DataFrame probe_df =
      session_->CreateDataFrame(probe_schema, probe_rows, "probe").ValueOrDie();
  auto probe_op = session_->PlanQuery(probe_df.plan()).ValueOrDie();
  DataFrame ref_probe =
      ref_->CreateDataFrame(probe_schema, probe_rows, "probe").ValueOrDie();

  auto build_pred = [] { return Lt(Col("g"), Lit(Value(int64_t{32}))); };
  ExprPtr bound_pred = BindExpr(build_pred(), *schema_).ValueOrDie();
  PushedFilter compiled =
      PushedFilter::FromSplit(SplitForCompilation(bound_pred, *schema_));
  ASSERT_TRUE(compiled.compiled.has_value());
  PushedFilter residual_only;
  residual_only.residual = bound_pred;
  SchemaPtr out_schema = Schema::Concat(*schema_, *probe_schema);

  // The non-column key (`fk + 0`) is the one the shuffled source evaluates
  // on a decoded row instead of decoding the key column alone.
  auto column_key = [] { return Col("fk"); };
  auto expr_key = [] { return Add(Col("fk"), Lit(Value(int64_t{0}))); };
  RowVec expected = Sorted(ref_build.Filter(build_pred())
                               .ValueOrDie()
                               .Join(ref_probe, Col("k"), column_key())
                               .ValueOrDie()
                               .Collect()
                               .ValueOrDie());
  ASSERT_FALSE(expected.empty());

  for (bool broadcast : {true, false}) {
    for (bool vectorized : {true, false}) {
      for (bool by_column : {true, false}) {
        const std::string name = std::string(broadcast ? "broadcast" : "shuffled") +
                                 (vectorized ? " compiled" : " residual-only") +
                                 (by_column ? " fk" : " fk+0");
        ExprPtr probe_key =
            BindExpr(by_column ? column_key() : expr_key(), *probe_schema)
                .ValueOrDie();
        IndexedJoinOp join(rel_, probe_op, probe_key, /*indexed_on_left=*/true,
                           broadcast, out_schema,
                           vectorized ? compiled : residual_only);
        session_->metrics().Reset();
        RowVec rows = CollectRows(join.Execute(session_->exec()).ValueOrDie());
        EXPECT_EQ(Sorted(std::move(rows)), expected) << name;
        const auto& m = session_->metrics();
        EXPECT_EQ(m.index_probes(), probe_rows.size()) << name;
        if (vectorized) {
          EXPECT_GT(m.rows_filtered_vectorized(), 0u) << name;
        } else {
          EXPECT_EQ(m.rows_filtered_encoded(), 0u) << name;
          EXPECT_EQ(m.vector_batches_evaluated(), 0u) << name;
        }
        // Only a shuffled probe keyed by a column skips decoding the probe
        // rows that never match (decodes_avoided also counts build rows
        // the compiled filter rejected).
        if (!broadcast && by_column) {
          EXPECT_GT(m.decodes_avoided(), m.rows_filtered_encoded()) << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace idf
