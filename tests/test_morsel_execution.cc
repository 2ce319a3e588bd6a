// Morsel-driven execution tests: a skewed join must split its hot
// partition into multiple morsels (intra-partition parallelism) while
// producing exactly the rows the serial engine produced, and the fused
// scans must report their morsel dispatch.
#include <map>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "indexed/indexed_operators.h"
#include "sql/session.h"

namespace idf {
namespace {

class MorselExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    cfg.morsel_rows = 512;  // small grain so modest inputs split
    session_ = Session::Make(cfg).ValueOrDie();
    build_schema_ = Schema::Make({{"k", TypeId::kInt64, false},
                                  {"name", TypeId::kString, false}});
    RowVec build_rows;
    for (int64_t i = 0; i < 100; ++i) {
      build_rows.push_back({Value(i), Value("b" + std::to_string(i))});
    }
    auto df =
        session_->CreateDataFrame(build_schema_, build_rows, "build").ValueOrDie();
    rel_ = IndexedDataFrame::CreateIndex(df, 0, "build_by_k").ValueOrDie()
               .relation();
    probe_schema_ = Schema::Make({{"fk", TypeId::kInt64, false},
                                  {"seq", TypeId::kInt64, false}});
  }

  /// ~90% of probe keys hit one build key (one hot index partition).
  DataFrame MakeSkewedProbe(size_t n) {
    RowVec rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      int64_t fk = (i % 10 == 0) ? static_cast<int64_t>(i % 100) : 7;
      rows.push_back({Value(fk), Value(static_cast<int64_t>(i))});
    }
    return session_->CreateDataFrame(probe_schema_, rows, "probe").ValueOrDie();
  }

  Result<PartitionVec> RunJoin(DataFrame probe, bool broadcast_probe) {
    auto probe_op = session_->PlanQuery(probe.plan()).ValueOrDie();
    SchemaPtr out_schema = Schema::Concat(*rel_->schema(), *probe_schema_);
    ExprPtr probe_key = BindExpr(Col("fk"), *probe_schema_).ValueOrDie();
    IndexedJoinOp join(rel_, probe_op, probe_key, /*indexed_on_left=*/true,
                       broadcast_probe, out_schema);
    return join.Execute(session_->exec());
  }

  SessionPtr session_;
  SchemaPtr build_schema_;
  SchemaPtr probe_schema_;
  IndexedRelationPtr rel_;
};

TEST_F(MorselExecutionTest, SkewedShuffledJoinIsCorrectAndSplitsHotPartition) {
  constexpr size_t kProbeRows = 20000;
  DataFrame probe = MakeSkewedProbe(kProbeRows);
  session_->metrics().Reset();
  PartitionVec parts = RunJoin(probe, /*broadcast_probe=*/false).ValueOrDie();

  // Every probe row matches exactly one build row.
  RowVec rows = CollectRows(parts);
  ASSERT_EQ(rows.size(), kProbeRows);
  std::map<int64_t, size_t> per_key;
  for (const Row& row : rows) {
    // Layout: [k, name, fk, seq]; the join key must match on both sides.
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0], row[2]);
    ++per_key[row[0].int64_value()];
  }
  EXPECT_EQ(per_key[7], kProbeRows - kProbeRows / 10);

  // The hot partition (key 7 holds ~90% of the rows) must have been split
  // into multiple morsels rather than processed as one serial task.
  const auto& m = session_->metrics();
  EXPECT_GT(m.morsels_dispatched(),
            static_cast<uint64_t>(session_->exec().num_partitions()));
  // The probe side crossed the exchange encoded.
  EXPECT_GT(m.shuffle_encoded_bytes(), 0u);
  EXPECT_EQ(m.index_probes(), kProbeRows);
  EXPECT_EQ(m.index_hits(), kProbeRows);
}

TEST_F(MorselExecutionTest, BroadcastJoinMatchesShuffledJoinRowSet) {
  DataFrame probe = MakeSkewedProbe(5000);
  RowVec shuffled = CollectRows(RunJoin(probe, false).ValueOrDie());
  RowVec broadcast = CollectRows(RunJoin(probe, true).ValueOrDie());
  SortRows(&shuffled);
  SortRows(&broadcast);
  EXPECT_EQ(shuffled, broadcast);
}

TEST_F(MorselExecutionTest, ShuffledJoinAvoidsDecodingMissedProbeRows) {
  // Probe keys outside the build domain: every probe misses, and with a
  // bound column-ref key the full probe row is never materialized. Any
  // shuffled probe, however small, crosses the exchange encoded.
  RowVec rows;
  for (int64_t i = 0; i < 4000; ++i) {
    rows.push_back({Value(i + 1000), Value(i)});
  }
  DataFrame probe =
      session_->CreateDataFrame(probe_schema_, rows, "miss_probe").ValueOrDie();
  session_->metrics().Reset();
  PartitionVec parts = RunJoin(probe, /*broadcast_probe=*/false).ValueOrDie();
  EXPECT_EQ(TotalRows(parts), 0u);
  EXPECT_EQ(session_->metrics().decodes_avoided(), 4000u);
  EXPECT_GT(session_->metrics().shuffle_encoded_bytes(), 0u);
}

TEST_F(MorselExecutionTest, FusedFilterScanDispatchesMorsels) {
  // Grow the build side so the scan exceeds one 512-row morsel.
  RowVec extra;
  for (int64_t i = 0; i < 5000; ++i) {
    extra.push_back({Value(i % 100), Value("x" + std::to_string(i))});
  }
  ASSERT_TRUE(rel_->AppendRows(session_->exec(), extra).ok());

  ExprPtr pred =
      BindExpr(Gt(Col("k"), Lit(Value(int64_t{49}))), *build_schema_).ValueOrDie();
  IndexedScanFilterOp scan(rel_, pred,
                           PushedFilter::FromSplit(
                               SplitForCompilation(pred, *build_schema_)));
  session_->metrics().Reset();
  PartitionVec parts = scan.Execute(session_->exec()).ValueOrDie();
  // 100-row seed + 5000 extra, keys uniform over 0..99: half pass.
  EXPECT_EQ(TotalRows(parts), 5100u / 2);
  EXPECT_GT(session_->metrics().morsels_dispatched(), 1u);
  EXPECT_EQ(session_->metrics().rows_scanned(), 5100u);
}

TEST_F(MorselExecutionTest, MultiKeyLookupSplitsAcrossTasks) {
  // 80 hits (keys 0..79 exist) and 20 misses (keys 100..119 do not).
  std::vector<Value> keys;
  for (int64_t i = 0; i < 80; ++i) keys.push_back(Value(i));
  for (int64_t i = 100; i < 120; ++i) keys.push_back(Value(i));
  IndexLookupOp lookup(rel_, keys);
  session_->metrics().Reset();
  PartitionVec parts = lookup.Execute(session_->exec()).ValueOrDie();
  EXPECT_EQ(session_->metrics().index_probes(), 100u);
  EXPECT_EQ(session_->metrics().index_hits(), 80u);
  EXPECT_GT(session_->metrics().morsels_dispatched(), 1u);
  EXPECT_EQ(TotalRows(parts), 80u);
}

}  // namespace
}  // namespace idf
