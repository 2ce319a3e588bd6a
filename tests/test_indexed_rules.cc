// Plan-level tests for the indexed Catalyst rules and the physical
// strategy: exactly when do rewrites fire, and what do they produce.
#include "indexed/indexed_rules.h"

#include <gtest/gtest.h>

#include "indexed/indexed_relation.h"
#include "sql/analyzer.h"

namespace idf {
namespace {

class IndexedRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig cfg;
    cfg.num_partitions = 2;
    cfg.num_threads = 1;
    ctx_ = ExecutorContext::Make(cfg).ValueOrDie();
    schema_ = Schema::Make({{"k", TypeId::kInt64, true},
                            {"v", TypeId::kString, true}});
    RowVec rows;
    for (int64_t i = 0; i < 20; ++i) {
      rows.push_back({Value(i % 4), Value("x" + std::to_string(i))});
    }
    rel_ = IndexedRelation::Build(*ctx_, "rel", schema_, 0, rows).ValueOrDie();
  }

  LogicalPlanPtr IndexedScan() { return std::make_shared<IndexedScanNode>(rel_); }

  LogicalPlanPtr RegularScan() {
    auto t = std::make_shared<RawTable>();
    t->name = "reg";
    t->schema = Schema::Make({{"a", TypeId::kInt64, true}});
    t->partitions.push_back({});
    return std::make_shared<ScanNode>(std::move(t));
  }

  ExecutorContextPtr ctx_;
  SchemaPtr schema_;
  IndexedRelationPtr rel_;
};

TEST_F(IndexedRulesTest, FilterRuleRewritesEqualityOnIndexedColumn) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          IndexedScan(), Eq(Col("k"), Lit(Value(int64_t{2})))))
                  .ValueOrDie();
  auto rewritten = IndexedFilterRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  ASSERT_EQ(rewritten->kind(), PlanKind::kIndexedLookup);
  EXPECT_EQ(static_cast<const IndexedLookupNode*>(rewritten.get())->key(),
            Value(int64_t{2}));
}

TEST_F(IndexedRulesTest, FilterRuleHandlesMirroredLiteral) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          IndexedScan(), Eq(Lit(Value(int64_t{2})), Col("k"))))
                  .ValueOrDie();
  auto rewritten = IndexedFilterRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  EXPECT_EQ(rewritten->kind(), PlanKind::kIndexedLookup);
}

TEST_F(IndexedRulesTest, FilterRuleExtractsConjunctAndKeepsResidual) {
  auto pred = And(Gt(Col("v"), Lit(Value("a"))),
                  Eq(Col("k"), Lit(Value(int64_t{1}))));
  auto plan =
      Analyze(std::make_shared<FilterNode>(IndexedScan(), pred)).ValueOrDie();
  auto rewritten = IndexedFilterRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  ASSERT_EQ(rewritten->kind(), PlanKind::kFilter);
  EXPECT_EQ(rewritten->children()[0]->kind(), PlanKind::kIndexedLookup);
  // Residual predicate only mentions v.
  const auto* f = static_cast<const FilterNode*>(rewritten.get());
  EXPECT_EQ(f->predicate()->kind(), ExprKind::kComparison);
}

TEST_F(IndexedRulesTest, FilterRuleIgnoresNonIndexedColumn) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          IndexedScan(), Eq(Col("v"), Lit(Value("x1")))))
                  .ValueOrDie();
  EXPECT_EQ(IndexedFilterRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, FilterRuleIgnoresRangePredicates) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          IndexedScan(), Lt(Col("k"), Lit(Value(int64_t{2})))))
                  .ValueOrDie();
  EXPECT_EQ(IndexedFilterRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, FilterRuleIgnoresRegularScans) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          RegularScan(), Eq(Col("a"), Lit(Value(int64_t{1})))))
                  .ValueOrDie();
  EXPECT_EQ(IndexedFilterRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, JoinRuleRewritesIndexedLeftSide) {
  auto plan = Analyze(std::make_shared<JoinNode>(IndexedScan(), RegularScan(),
                                                 Col("k"), Col("a")))
                  .ValueOrDie();
  auto rewritten = IndexedJoinRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  ASSERT_EQ(rewritten->kind(), PlanKind::kIndexedJoin);
  const auto* join = static_cast<const IndexedJoinNode*>(rewritten.get());
  EXPECT_TRUE(join->indexed_on_left());
  EXPECT_EQ(join->probe()->kind(), PlanKind::kScan);
  // Output schema identical to the regular join's.
  EXPECT_TRUE(join->output_schema()->Equals(*plan->output_schema()));
}

TEST_F(IndexedRulesTest, JoinRuleRewritesIndexedRightSide) {
  auto plan = Analyze(std::make_shared<JoinNode>(RegularScan(), IndexedScan(),
                                                 Col("a"), Col("k")))
                  .ValueOrDie();
  auto rewritten = IndexedJoinRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  const auto* join = static_cast<const IndexedJoinNode*>(rewritten.get());
  EXPECT_FALSE(join->indexed_on_left());
}

TEST_F(IndexedRulesTest, JoinRuleIgnoresNonIndexedKey) {
  // A relation with two int columns, indexed on the first; joining on the
  // second must not trigger the rewrite.
  auto schema2 = Schema::Make({{"k", TypeId::kInt64, true},
                               {"w", TypeId::kInt64, true}});
  auto rel2 =
      IndexedRelation::Build(*ctx_, "rel2", schema2, 0,
                             {{Value(int64_t{1}), Value(int64_t{10})}})
          .ValueOrDie();
  auto plan = Analyze(std::make_shared<JoinNode>(
                          std::make_shared<IndexedScanNode>(rel2), RegularScan(),
                          Col("w"), Col("a")))
                  .ValueOrDie();
  EXPECT_EQ(IndexedJoinRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, JoinRuleIgnoresRegularJoin) {
  auto plan = Analyze(std::make_shared<JoinNode>(RegularScan(), RegularScan(),
                                                 Col("a"), Col("a")))
                  .ValueOrDie();
  EXPECT_EQ(IndexedJoinRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, JoinRuleBuildsTheSideFacingTheSmallerProbe) {
  // Both sides indexed on their join keys. The filtered big side is
  // estimated smaller than the whole mid side, so the mid side builds and
  // the filtered side is the probe — never the other way round, which
  // would walk every mid row against the big index.
  auto make = [this](const char* name, int64_t n) {
    RowVec rows;
    for (int64_t i = 0; i < n; ++i) {
      rows.push_back({Value(i % 50), Value("x" + std::to_string(i))});
    }
    return IndexedRelation::Build(*ctx_, name, schema_, 0, rows).ValueOrDie();
  };
  auto big = make("big", 1000);
  auto mid = make("mid", 500);
  auto filtered_big = std::make_shared<FilterNode>(
      std::make_shared<IndexedScanNode>(big), Eq(Col("v"), Lit(Value("x7"))));
  auto plan = Analyze(std::make_shared<JoinNode>(
                          filtered_big, std::make_shared<IndexedScanNode>(mid),
                          Col("k"), Col("k")))
                  .ValueOrDie();
  auto rewritten = IndexedJoinRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  const auto* join = static_cast<const IndexedJoinNode*>(rewritten.get());
  EXPECT_EQ(join->relation()->name(), "mid");
  EXPECT_FALSE(join->indexed_on_left());
  EXPECT_EQ(join->probe()->kind(), PlanKind::kFilter);
  EXPECT_EQ(join->build_predicate(), nullptr);

  // Without the filter the big side is the larger probe: it builds.
  auto unfiltered = Analyze(std::make_shared<JoinNode>(
                                std::make_shared<IndexedScanNode>(big),
                                std::make_shared<IndexedScanNode>(mid), Col("k"),
                                Col("k")))
                        .ValueOrDie();
  auto big_builds = IndexedJoinRule().Apply(unfiltered).ValueOrDie();
  ASSERT_NE(big_builds, nullptr);
  EXPECT_EQ(static_cast<const IndexedJoinNode*>(big_builds.get())->relation()->name(),
            "big");
}

TEST_F(IndexedRulesTest, PinnedRelationTakesTheIndexedPaths) {
  PinnedSnapshotPtr pin = rel_->Pin();
  ASSERT_TRUE(rel_->AppendRows(*ctx_, {{Value(int64_t{1}), Value("late")}}).ok());
  auto plan = Analyze(std::make_shared<FilterNode>(
                          std::make_shared<IndexedScanNode>(pin),
                          Eq(Col("k"), Lit(Value(int64_t{1})))))
                  .ValueOrDie();
  auto lookup = IndexedFilterRule().Apply(plan).ValueOrDie();
  ASSERT_NE(lookup, nullptr);
  ASSERT_EQ(lookup->kind(), PlanKind::kIndexedLookup);
  auto op = IndexedExecutionStrategy().Plan(lookup, {}, ctx_->config()).ValueOrDie();
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(TotalRows(op->Execute(*ctx_).ValueOrDie()), 5u);  // frozen: not 6
}

TEST_F(IndexedRulesTest, ContextPinsFreezeLiveReads) {
  // A plan over the live relation reads whatever version the executing
  // context pins, and a fresh snapshot when it pins nothing.
  struct OnePin : SnapshotPins {
    PinnedSnapshotPtr pin;
    const PinnedSnapshot* Find(const IndexedRelationBase& rel) const override {
      return pin->origin() == &rel ? pin.get() : nullptr;
    }
  };
  auto pins = std::make_shared<OnePin>();
  pins->pin = rel_->Pin();
  ASSERT_TRUE(rel_->AppendRows(*ctx_, {{Value(int64_t{1}), Value("late")}}).ok());

  IndexedExecutionStrategy strategy;
  auto scan = strategy.Plan(Analyze(IndexedScan()).ValueOrDie(), {}, ctx_->config())
                  .ValueOrDie();
  auto lookup = strategy
                    .Plan(LogicalPlanPtr(std::make_shared<IndexedLookupNode>(
                              rel_, Value(int64_t{1}))),
                          {}, ctx_->config())
                    .ValueOrDie();
  EXPECT_EQ(TotalRows(scan->Execute(*ctx_).ValueOrDie()), 21u);
  EXPECT_EQ(TotalRows(lookup->Execute(*ctx_).ValueOrDie()), 6u);
  ctx_->SetPins(pins);
  EXPECT_EQ(TotalRows(scan->Execute(*ctx_).ValueOrDie()), 20u);
  EXPECT_EQ(TotalRows(lookup->Execute(*ctx_).ValueOrDie()), 5u);
  ctx_->SetPins(nullptr);
  EXPECT_EQ(TotalRows(scan->Execute(*ctx_).ValueOrDie()), 21u);
}

TEST_F(IndexedRulesTest, StrategyLowersIndexedNodes) {
  IndexedExecutionStrategy strategy;
  EngineConfig cfg = ctx_->config();

  auto scan = Analyze(IndexedScan()).ValueOrDie();
  auto scan_op = strategy.Plan(scan, {}, cfg).ValueOrDie();
  ASSERT_NE(scan_op, nullptr);
  EXPECT_NE(scan_op->name().find("IndexedScan"), std::string::npos);

  auto lookup = LogicalPlanPtr(
      std::make_shared<IndexedLookupNode>(rel_, Value(int64_t{1})));
  auto lookup_op = strategy.Plan(lookup, {}, cfg).ValueOrDie();
  ASSERT_NE(lookup_op, nullptr);
  EXPECT_NE(lookup_op->name().find("IndexLookup"), std::string::npos);
}

TEST_F(IndexedRulesTest, StrategyIgnoresRegularNodes) {
  IndexedExecutionStrategy strategy;
  auto scan = Analyze(RegularScan()).ValueOrDie();
  EXPECT_EQ(strategy.Plan(scan, {}, ctx_->config()).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, InstallIsIdempotent) {
  auto session = Session::Make().ValueOrDie();
  InstallIndexedExtensions(*session);
  InstallIndexedExtensions(*session);
  EXPECT_TRUE(session->HasExtension("indexed-dataframe"));
}

TEST_F(IndexedRulesTest, LookupExecutesAgainstRelation) {
  IndexedExecutionStrategy strategy;
  auto lookup = LogicalPlanPtr(
      std::make_shared<IndexedLookupNode>(rel_, Value(int64_t{1})));
  auto op = strategy.Plan(lookup, {}, ctx_->config()).ValueOrDie();
  auto parts = op->Execute(*ctx_).ValueOrDie();
  EXPECT_EQ(TotalRows(parts), 5u);  // keys 0..3 over 20 rows
}

}  // namespace
}  // namespace idf
