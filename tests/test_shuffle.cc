// Unit tests for hash partitioning and the shuffle exchanges.
#include "engine/shuffle.h"

#include <gtest/gtest.h>

#include "engine/broadcast.h"
#include "sql/physical_operators.h"

namespace idf {
namespace {

ExecutorContextPtr MakeCtx(int partitions = 4, int threads = 2) {
  EngineConfig cfg;
  cfg.num_partitions = partitions;
  cfg.num_threads = threads;
  return ExecutorContext::Make(cfg).ValueOrDie();
}

TEST(PartitionerTest, StableAndInRange) {
  HashPartitioner p(7);
  for (int64_t i = 0; i < 1000; ++i) {
    int a = p.PartitionOf(Value(i));
    int b = p.PartitionOf(Value(i));
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 7);
  }
}

TEST(PartitionerTest, MixedWidthKeysRouteIdentically) {
  HashPartitioner p(8);
  EXPECT_EQ(p.PartitionOf(Value(int32_t{42})), p.PartitionOf(Value(int64_t{42})));
  EXPECT_EQ(p.PartitionOf(Value(42.0)), p.PartitionOf(Value(int64_t{42})));
}

TEST(PartitionerTest, SpreadsKeysReasonably) {
  HashPartitioner p(8);
  std::vector<int> counts(8, 0);
  for (int64_t i = 0; i < 8000; ++i) ++counts[static_cast<size_t>(p.PartitionOf(Value(i)))];
  for (int c : counts) {
    EXPECT_GT(c, 500);
    EXPECT_LT(c, 1500);
  }
}

TEST(SplitRoundRobinTest, BalancesAndPreservesRows) {
  RowVec rows;
  for (int64_t i = 0; i < 103; ++i) rows.push_back({Value(i)});
  PartitionedRows parts = SplitRoundRobin(rows, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(CountRows(parts), 103u);
  for (const RowVec& p : parts) {
    EXPECT_GE(p.size(), 25u);
    EXPECT_LE(p.size(), 26u);
  }
  RowVec flat = FlattenPartitions(parts);
  SortRows(&flat);
  SortRows(&rows);
  EXPECT_EQ(flat, rows);
}

// The two exchanges in use: vanilla joins move rows
// (ShuffleRowsByKeyExpr); the indexed join moves its probe side encoded
// (ShuffleEncodedByKeyExpr), which must route row for row the same way.

SchemaPtr KvSchema() {
  return Schema::Make({{"k", TypeId::kInt64, true}, {"v", TypeId::kInt64, false}});
}

PartitionVec ToPartitions(const RowVec& rows, int partitions) {
  PartitionVec parts;
  for (RowVec& r : SplitRoundRobin(rows, partitions)) {
    parts.push_back(PartitionData(std::move(r)));
  }
  return parts;
}

ExprPtr KeyOf(const Schema& schema) {
  return BindExpr(Col("k"), schema).ValueOrDie();
}

TEST(ShuffleTest, EveryRowLandsInItsKeyPartition) {
  auto ctx = MakeCtx(5);
  RowVec rows;
  for (int64_t i = 0; i < 500; ++i) rows.push_back({Value(i % 37), Value(i)});
  HashPartitioner partitioner(5);
  std::vector<RowVec> output =
      ShuffleRowsByKeyExpr(*ctx, ToPartitions(rows, 3), KeyOf(*KvSchema()),
                           partitioner)
          .ValueOrDie();
  ASSERT_EQ(output.size(), 5u);
  EXPECT_EQ(CountRows(output), 500u);
  for (size_t p = 0; p < output.size(); ++p) {
    for (const Row& row : output[p]) {
      EXPECT_EQ(partitioner.PartitionOf(row[0]), static_cast<int>(p));
    }
  }
}

TEST(ShuffleTest, SameKeySameOutputPartition) {
  auto ctx = MakeCtx(4);
  RowVec rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({Value(int64_t{7}), Value(i)});
  std::vector<RowVec> output =
      ShuffleRowsByKeyExpr(*ctx, ToPartitions(rows, 4), KeyOf(*KvSchema()),
                           HashPartitioner(4))
          .ValueOrDie();
  int non_empty = 0;
  for (const RowVec& p : output) {
    if (!p.empty()) {
      ++non_empty;
      EXPECT_EQ(p.size(), 100u);
    }
  }
  EXPECT_EQ(non_empty, 1);
}

TEST(ShuffleTest, NullKeysGoToPartitionZero) {
  // Inner joins drop null keys; outer-join sides keep them in partition 0.
  auto ctx = MakeCtx(4);
  RowVec rows = {{Value::Null(), Value(int64_t{1})},
                 {Value::Null(), Value(int64_t{2})},
                 {Value(int64_t{3}), Value(int64_t{3})}};
  const ExprPtr key = KeyOf(*KvSchema());
  std::vector<RowVec> kept =
      ShuffleRowsByKeyExpr(*ctx, ToPartitions(rows, 2), key, HashPartitioner(4),
                           /*keep_null_keys=*/true)
          .ValueOrDie();
  size_t nulls_in_zero = 0;
  for (const Row& row : kept[0]) nulls_in_zero += row[0].is_null() ? 1 : 0;
  EXPECT_EQ(nulls_in_zero, 2u);
  EXPECT_EQ(CountRows(kept), 3u);
  std::vector<RowVec> dropped =
      ShuffleRowsByKeyExpr(*ctx, ToPartitions(rows, 2), key, HashPartitioner(4))
          .ValueOrDie();
  EXPECT_EQ(CountRows(dropped), 1u);
}

TEST(ShuffleTest, MetricsAccountVolume) {
  auto ctx = MakeCtx(4);
  ctx->metrics().Reset();
  RowVec rows;
  for (int64_t i = 0; i < 50; ++i) rows.push_back({Value(i), Value(i)});
  ASSERT_TRUE(ShuffleRowsByKeyExpr(*ctx, ToPartitions(rows, 2), KeyOf(*KvSchema()),
                                   HashPartitioner(4))
                  .ok());
  EXPECT_EQ(ctx->metrics().shuffled_rows(), 50u);
  EXPECT_GT(ctx->metrics().shuffled_bytes(), 0u);
  EXPECT_GT(ctx->metrics().tasks_run(), 0u);
}

TEST(ShuffleTest, KeyEvalErrorFailsBothExchanges) {
  auto ctx = MakeCtx(4);
  SchemaPtr schema = KvSchema();
  RowVec rows = {{Value(int64_t{1}), Value(int64_t{1})}};
  const ExprPtr unbound = Col("k");  // Eval fails: never bound to a schema
  auto as_rows = ShuffleRowsByKeyExpr(*ctx, ToPartitions(rows, 2), unbound,
                                      HashPartitioner(4));
  ASSERT_FALSE(as_rows.ok());
  auto encoded = ShuffleEncodedByKeyExpr(*ctx, ToPartitions(rows, 2), *schema,
                                         unbound, HashPartitioner(4));
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().ToString(), as_rows.status().ToString());
}

SchemaPtr BinarySchema() {
  return Schema::Make({{"k", TypeId::kInt64, true},
                       {"s", TypeId::kString, true},
                       {"d", TypeId::kFloat64, true}});
}

RowVec BinaryRowsFixture() {
  RowVec rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back({Value(i % 37), Value("s" + std::to_string(i)),
                    Value(static_cast<double>(i) * 0.5)});
  }
  rows.push_back({Value::Null(), Value("null-key"), Value::Null()});
  rows.push_back({Value(int64_t{5}), Value::Null(), Value(1.25)});
  return rows;
}

TEST(BinaryShuffleTest, MatchesRowShuffleRowForRow) {
  auto ctx = MakeCtx(5, 3);
  SchemaPtr schema = BinarySchema();
  PartitionVec input = ToPartitions(BinaryRowsFixture(), 3);
  HashPartitioner partitioner(5);
  for (bool keep_null_keys : {false, true}) {
    std::vector<RowVec> expected =
        ShuffleRowsByKeyExpr(*ctx, input, KeyOf(*schema), partitioner,
                             keep_null_keys)
            .ValueOrDie();
    BinaryPartitions actual =
        ShuffleEncodedByKeyExpr(*ctx, input, *schema, KeyOf(*schema),
                                partitioner, keep_null_keys)
            .ValueOrDie();
    EXPECT_EQ(CountRows(expected), keep_null_keys ? 302u : 301u);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t p = 0; p < expected.size(); ++p) {
      ASSERT_EQ(actual[p].num_rows(), expected[p].size()) << "partition " << p;
      for (size_t i = 0; i < expected[p].size(); ++i) {
        EXPECT_EQ(actual[p].Decode(i, *schema), expected[p][i])
            << "partition " << p << " row " << i << " keep_null_keys "
            << keep_null_keys;
      }
    }
  }
}

TEST(BinaryShuffleTest, NullKeysGoToPartitionZero) {
  auto ctx = MakeCtx(4);
  SchemaPtr schema = BinarySchema();
  RowVec rows = {{Value::Null(), Value("a"), Value(1.0)},
                 {Value::Null(), Value("b"), Value::Null()}};
  BinaryPartitions kept =
      ShuffleEncodedByKeyExpr(*ctx, ToPartitions(rows, 2), *schema, KeyOf(*schema),
                              HashPartitioner(4), /*keep_null_keys=*/true)
          .ValueOrDie();
  EXPECT_EQ(kept[0].num_rows(), 2u);
  EXPECT_EQ(kept[1].num_rows() + kept[2].num_rows() + kept[3].num_rows(), 0u);
  BinaryPartitions dropped =
      ShuffleEncodedByKeyExpr(*ctx, ToPartitions(rows, 2), *schema, KeyOf(*schema),
                              HashPartitioner(4))
          .ValueOrDie();
  for (const BinaryRows& p : dropped) EXPECT_TRUE(p.empty());
}

TEST(BinaryShuffleTest, LazyColumnDecodeSeesShuffledValues) {
  auto ctx = MakeCtx(3);
  SchemaPtr schema = BinarySchema();
  HashPartitioner partitioner(3);
  BinaryPartitions out =
      ShuffleEncodedByKeyExpr(*ctx, ToPartitions(BinaryRowsFixture(), 2), *schema,
                              KeyOf(*schema), partitioner, /*keep_null_keys=*/true)
          .ValueOrDie();
  size_t total = 0;
  for (size_t p = 0; p < out.size(); ++p) {
    for (size_t i = 0; i < out[p].num_rows(); ++i) {
      Value k = DecodeColumn(out[p].payload(i), *schema, 0);
      if (!k.is_null()) {
        EXPECT_EQ(partitioner.PartitionOf(k), static_cast<int>(p));
      }
      EXPECT_GT(out[p].payload_size(i), 0u);
      ++total;
    }
  }
  EXPECT_EQ(total, 302u);
}

TEST(BinaryShuffleTest, MetricsAccountEncodedVolume) {
  auto ctx = MakeCtx(4);
  ctx->metrics().Reset();
  SchemaPtr schema = BinarySchema();
  ASSERT_TRUE(ShuffleEncodedByKeyExpr(*ctx, ToPartitions(BinaryRowsFixture(), 2),
                                      *schema, KeyOf(*schema), HashPartitioner(4),
                                      /*keep_null_keys=*/true)
                  .ok());
  EXPECT_EQ(ctx->metrics().shuffled_rows(), 302u);
  EXPECT_GT(ctx->metrics().shuffle_encoded_bytes(), 0u);
  EXPECT_GT(ctx->metrics().shuffled_bytes(), 0u);
}

TEST(BinaryRowsTest, AppendBuffersConcatenates) {
  SchemaPtr schema = Schema::Make({{"k", TypeId::kInt64, false}});
  std::vector<uint8_t> scratch;
  BinaryRows a;
  BinaryRows b;
  ASSERT_TRUE(a.AppendRow(*schema, {Value(int64_t{1})}, &scratch).ok());
  ASSERT_TRUE(b.AppendRow(*schema, {Value(int64_t{2})}, &scratch).ok());
  ASSERT_TRUE(b.AppendRow(*schema, {Value(int64_t{3})}, &scratch).ok());
  a.Append(b);
  ASSERT_EQ(a.num_rows(), 3u);
  EXPECT_EQ(a.Decode(0, *schema)[0], Value(int64_t{1}));
  EXPECT_EQ(a.Decode(1, *schema)[0], Value(int64_t{2}));
  EXPECT_EQ(a.Decode(2, *schema)[0], Value(int64_t{3}));
  EXPECT_EQ(a.byte_size(), 3 * (4 + a.payload_size(0)));
}

TEST(BroadcastTest, SharesRowsAndAccountsBytes) {
  auto ctx = MakeCtx(4, 3);
  ctx->metrics().Reset();
  RowVec rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value(i), Value("payload")});
  BroadcastRows bc = MakeBroadcast(*ctx, std::move(rows));
  EXPECT_EQ(bc.rows->size(), 10u);
  // Simulated cluster transmission: bytes x executors.
  EXPECT_GT(ctx->metrics().broadcast_bytes(), 0u);
  uint64_t per_copy = ctx->metrics().broadcast_bytes() / 3;
  EXPECT_GT(per_copy, 10u * 16);
}

TEST(EstimateRowBytesTest, GrowsWithStringPayload) {
  size_t small = EstimateRowBytes({Value(int64_t{1})});
  size_t big = EstimateRowBytes({Value(std::string(1000, 'x'))});
  EXPECT_GT(big, small + 900);
}

TEST(MetricsTest, ResetClearsCounters) {
  QueryMetrics m;
  m.AddShuffledRows(5);
  m.AddIndexProbes(2);
  m.AddRowsProduced(9);
  m.AddMorsels(3);
  m.AddShuffleEncodedBytes(77);
  m.AddDecodesAvoided(4);
  EXPECT_EQ(m.shuffled_rows(), 5u);
  EXPECT_EQ(m.morsels_dispatched(), 3u);
  EXPECT_EQ(m.shuffle_encoded_bytes(), 77u);
  EXPECT_EQ(m.decodes_avoided(), 4u);
  m.Reset();
  EXPECT_EQ(m.shuffled_rows(), 0u);
  EXPECT_EQ(m.index_probes(), 0u);
  EXPECT_EQ(m.rows_produced(), 0u);
  EXPECT_EQ(m.morsels_dispatched(), 0u);
  EXPECT_EQ(m.shuffle_encoded_bytes(), 0u);
  EXPECT_EQ(m.decodes_avoided(), 0u);
  EXPECT_NE(m.ToString().find("shuffled_rows=0"), std::string::npos);
  EXPECT_NE(m.ToString().find("morsels=0"), std::string::npos);
}

}  // namespace
}  // namespace idf
