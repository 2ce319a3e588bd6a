// Unit and property tests for the binary (UnsafeRow-style) row encoding and
// RowBatch.
#include "storage/row_batch.h"

#include <gtest/gtest.h>

#include "common/hash.h"

namespace idf {
namespace {

SchemaPtr MixedSchema() {
  return Schema::Make({
      {"b", TypeId::kBool, true},
      {"i32", TypeId::kInt32, true},
      {"i64", TypeId::kInt64, true},
      {"f", TypeId::kFloat64, true},
      {"s", TypeId::kString, true},
      {"ts", TypeId::kTimestamp, true},
  });
}

Row MixedRow() {
  return {Value(true), Value(int32_t{-42}),   Value(int64_t{1} << 40),
          Value(3.25), Value("hello unsafe"), Value(int64_t{1577836800000000})};
}

TEST(RowEncodingTest, RoundTripAllTypes) {
  SchemaPtr schema = MixedSchema();
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, MixedRow(), &buf).ok());
  Row decoded = DecodeRow(buf.data(), *schema);
  EXPECT_EQ(decoded, MixedRow());
}

TEST(RowEncodingTest, RoundTripAllNull) {
  SchemaPtr schema = MixedSchema();
  Row nulls(6, Value::Null());
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, nulls, &buf).ok());
  Row decoded = DecodeRow(buf.data(), *schema);
  for (const Value& v : decoded) EXPECT_TRUE(v.is_null());
}

TEST(RowEncodingTest, RoundTripEmptyString) {
  auto schema = Schema::Make({{"s", TypeId::kString, true}});
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, {Value("")}, &buf).ok());
  EXPECT_EQ(DecodeRow(buf.data(), *schema)[0], Value(""));
}

TEST(RowEncodingTest, RoundTripMultipleStrings) {
  auto schema = Schema::Make({{"a", TypeId::kString, true},
                              {"b", TypeId::kString, true},
                              {"c", TypeId::kString, true}});
  Row row = {Value("first"), Value::Null(), Value("third-longer-string")};
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, row, &buf).ok());
  EXPECT_EQ(DecodeRow(buf.data(), *schema), row);
}

TEST(RowEncodingTest, DecodeColumnReadsSingleColumn) {
  SchemaPtr schema = MixedSchema();
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, MixedRow(), &buf).ok());
  EXPECT_EQ(DecodeColumn(buf.data(), *schema, 2), Value(int64_t{1} << 40));
  EXPECT_EQ(DecodeColumn(buf.data(), *schema, 4), Value("hello unsafe"));
  EXPECT_EQ(DecodeColumn(buf.data(), *schema, 0), Value(true));
}

TEST(RowEncodingTest, EncodeRejectsSchemaMismatch) {
  SchemaPtr schema = MixedSchema();
  std::vector<uint8_t> buf;
  EXPECT_FALSE(EncodeRow(*schema, {Value(int64_t{1})}, &buf).ok());
}

TEST(RowEncodingTest, EncodedRowSizeMatchesBuffer) {
  SchemaPtr schema = MixedSchema();
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, MixedRow(), &buf).ok());
  EXPECT_EQ(EncodedRowSize(buf.data(), *schema), buf.size());
}

TEST(RowEncodingTest, FixedWidthRowSizeIsBitmapPlusSlots) {
  auto schema = Schema::Make({{"a", TypeId::kInt64, true},
                              {"b", TypeId::kInt64, true}});
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, {Value(int64_t{1}), Value(int64_t{2})}, &buf).ok());
  EXPECT_EQ(buf.size(), 8u + 16u);  // one bitmap word + two slots
}

TEST(RowEncodingTest, WideSchemaBitmapUsesMultipleWords) {
  std::vector<Field> fields;
  Row row;
  for (int i = 0; i < 70; ++i) {
    fields.push_back({"c" + std::to_string(i), TypeId::kInt64, true});
    row.push_back(i % 3 == 0 ? Value::Null() : Value(int64_t{i}));
  }
  auto schema = Schema::Make(std::move(fields));
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, row, &buf).ok());
  EXPECT_EQ(buf.size(), 16u + 70u * 8);  // two bitmap words
  EXPECT_EQ(DecodeRow(buf.data(), *schema), row);
}

TEST(RowEncodingPropertyTest, RandomizedRoundTrip) {
  SchemaPtr schema = MixedSchema();
  Random64 rng(7);
  std::vector<uint8_t> buf;
  for (int iter = 0; iter < 2000; ++iter) {
    Row row;
    row.push_back(rng.Uniform(4) == 0 ? Value::Null() : Value(rng.Uniform(2) == 0));
    row.push_back(rng.Uniform(4) == 0
                      ? Value::Null()
                      : Value(static_cast<int32_t>(rng.Next())));
    row.push_back(rng.Uniform(4) == 0
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng.Next())));
    row.push_back(rng.Uniform(4) == 0 ? Value::Null() : Value(rng.NextDouble()));
    row.push_back(rng.Uniform(4) == 0
                      ? Value::Null()
                      : Value(std::string(rng.Uniform(64), 'a' + static_cast<char>(
                                                               rng.Uniform(26)))));
    row.push_back(rng.Uniform(4) == 0
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng.Uniform(1u << 30))));
    ASSERT_TRUE(EncodeRow(*schema, row, &buf).ok());
    ASSERT_EQ(DecodeRow(buf.data(), *schema), row) << "iter " << iter;
    ASSERT_EQ(EncodedRowSize(buf.data(), *schema), buf.size());
  }
}

TEST(RowBatchTest, AppendAndReadBack) {
  SchemaPtr schema = MixedSchema();
  RowBatch batch(4096);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, MixedRow(), &buf).ok());
  auto off = batch.AppendEncoded(buf.data(), buf.size(), PackedPointer::Null());
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(DecodeRow(batch.payload_at(*off), *schema), MixedRow());
  EXPECT_TRUE(batch.back_pointer_at(*off).is_null());
  EXPECT_EQ(batch.num_rows(), 1u);
}

TEST(RowBatchTest, BackPointerHeaderSurvives) {
  SchemaPtr schema = MixedSchema();
  RowBatch batch(4096);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, MixedRow(), &buf).ok());
  PackedPointer bp = PackedPointer::Make(3, 128, 72);
  auto off = batch.AppendEncoded(buf.data(), buf.size(), bp);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(batch.back_pointer_at(*off), bp);
}

TEST(RowBatchTest, RowsAreEightByteAligned) {
  auto schema = Schema::Make({{"s", TypeId::kString, true}});
  RowBatch batch(4096);
  std::vector<uint8_t> buf;
  for (int i = 0; i < 10; ++i) {
    // Odd-length strings force padding between rows.
    ASSERT_TRUE(EncodeRow(*schema, {Value(std::string(i + 1, 'x'))}, &buf).ok());
    auto off = batch.AppendEncoded(buf.data(), buf.size(), PackedPointer::Null());
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(*off % 8, 0u);
  }
}

TEST(RowBatchTest, CapacityErrorWhenFull) {
  auto schema = Schema::Make({{"i", TypeId::kInt64, true}});
  RowBatch batch(64);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, {Value(int64_t{1})}, &buf).ok());
  // 8 header + 16 payload = 24 bytes per row; 64-byte batch fits 2.
  ASSERT_TRUE(batch.AppendEncoded(buf.data(), buf.size(), PackedPointer::Null()).ok());
  ASSERT_TRUE(batch.AppendEncoded(buf.data(), buf.size(), PackedPointer::Null()).ok());
  auto r = batch.AppendEncoded(buf.data(), buf.size(), PackedPointer::Null());
  EXPECT_EQ(r.status().code(), StatusCode::kCapacityError);
  EXPECT_EQ(batch.num_rows(), 2u);
}

TEST(RowBatchTest, CommittedSizeAdvancesMonotonically) {
  auto schema = Schema::Make({{"i", TypeId::kInt64, true}});
  RowBatch batch(4096);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(EncodeRow(*schema, {Value(int64_t{1})}, &buf).ok());
  size_t last = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        batch.AppendEncoded(buf.data(), buf.size(), PackedPointer::Null()).ok());
    EXPECT_GT(batch.committed_size(), last);
    last = batch.committed_size();
  }
}

TEST(RowBatchTest, WalkForwardVisitsAllRows) {
  SchemaPtr schema = MixedSchema();
  RowBatch batch(1 << 16);
  std::vector<uint8_t> buf;
  Random64 rng(3);
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) {
    Row row = MixedRow();
    row[4] = Value(std::string(rng.Uniform(40), 'z'));
    rows.push_back(row);
    ASSERT_TRUE(EncodeRow(*schema, row, &buf).ok());
    ASSERT_TRUE(
        batch.AppendEncoded(buf.data(), buf.size(), PackedPointer::Null()).ok());
  }
  uint32_t offset = 0;
  size_t count = 0;
  while (offset < batch.committed_size()) {
    ASSERT_LT(count, rows.size());
    EXPECT_EQ(DecodeRow(batch.payload_at(offset), *schema), rows[count]);
    // Headers are 8-byte aligned; the next one follows this payload.
    offset += 8 + EncodedRowSize(batch.payload_at(offset), *schema);
    offset = (offset + 7) & ~uint32_t{7};
    ++count;
  }
  EXPECT_EQ(count, rows.size());
}

}  // namespace
}  // namespace idf
