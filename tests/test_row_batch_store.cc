// Unit tests for RowBatchStore: pointer addressing, batch rollover,
// watermarks, capacity limits, and the row directory (append ordinal ->
// payload) checked against a walk over the encoded bytes.
#include "storage/row_batch_store.h"

#include <gtest/gtest.h>

#include "reference_walk.h"

namespace idf {
namespace {

SchemaPtr KvSchema() {
  return Schema::Make({{"k", TypeId::kInt64, false}, {"v", TypeId::kString, true}});
}

Row KvRow(int64_t k, const std::string& v) { return {Value(k), Value(v)}; }

TEST(RowBatchStoreTest, AppendReturnsDereferenceablePointer) {
  RowBatchStore store(4096, 1024);
  SchemaPtr schema = KvSchema();
  auto ptr = store.AppendRow(*schema, KvRow(7, "seven"), PackedPointer::Null(), 0);
  ASSERT_TRUE(ptr.ok());
  EXPECT_EQ(DecodeRow(store.PayloadAt(*ptr), *schema), KvRow(7, "seven"));
  EXPECT_TRUE(store.BackPointerAt(*ptr).is_null());
  EXPECT_EQ(store.num_rows(), 1u);
}

TEST(RowBatchStoreTest, BackPointerAndPrevSizeArePreserved) {
  RowBatchStore store(4096, 1024);
  SchemaPtr schema = KvSchema();
  auto first = store.AppendRow(*schema, KvRow(1, "a"), PackedPointer::Null(), 0);
  ASSERT_TRUE(first.ok());
  uint32_t first_size = EncodedRowSize(store.PayloadAt(*first), *schema);
  auto second = store.AppendRow(*schema, KvRow(1, "bb"), *first, first_size);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(store.BackPointerAt(*second), *first);
  EXPECT_EQ(second->prev_size(), first_size);
}

TEST(RowBatchStoreTest, RollsOverToNewBatches) {
  RowBatchStore store(256, 128);
  SchemaPtr schema = KvSchema();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        store.AppendRow(*schema, KvRow(i, "value"), PackedPointer::Null(), 0).ok());
  }
  EXPECT_GT(store.num_batches(), 1u);
  EXPECT_EQ(store.num_rows(), 100u);
}

TEST(RowBatchStoreTest, PointersValidAcrossBatches) {
  RowBatchStore store(256, 128);
  SchemaPtr schema = KvSchema();
  std::vector<PackedPointer> ptrs;
  for (int i = 0; i < 100; ++i) {
    auto p = store.AppendRow(*schema, KvRow(i, "v" + std::to_string(i)),
                             PackedPointer::Null(), 0);
    ASSERT_TRUE(p.ok());
    ptrs.push_back(*p);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(DecodeRow(store.PayloadAt(ptrs[static_cast<size_t>(i)]), *schema),
              KvRow(i, "v" + std::to_string(i)));
  }
}

TEST(RowBatchStoreTest, RejectsOversizedRow) {
  RowBatchStore store(4096, 64);
  SchemaPtr schema = KvSchema();
  auto r = store.AppendRow(*schema, KvRow(1, std::string(200, 'x')),
                           PackedPointer::Null(), 0);
  EXPECT_EQ(r.status().code(), StatusCode::kCapacityError);
}

TEST(RowBatchStoreTest, DirectoryCapacityError) {
  RowBatchStore store(64, 48, /*max_batches=*/2);
  SchemaPtr schema = KvSchema();
  Status last = Status::OK();
  int appended = 0;
  for (int i = 0; i < 100; ++i) {
    Status st =
        store.AppendRow(*schema, KvRow(i, "x"), PackedPointer::Null(), 0).status();
    if (!st.ok()) {
      last = st;
      break;
    }
    ++appended;
  }
  EXPECT_EQ(last.code(), StatusCode::kCapacityError);
  EXPECT_GT(appended, 0);
  EXPECT_LE(store.num_batches(), 2u);
}

TEST(RowBatchStoreTest, WatermarkTracksAppends) {
  RowBatchStore store(4096, 1024);
  SchemaPtr schema = KvSchema();
  StoreWatermark w0 = store.Watermark();
  EXPECT_EQ(w0.num_batches, 0u);
  EXPECT_EQ(w0.num_rows, 0u);
  ASSERT_TRUE(
      store.AppendRow(*schema, KvRow(1, "a"), PackedPointer::Null(), 0).ok());
  StoreWatermark w1 = store.Watermark();
  EXPECT_EQ(w1.num_batches, 1u);
  EXPECT_EQ(w1.num_rows, 1u);
  EXPECT_GT(w1.last_batch_bytes, 0u);
  ASSERT_TRUE(
      store.AppendRow(*schema, KvRow(2, "b"), PackedPointer::Null(), 0).ok());
  StoreWatermark w2 = store.Watermark();
  EXPECT_GT(w2.last_batch_bytes, w1.last_batch_bytes);
}

TEST(RowBatchStoreTest, StagedRowsAreUncountedUntilPublished) {
  RowBatchStore store(4096, 1024);
  SchemaPtr schema = KvSchema();
  auto a = store.AppendRow(*schema, KvRow(1, "a"), PackedPointer::Null(), 0);
  auto b = store.StageRow(*schema, KvRow(2, "b"), PackedPointer::Null(), 0);
  auto c = store.StageRow(*schema, KvRow(3, "c"), *b, 0);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(store.num_rows(), 1u);
  StoreWatermark wm = store.Watermark();
  EXPECT_EQ(wm.num_rows, 1u);
  EXPECT_TRUE(wm.Covers(*a));
  EXPECT_FALSE(wm.Covers(*b));
  EXPECT_FALSE(wm.Covers(*c));
  // A staged row is readable through its pointer before it is published.
  EXPECT_EQ(DecodeRow(store.PayloadAt(*c), *schema), KvRow(3, "c"));
  EXPECT_EQ(store.BackPointerAt(*c), *b);
  store.PublishStaged();
  EXPECT_EQ(store.num_rows(), 3u);
  wm = store.Watermark();
  EXPECT_EQ(wm.num_rows, 3u);
  EXPECT_TRUE(wm.Covers(*a) && wm.Covers(*b) && wm.Covers(*c));
}

TEST(RowBatchStoreTest, WatermarkCoversExactlyItsRows) {
  // Across batch rollovers, a watermark's byte bound (Covers) names the
  // same rows as its row count.
  RowBatchStore store(256, 128);
  SchemaPtr schema = KvSchema();
  std::vector<PackedPointer> ptrs;
  std::vector<StoreWatermark> marks = {store.Watermark()};
  for (int64_t i = 0; i < 300; ++i) {
    auto ptr = store.AppendRow(*schema, KvRow(i, std::string(static_cast<size_t>(i % 40), 'x')),
                               PackedPointer::Null(), 0);
    ASSERT_TRUE(ptr.ok());
    ptrs.push_back(*ptr);
    marks.push_back(store.Watermark());
  }
  ASSERT_GT(store.num_batches(), 20u);
  for (const StoreWatermark& wm : marks) {
    for (size_t j = 0; j < ptrs.size(); ++j) {
      ASSERT_EQ(wm.Covers(ptrs[j]), j < wm.num_rows) << j << " vs " << wm.num_rows;
    }
  }
}

TEST(RowBatchStoreTest, UsedAndAllocatedBytes) {
  RowBatchStore store(1024, 512);
  SchemaPtr schema = KvSchema();
  EXPECT_EQ(store.allocated_bytes(), 0u);
  ASSERT_TRUE(
      store.AppendRow(*schema, KvRow(1, "a"), PackedPointer::Null(), 0).ok());
  EXPECT_EQ(store.allocated_bytes(), 1024u);
  EXPECT_GT(store.used_bytes(), 0u);
  EXPECT_LE(store.used_bytes(), store.allocated_bytes());
}

// --- Row directory --------------------------------------------------------

/// Two variable-width tails, either of which may be null.
SchemaPtr WideSchema() {
  return Schema::Make({{"k", TypeId::kInt64, true},
                       {"a", TypeId::kString, true},
                       {"b", TypeId::kString, true}});
}

Row WideRow(int64_t i) {
  return {i % 11 == 0 ? Value() : Value(i),
          i % 5 == 0 ? Value() : Value(std::string(static_cast<size_t>(i % 23), 'a')),
          i % 7 == 0 ? Value() : Value("b" + std::to_string(i))};
}

/// The payloads ForEachPayloadRun yields for [begin, end), checking that no
/// run crosses a directory chunk.
std::vector<const uint8_t*> DirectoryRange(const RowBatchStore& store,
                                           size_t begin, size_t end) {
  std::vector<const uint8_t*> out;
  store.ForEachPayloadRun(begin, end, [&](const uint8_t* const* payloads,
                                          size_t n) {
    const size_t first = begin + out.size();
    EXPECT_GT(n, 0u);
    EXPECT_EQ(first / RowBatchStore::kDirectoryChunkRows,
              (first + n - 1) / RowBatchStore::kDirectoryChunkRows);
    out.insert(out.end(), payloads, payloads + n);
  });
  EXPECT_EQ(out.size(), end - begin);
  return out;
}

TEST(RowBatchStoreDirectoryTest, MatchesReferenceWalkAcrossBatchesAndChunks) {
  // Small batches force rollover every few rows; 10k rows span three
  // directory chunks.
  RowBatchStore store(512, 256);
  SchemaPtr schema = WideSchema();
  const size_t n = 10000;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store
                    .AppendRow(*schema, WideRow(static_cast<int64_t>(i)),
                               PackedPointer::Null(), 0)
                    .ok());
  }
  ASSERT_GT(store.num_batches(), 100u);
  ASSERT_GT(n, 2 * RowBatchStore::kDirectoryChunkRows);
  const std::vector<const uint8_t*> walk = ReferenceWalk(store, *schema, n);
  ASSERT_EQ(walk.size(), n);
  ASSERT_EQ(DirectoryRange(store, 0, n), walk);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(store.PayloadOfRow(i), walk[i]) << i;
    ASSERT_EQ(DecodeRow(store.PayloadOfRow(i), *schema),
              WideRow(static_cast<int64_t>(i)))
        << i;
  }
  // Ranges starting and ending inside chunks, and straddling boundaries.
  const size_t k = RowBatchStore::kDirectoryChunkRows;
  for (auto [b, e] : {std::pair<size_t, size_t>{1, 2}, {k - 3, k + 3},
                      {k, 2 * k}, {17, n - 5}, {n, n}}) {
    EXPECT_EQ(DirectoryRange(store, b, e),
              std::vector<const uint8_t*>(walk.begin() + static_cast<long>(b),
                                          walk.begin() + static_cast<long>(e)))
        << b << ".." << e;
  }
}

TEST(RowBatchStoreDirectoryTest, DirectoryGrowsWithRowsNotCapacity) {
  // No spine sized for the maximum capacity: an empty store holds no
  // directory, and one row costs one chunk plus a small spine.
  RowBatchStore store(4096, 1024);
  SchemaPtr schema = KvSchema();
  EXPECT_EQ(store.directory_bytes(), 0u);
  ASSERT_TRUE(
      store.AppendRow(*schema, KvRow(1, "a"), PackedPointer::Null(), 0).ok());
  const size_t chunk_bytes = RowBatchStore::kDirectoryChunkRows * sizeof(void*);
  EXPECT_GE(store.directory_bytes(), chunk_bytes);
  EXPECT_LE(store.directory_bytes(), chunk_bytes + 256);
}

TEST(RowBatchStoreDirectoryTest, WatermarkRowCountBoundsTheDirectory) {
  // A watermark captured earlier keeps addressing the same prefix while
  // later appends extend the directory (and grow its spine).
  RowBatchStore store(1024, 256);
  SchemaPtr schema = WideSchema();
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.AppendRow(*schema, WideRow(i), PackedPointer::Null(), 0).ok());
  }
  const StoreWatermark wm = store.Watermark();
  const std::vector<const uint8_t*> before = DirectoryRange(store, 0, wm.num_rows);
  for (int64_t i = 100; i < 40000; ++i) {
    ASSERT_TRUE(store.AppendRow(*schema, WideRow(i), PackedPointer::Null(), 0).ok());
  }
  EXPECT_EQ(DirectoryRange(store, 0, wm.num_rows), before);
  EXPECT_EQ(wm.num_rows, 100u);
}

}  // namespace
}  // namespace idf
