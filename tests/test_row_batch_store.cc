// Unit tests for RowBatchStore: pointer addressing, batch rollover,
// watermarks, capacity limits, the row directory (append ordinal ->
// payload) checked against a walk over the encoded bytes, and the column
// images checked against the payload slots they mirror.
#include "storage/row_batch_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>

#include "reference_walk.h"
#include "sql/vectorized_eval.h"

namespace idf {
namespace {

SchemaPtr KvSchema() {
  return Schema::Make({{"k", TypeId::kInt64, false}, {"v", TypeId::kString, true}});
}

Row KvRow(int64_t k, const std::string& v) { return {Value(k), Value(v)}; }

TEST(RowBatchStoreTest, AppendReturnsDereferenceablePointer) {
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 4096, 1024);
  auto ptr = store.AppendRow(*schema, KvRow(7, "seven"), PackedPointer::Null(), 0);
  ASSERT_TRUE(ptr.ok());
  EXPECT_EQ(DecodeRow(store.PayloadAt(*ptr), *schema), KvRow(7, "seven"));
  EXPECT_TRUE(store.BackPointerAt(*ptr).is_null());
  EXPECT_EQ(store.num_rows(), 1u);
}

TEST(RowBatchStoreTest, BackPointerAndPrevSizeArePreserved) {
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 4096, 1024);
  auto first = store.AppendRow(*schema, KvRow(1, "a"), PackedPointer::Null(), 0);
  ASSERT_TRUE(first.ok());
  uint32_t first_size = EncodedRowSize(store.PayloadAt(*first), *schema);
  auto second = store.AppendRow(*schema, KvRow(1, "bb"), *first, first_size);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(store.BackPointerAt(*second), *first);
  EXPECT_EQ(second->prev_size(), first_size);
}

TEST(RowBatchStoreTest, RollsOverToNewBatches) {
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 256, 128);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        store.AppendRow(*schema, KvRow(i, "value"), PackedPointer::Null(), 0).ok());
  }
  EXPECT_GT(store.num_batches(), 1u);
  EXPECT_EQ(store.num_rows(), 100u);
}

TEST(RowBatchStoreTest, PointersValidAcrossBatches) {
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 256, 128);
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
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 4096, 64);
  auto r = store.AppendRow(*schema, KvRow(1, std::string(200, 'x')),
                           PackedPointer::Null(), 0);
  EXPECT_EQ(r.status().code(), StatusCode::kCapacityError);
}

TEST(RowBatchStoreTest, DirectoryCapacityError) {
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 64, 48, /*max_batches=*/2);
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
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 4096, 1024);
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
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 4096, 1024);
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
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 256, 128);
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
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 1024, 512);
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

/// The payloads ForEachRun yields for [begin, end), checking that no run
/// crosses a directory chunk.
std::vector<const uint8_t*> DirectoryRange(const RowBatchStore& store,
                                           size_t begin, size_t end) {
  std::vector<const uint8_t*> out;
  store.ForEachRun(begin, end, [&](const RowRun& run) {
    const size_t first = begin + out.size();
    const size_t n = run.count;
    EXPECT_GT(n, 0u);
    EXPECT_EQ(first / RowBatchStore::kDirectoryChunkRows,
              (first + n - 1) / RowBatchStore::kDirectoryChunkRows);
    out.insert(out.end(), run.payloads, run.payloads + n);
  });
  EXPECT_EQ(out.size(), end - begin);
  return out;
}

TEST(RowBatchStoreDirectoryTest, MatchesReferenceWalkAcrossBatchesAndChunks) {
  // Small batches force rollover every few rows; 10k rows span many
  // directory chunks and end in a partly filled one.
  SchemaPtr schema = WideSchema();
  RowBatchStore store(*schema, 512, 256);
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
  // directory, and one row costs one chunk (payload pointers plus the
  // image of the fixed-width `k`) and a small spine.
  SchemaPtr schema = KvSchema();
  RowBatchStore store(*schema, 4096, 1024);
  EXPECT_EQ(store.directory_bytes(), 0u);
  ASSERT_TRUE(
      store.AppendRow(*schema, KvRow(1, "a"), PackedPointer::Null(), 0).ok());
  const size_t chunk_bytes = RowBatchStore::kDirectoryChunkRows * sizeof(void*) +
                             RowBatchStore::kImageColumnWords * sizeof(uint64_t);
  EXPECT_GE(store.directory_bytes(), chunk_bytes);
  EXPECT_LE(store.directory_bytes(), chunk_bytes + 256);
}

TEST(RowBatchStoreDirectoryTest, WatermarkRowCountBoundsTheDirectory) {
  // A watermark captured earlier keeps addressing the same prefix while
  // later appends extend the directory (and grow its spine).
  SchemaPtr schema = WideSchema();
  RowBatchStore store(*schema, 1024, 256);
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

// --- Column images --------------------------------------------------------

/// Every fixed-width type plus a string, all nullable.
SchemaPtr AllTypesSchema() {
  return Schema::Make({{"b", TypeId::kBool, true},
                       {"i32", TypeId::kInt32, true},
                       {"i64", TypeId::kInt64, true},
                       {"f64", TypeId::kFloat64, true},
                       {"s", TypeId::kString, true},
                       {"ts", TypeId::kTimestamp, true}});
}

/// NULLs in every column at different strides; negative int32 (whose
/// image must keep the payload's zero-extended slot), int64 extremes, NaN,
/// -0.0, infinities and denormals.
Row AllTypesRow(int64_t i) {
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             -0.0,
                             0.0,
                             -1.5,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min()};
  const int64_t extremes[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), -1, 0};
  return {i % 7 == 0 ? Value() : Value(i % 3 == 0),
          i % 5 == 0 ? Value() : Value(static_cast<int32_t>(i % 2 == 0 ? -i : i)),
          i % 11 == 0 ? Value() : Value(i % 9 == 0 ? extremes[i % 4] : -i * 1000003),
          i % 13 == 0 ? Value() : Value(i % 2 == 0 ? specials[i % 7] : 0.25 * i),
          i % 3 == 0 ? Value() : Value("s" + std::to_string(i)),
          i % 17 == 0 ? Value() : Value(i * 1000000)};
}

TEST(RowBatchStoreImageTest, ImagesEqualPayloadSlotsAcrossChunks) {
  // Small batches roll over every few rows; the rows span several
  // directory chunks and end in a partly filled one.
  SchemaPtr schema = AllTypesSchema();
  RowBatchStore store(*schema, 512, 256);
  const size_t k = RowBatchStore::kDirectoryChunkRows;
  const size_t n = 3 * k + 77;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store
                    .AppendRow(*schema, AllTypesRow(static_cast<int64_t>(i)),
                               PackedPointer::Null(), 0)
                    .ok());
  }
  EXPECT_EQ(ExpectImagesMatchPayloads(store, *schema, 0, n), n);
  // Runs starting and ending inside chunks, and straddling boundaries.
  for (auto [b, e] : {std::pair<size_t, size_t>{1, 2}, {k - 3, k + 3},
                      {k, 2 * k}, {2 * k - 1, 3 * k + 1}, {3 * k, n}, {n, n}}) {
    EXPECT_EQ(ExpectImagesMatchPayloads(store, *schema, b, e), e - b)
        << b << ".." << e;
  }
}

TEST(RowBatchStoreImageTest, StagedRowsJoinTheImagesWhenPublished) {
  SchemaPtr schema = AllTypesSchema();
  RowBatchStore store(*schema, 4096, 1024);
  const size_t k = RowBatchStore::kDirectoryChunkRows;
  for (size_t i = 0; i + 2 < k; ++i) {
    ASSERT_TRUE(store
                    .AppendRow(*schema, AllTypesRow(static_cast<int64_t>(i)),
                               PackedPointer::Null(), 0)
                    .ok());
  }
  // Stage across the chunk boundary: the staged rows open a chunk that no
  // published row count covers yet.
  for (size_t i = k - 2; i < k + 5; ++i) {
    ASSERT_TRUE(store
                    .StageRow(*schema, AllTypesRow(static_cast<int64_t>(i)),
                              PackedPointer::Null(), 0)
                    .ok());
  }
  EXPECT_EQ(store.num_rows(), k - 2);
  EXPECT_EQ(ExpectImagesMatchPayloads(store, *schema, 0, store.num_rows()), k - 2);
  store.PublishStaged();
  EXPECT_EQ(store.num_rows(), k + 5);
  EXPECT_EQ(ExpectImagesMatchPayloads(store, *schema, 0, k + 5), k + 5);
}

TEST(RowBatchStoreImageTest, DenseFilterMatchesGatherOnEveryType) {
  // The vectorized filter over a store run (column images) and over the
  // same payloads gathered must give every lane the same tri-state.
  SchemaPtr schema = AllTypesSchema();
  RowBatchStore store(*schema, 4096, 1024);
  const size_t n = RowBatchStore::kDirectoryChunkRows + 300;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store
                    .AppendRow(*schema, AllTypesRow(static_cast<int64_t>(i)),
                               PackedPointer::Null(), 0)
                    .ok());
  }
  const ExprPtr preds[] = {
      Col("b"),
      Lt(Col("i32"), Lit(Value(int32_t{-100}))),
      Ge(Col("i32"), Lit(Value(2.5))),
      Eq(Col("i64"), Lit(Value(std::numeric_limits<int64_t>::min()))),
      Gt(Col("i64"), Lit(Value(-5e8))),
      Le(Col("f64"), Lit(Value(-0.0))),
      Ne(Col("f64"), Lit(Value(std::numeric_limits<double>::quiet_NaN()))),
      Ge(Col("ts"), Lit(Value(int64_t{2000000000}))),
      Not(IsNull(Col("f64"))),
      Or(And(Col("b"), Lt(Col("i64"), Lit(Value(int64_t{0})))),
         Eq(Col("s"), Lit(Value("s42")))),
  };
  for (const ExprPtr& pred : preds) {
    ExprPtr bound = BindExpr(pred, *schema).ValueOrDie();
    std::optional<CompiledPredicate> compiled = CompiledPredicate::Compile(bound, *schema);
    ASSERT_TRUE(compiled.has_value()) << bound->ToString();
    VectorizedPredicate vec(*compiled);
    VectorScratch scratch;
    size_t seen = 0;
    store.ForEachRun(0, n, [&](const RowRun& run) {
      std::vector<uint8_t> dense(run.count);
      std::vector<uint8_t> gathered(run.count);
      vec.EvalBatch(run, dense.data(), &scratch);
      vec.EvalBatch(RowRun(run.payloads, run.count), gathered.data(), &scratch);
      for (size_t i = 0; i < run.count; ++i) {
        ASSERT_EQ(dense[i], gathered[i]) << bound->ToString() << " row " << seen + i;
        ASSERT_EQ(dense[i], static_cast<uint8_t>(compiled->EvalEncoded(run.payloads[i])))
            << bound->ToString() << " row " << seen + i;
      }
      seen += run.count;
    });
    EXPECT_EQ(seen, n);
  }
}

TEST(RowBatchStoreImageTest, ReadersFilterPinnedPrefixesWhileAppending) {
  // One appender stages and publishes batches (opening chunks and growing
  // the spine) while readers pin watermarks and filter the pinned prefix
  // through the column images. Row i holds k = i, and v = i * 3 or NULL
  // when i % 5 == 0: a reader must count exactly the matches below its
  // watermark, and see every image slot whole.
  SchemaPtr schema = Schema::Make({{"k", TypeId::kInt64, false},
                                   {"v", TypeId::kInt64, true},
                                   {"s", TypeId::kString, true}});
  RowBatchStore store(*schema, 4096, 256);
  ExprPtr bound = BindExpr(Ge(Col("v"), Lit(Value(int64_t{0}))), *schema).ValueOrDie();
  const CompiledPredicate compiled = *CompiledPredicate::Compile(bound, *schema);
  constexpr size_t kRows = 40 * RowBatchStore::kDirectoryChunkRows + 123;
  std::atomic<bool> done{false};
  std::atomic<size_t> checks{0};
  std::thread appender([&] {
    for (size_t i = 0; i < kRows;) {
      const size_t batch = std::min<size_t>(kRows - i, 1 + i % 37);
      for (size_t j = 0; j < batch; ++j, ++i) {
        const int64_t x = static_cast<int64_t>(i);
        Row row = {Value(x), i % 5 == 0 ? Value() : Value(3 * x), Value("r")};
        ASSERT_TRUE(store.StageRow(*schema, row, PackedPointer::Null(), 0).ok());
      }
      store.PublishStaged();
    }
    done.store(true, std::memory_order_release);
  });
  auto reader = [&] {
    VectorizedPredicate vec(compiled);
    VectorScratch scratch;
    std::vector<uint32_t> sel(RowBatchStore::kDirectoryChunkRows);
    bool last = false;
    while (!last) {
      last = done.load(std::memory_order_acquire);
      const StoreWatermark wm = store.Watermark();
      size_t pos = 0;
      size_t kept = 0;
      store.ForEachRun(0, wm.num_rows, [&](const RowRun& run) {
        const ColumnSlice k = run.Column(0);
        for (size_t i = 0; i < run.count; ++i) {
          ASSERT_EQ(k.slots[i], pos + i);  // never torn, never out of order
        }
        kept += vec.FilterBatch(run, sel.data(), &scratch);
        pos += run.count;
      });
      ASSERT_EQ(pos, wm.num_rows);
      ASSERT_EQ(kept, wm.num_rows - (wm.num_rows + 4) / 5);
      checks.fetch_add(1, std::memory_order_relaxed);
    }
    ASSERT_EQ(store.Watermark().num_rows, kRows);
  };
  std::thread r1(reader);
  std::thread r2(reader);
  appender.join();
  r1.join();
  r2.join();
  EXPECT_GE(checks.load(), 2u);
}

}  // namespace
}  // namespace idf
