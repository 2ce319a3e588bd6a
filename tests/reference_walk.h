// Test oracles for the row directory and its column images. ReferenceWalk
// finds every committed row of a store by walking the encoded bytes of its
// batches: a row's size comes from its variable-width tail
// (EncodedRowSize), and the next 8-byte-aligned header follows it.
// ExpectImagesMatchPayloads checks every column image against the slots
// and null bits of the payloads it mirrors.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/row_batch_store.h"

namespace idf {

/// Payloads of the first `num_rows` rows of `store`, in append order.
inline std::vector<const uint8_t*> ReferenceWalk(const RowBatchStore& store,
                                                 const Schema& schema,
                                                 size_t num_rows) {
  std::vector<const uint8_t*> out;
  for (size_t b = 0; b < store.num_batches() && out.size() < num_rows; ++b) {
    const RowBatch* batch = store.BatchAt(static_cast<uint32_t>(b));
    size_t offset = 0;
    while (offset + 8 < batch->committed_size() && out.size() < num_rows) {
      const uint8_t* payload = batch->payload_at(static_cast<uint32_t>(offset));
      out.push_back(payload);
      offset += 8 + EncodedRowSize(payload, schema);
      offset = (offset + 7) & ~size_t{7};
    }
  }
  return out;
}

/// Checks the runs ForEachRun yields for [begin, end): each fixed-width
/// column's image holds every row's raw 8-byte slot and null bit exactly
/// as its payload does (bit for bit: NaN, -0.0, sign-extended int32), and
/// string columns have no image. Returns the number of rows visited.
inline size_t ExpectImagesMatchPayloads(const RowBatchStore& store,
                                        const Schema& schema, size_t begin,
                                        size_t end) {
  const size_t bitmap_bytes = EncodedBitmapBytes(schema.num_fields());
  size_t visited = 0;
  store.ForEachRun(begin, end, [&](const RowRun& run) {
    for (int col = 0; col < schema.num_fields(); ++col) {
      const ColumnSlice image = run.Column(col);
      if (schema.field(col).type == TypeId::kString) {
        EXPECT_EQ(image.slots, nullptr) << "string column " << col;
        continue;
      }
      ASSERT_NE(image.slots, nullptr) << "column " << col;
      for (size_t i = 0; i < run.count; ++i) {
        const uint8_t* payload = run.payloads[i];
        ASSERT_EQ(image.nulls[i], RawColumnIsNull(payload, col) ? 1 : 0)
            << "row " << begin + visited + i << " column " << col;
        ASSERT_EQ(image.slots[i], RawColumnSlot(payload, bitmap_bytes, col))
            << "row " << begin + visited + i << " column " << col;
      }
    }
    visited += run.count;
  });
  EXPECT_EQ(visited, end - begin);
  return visited;
}

}  // namespace idf
