// Test oracle for the row directory: finds every committed row of a store
// by walking the encoded bytes of its batches. A row's size comes from its
// variable-width tail (EncodedRowSize), and the next 8-byte-aligned header
// follows it.
#pragma once

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

}  // namespace idf
