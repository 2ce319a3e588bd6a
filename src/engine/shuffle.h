// Shuffle: redistributes partitioned rows by the hash of a key column,
// modelling Spark's exchange. The data movement (hash, route, copy) is real
// work and is what the indexed join avoids on its build side.
//
// The exchanges themselves route by a key expression and live with the
// operators that use them (sql/physical_operators.h): vanilla joins move
// rows (ShuffleRowsByKeyExpr), and the indexed join moves its probe side
// as binary buffers (ShuffleEncodedByKeyExpr), where map tasks encode each
// row once into per-destination byte buffers, reduce tasks concatenate
// whole buffers, and the probe loop decodes lazily (per column). This
// header holds the row containers and size estimates they share.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "engine/executor_context.h"
#include "engine/partitioner.h"
#include "storage/row_batch.h"
#include "types/row.h"
#include "types/schema.h"

namespace idf {

/// Rows of one dataset, split across partitions.
using PartitionedRows = std::vector<RowVec>;

/// Approximate in-memory size of a row (metrics and broadcast decisions).
size_t EstimateRowBytes(const Row& row);

/// \brief Encoded rows of one shuffle destination: UnsafeRow payloads
/// packed back-to-back into a single buffer, each preceded by a 4-byte
/// length prefix. Rows are addressable by index, so probe-side operators
/// can split a buffer into morsels and decode columns lazily.
class BinaryRows {
 public:
  size_t num_rows() const { return offsets_.size(); }
  size_t byte_size() const { return bytes_.size(); }
  bool empty() const { return offsets_.empty(); }

  /// Pointer to the encoded payload of row `i` (valid until mutation).
  const uint8_t* payload(size_t i) const { return bytes_.data() + offsets_[i]; }
  uint32_t payload_size(size_t i) const;

  void Reserve(size_t rows, size_t bytes);
  void Append(const uint8_t* payload, uint32_t len);
  /// Concatenates all of `other` (one buffer memcpy — the reduce side).
  void Append(const BinaryRows& other);

  /// Encodes `row` once (via `scratch`, reused across calls) and appends it.
  Status AppendRow(const Schema& schema, const Row& row,
                   std::vector<uint8_t>* scratch);

  /// Materializes row `i` (the non-lazy fallback).
  Row Decode(size_t i, const Schema& schema) const {
    return DecodeRow(payload(i), schema);
  }

 private:
  std::vector<uint8_t> bytes_;   // [u32 length][payload] ...
  std::vector<size_t> offsets_;  // payload start of row i (prefix excluded)
};

/// One BinaryRows buffer per shuffle destination.
using BinaryPartitions = std::vector<BinaryRows>;

/// Splits a flat row vector into `num_partitions` round-robin chunks
/// (initial placement of un-partitioned data).
PartitionedRows SplitRoundRobin(const RowVec& rows, int num_partitions);

/// Flattens partitions into one vector (action boundary, e.g. Collect()).
RowVec FlattenPartitions(const PartitionedRows& parts);

size_t CountRows(const PartitionedRows& parts);

}  // namespace idf
