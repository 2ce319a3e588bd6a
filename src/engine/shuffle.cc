#include "engine/shuffle.h"

#include <cstring>

namespace idf {

uint32_t BinaryRows::payload_size(size_t i) const {
  uint32_t len;
  std::memcpy(&len, bytes_.data() + offsets_[i] - 4, 4);
  return len;
}

void BinaryRows::Reserve(size_t rows, size_t bytes) {
  offsets_.reserve(offsets_.size() + rows);
  bytes_.reserve(bytes_.size() + bytes);
}

void BinaryRows::Append(const uint8_t* payload, uint32_t len) {
  const size_t start = bytes_.size();
  bytes_.resize(start + 4 + len);
  std::memcpy(bytes_.data() + start, &len, 4);
  std::memcpy(bytes_.data() + start + 4, payload, len);
  offsets_.push_back(start + 4);
}

void BinaryRows::Append(const BinaryRows& other) {
  const size_t base = bytes_.size();
  bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
  offsets_.reserve(offsets_.size() + other.offsets_.size());
  for (size_t off : other.offsets_) offsets_.push_back(base + off);
}

Status BinaryRows::AppendRow(const Schema& schema, const Row& row,
                             std::vector<uint8_t>* scratch) {
  // Rows reaching the exchange conform to their operator's output schema by
  // construction (ingestion already validated them), so skip the per-row
  // ValidateRow pass the general EncodeRow performs — it shows up in join
  // profiles at ~4% on encode-heavy shapes.
  EncodeRowUnchecked(schema, row, scratch);
  Append(scratch->data(), static_cast<uint32_t>(scratch->size()));
  return Status::OK();
}

size_t EstimateRowBytes(const Row& row) {
  size_t bytes = sizeof(Row);
  for (const Value& v : row) {
    bytes += 16;  // variant header
    if (v.is_string()) bytes += v.string_value().size();
  }
  return bytes;
}

PartitionedRows SplitRoundRobin(const RowVec& rows, int num_partitions) {
  PartitionedRows out(static_cast<size_t>(num_partitions));
  const size_t parts = static_cast<size_t>(num_partitions);
  // Partition i receives exactly one extra row when i < rows % parts.
  for (size_t i = 0; i < parts; ++i) {
    out[i].reserve(rows.size() / parts + (i < rows.size() % parts ? 1 : 0));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i % static_cast<size_t>(num_partitions)].push_back(rows[i]);
  }
  return out;
}

RowVec FlattenPartitions(const PartitionedRows& parts) {
  RowVec out;
  out.reserve(CountRows(parts));
  for (const RowVec& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

size_t CountRows(const PartitionedRows& parts) {
  size_t n = 0;
  for (const RowVec& p : parts) n += p.size();
  return n;
}

}  // namespace idf
