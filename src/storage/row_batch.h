// RowBatch: a fixed-capacity binary buffer of "unsafe" encoded rows,
// reproducing the paper's "row batches ... collections of binary, unsafe
// arrays (e.g., of 4 MB in size)".
//
// Row encoding (Spark UnsafeRow style):
//   [ null bitmap : ceil(num_fields/64) * 8 bytes ]
//   [ fixed section : 8 bytes per field ]
//   [ variable section : string payloads ]
// Fixed-width values live directly in their 8-byte slot; variable-width
// slots hold (offset_from_row_base << 32) | length.
//
// Inside a batch, every row is preceded by an 8-byte header carrying the
// packed backward pointer to the previous row with the same index key (the
// paper's per-key linked list; see indexed/indexed_partition.h). Rows are
// 8-byte aligned.
//
// Concurrency: one appender at a time; any number of concurrent readers.
// The appender publishes each row by storing `committed_size_` with
// release ordering after the bytes are written; readers never look past
// an acquired committed size (their snapshot watermark).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/packed_pointer.h"
#include "types/row.h"
#include "types/schema.h"

namespace idf {

// ---------------------------------------------------------------------------
// Raw encoded-payload accessors (the fixed-prefix layout above). Shared by
// DecodeColumn, the compiled-predicate VM (sql/predicate_compiler.h) and
// the indexed chain-walk fast path — these read straight from the encoded
// bytes without materializing a Value.
// ---------------------------------------------------------------------------

/// Bytes of the null bitmap for a schema with `num_fields` columns.
inline size_t EncodedBitmapBytes(int num_fields) {
  return static_cast<size_t>((num_fields + 63) / 64) * 8;
}

/// Null bit of column `col` in the payload at `base`.
inline bool RawColumnIsNull(const uint8_t* base, int col) {
  uint64_t word;
  std::memcpy(&word, base + (col / 64) * 8, 8);
  return (word >> (col % 64)) & 1;
}

/// The 8-byte fixed slot of column `col` (value bits for fixed-width types,
/// (offset << 32) | length for strings). Callers check the null bit first.
inline uint64_t RawColumnSlot(const uint8_t* base, size_t bitmap_bytes, int col) {
  uint64_t v;
  std::memcpy(&v, base + bitmap_bytes + static_cast<size_t>(col) * 8, 8);
  return v;
}

/// View over the variable-length bytes a string slot points into; valid as
/// long as the payload is.
inline std::string_view RawColumnString(const uint8_t* base, uint64_t slot) {
  return std::string_view(reinterpret_cast<const char*>(base + (slot >> 32)),
                          static_cast<size_t>(slot & 0xFFFFFFFFULL));
}

/// Encodes `key` into the 8-byte slot image it would occupy in a column of
/// integer-backed `type` (bool/int32/int64/timestamp), iff raw slot
/// equality is then exactly equivalent to the engine's Value equality
/// against a decoded column value. Returns false when no unique slot image
/// exists (string/float columns, fractional or out-of-range keys, doubles
/// beyond 2^53 where the widening comparison is not injective) — callers
/// fall back to decode-and-compare.
bool EncodeFixedKeySlot(TypeId type, const Value& key, uint64_t* slot);

/// Encodes `row` (which must validate against `schema`) into `out`,
/// replacing its contents. The encoding excludes the back-pointer header.
Status EncodeRow(const Schema& schema, const Row& row, std::vector<uint8_t>* out);

/// EncodeRow without the per-row ValidateRow pass. For engine-internal hot
/// paths (e.g. the binary shuffle) whose rows were already validated at
/// ingestion; encoding a row that does not conform to `schema` is UB.
void EncodeRowUnchecked(const Schema& schema, const Row& row,
                        std::vector<uint8_t>* out);

/// Decodes a full row from an encoded payload at `base`.
Row DecodeRow(const uint8_t* base, const Schema& schema);

/// Decodes only column `col` from an encoded payload at `base`. This is the
/// hot path for index probes and filter evaluation over row batches.
Value DecodeColumn(const uint8_t* base, const Schema& schema, int col);

/// Returns the total encoded size (header excluded) of the row at `base`.
/// Requires the schema used at encode time.
uint32_t EncodedRowSize(const uint8_t* base, const Schema& schema);

/// \brief One binary row batch with an 8-byte back-pointer header per row.
class RowBatch {
 public:
  explicit RowBatch(size_t capacity_bytes);

  size_t capacity() const { return capacity_; }

  /// Bytes committed (readable); acquire-loads the publication watermark.
  size_t committed_size() const {
    return committed_size_.load(std::memory_order_acquire);
  }

  size_t num_rows() const { return num_rows_; }

  /// Bytes still available to the appender.
  size_t remaining() const { return capacity_ - write_size_; }

  /// Appends an encoded payload with its back-pointer header.
  /// Returns the byte offset of the row header within this batch, or
  /// CapacityError when the row does not fit. Appender-only.
  Result<uint32_t> AppendEncoded(const uint8_t* payload, size_t payload_len,
                                 PackedPointer back_pointer);

  /// Back-pointer header of the row whose header starts at `offset`.
  PackedPointer back_pointer_at(uint32_t offset) const;

  /// Pointer to the encoded payload of the row at header offset `offset`.
  const uint8_t* payload_at(uint32_t offset) const { return data() + offset + 8; }

  const uint8_t* data() const { return data_.get(); }

 private:
  size_t capacity_;
  size_t write_size_ = 0;              // appender's private cursor
  std::atomic<size_t> committed_size_{0};  // readers' watermark
  size_t num_rows_ = 0;
  std::unique_ptr<uint8_t[]> data_;
};

}  // namespace idf
