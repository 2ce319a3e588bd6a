#include "storage/row_batch.h"

#include <cstring>

#include "common/logging.h"

namespace idf {

Status EncodeRow(const Schema& schema, const Row& row, std::vector<uint8_t>* out) {
  IDF_RETURN_NOT_OK(ValidateRow(schema, row));
  EncodeRowUnchecked(schema, row, out);
  return Status::OK();
}

void EncodeRowUnchecked(const Schema& schema, const Row& row,
                        std::vector<uint8_t>* out) {
  const int n = schema.num_fields();
  const size_t bitmap_bytes = EncodedBitmapBytes(n);
  const size_t fixed_bytes = static_cast<size_t>(n) * 8;

  out->assign(bitmap_bytes + fixed_bytes, 0);

  for (int i = 0; i < n; ++i) {
    const Value& v = row[static_cast<size_t>(i)];
    if (v.is_null()) {
      (*out)[static_cast<size_t>(i / 64) * 8 + static_cast<size_t>((i % 64) / 8)] |=
          static_cast<uint8_t>(1u << (i % 8));
      continue;
    }
    uint64_t slot = 0;
    switch (schema.field(i).type) {
      case TypeId::kBool:
        slot = v.bool_value() ? 1 : 0;
        break;
      case TypeId::kInt32: {
        int32_t x = v.int32_value();
        uint32_t ux;
        std::memcpy(&ux, &x, 4);
        slot = ux;
        break;
      }
      case TypeId::kInt64:
      case TypeId::kTimestamp: {
        int64_t x = v.AsInt64();
        std::memcpy(&slot, &x, 8);
        break;
      }
      case TypeId::kFloat64: {
        double x = v.AsDouble();
        std::memcpy(&slot, &x, 8);
        break;
      }
      case TypeId::kString: {
        const std::string& s = v.string_value();
        uint64_t offset = out->size();
        // Variable section grows at the tail; patch the slot now since the
        // row base is offset 0 of `out`.
        slot = (offset << 32) | static_cast<uint64_t>(s.size());
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
    }
    std::memcpy(out->data() + bitmap_bytes + static_cast<size_t>(i) * 8, &slot, 8);
  }
}

Value DecodeColumn(const uint8_t* base, const Schema& schema, int col) {
  const size_t bitmap_bytes = EncodedBitmapBytes(schema.num_fields());
  if (RawColumnIsNull(base, col)) return Value::Null();
  uint64_t slot = RawColumnSlot(base, bitmap_bytes, col);
  switch (schema.field(col).type) {
    case TypeId::kBool:
      return Value(slot != 0);
    case TypeId::kInt32: {
      int32_t x;
      uint32_t ux = static_cast<uint32_t>(slot);
      std::memcpy(&x, &ux, 4);
      return Value(x);
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      int64_t x;
      std::memcpy(&x, &slot, 8);
      return Value(x);
    }
    case TypeId::kFloat64: {
      double x;
      std::memcpy(&x, &slot, 8);
      return Value(x);
    }
    case TypeId::kString: {
      uint64_t offset = slot >> 32;
      uint64_t len = slot & 0xFFFFFFFFULL;
      return Value(std::string(reinterpret_cast<const char*>(base + offset),
                               static_cast<size_t>(len)));
    }
  }
  return Value::Null();
}

Row DecodeRow(const uint8_t* base, const Schema& schema) {
  Row out;
  const int n = schema.num_fields();
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(DecodeColumn(base, schema, i));
  return out;
}

uint32_t EncodedRowSize(const uint8_t* base, const Schema& schema) {
  const int n = schema.num_fields();
  const size_t bitmap_bytes = EncodedBitmapBytes(n);
  uint32_t size = static_cast<uint32_t>(bitmap_bytes + static_cast<size_t>(n) * 8);
  for (int i = 0; i < n; ++i) {
    if (schema.field(i).type != TypeId::kString || RawColumnIsNull(base, i)) continue;
    uint64_t slot = RawColumnSlot(base, bitmap_bytes, i);
    uint32_t end = static_cast<uint32_t>(slot >> 32) +
                   static_cast<uint32_t>(slot & 0xFFFFFFFFULL);
    if (end > size) size = end;
  }
  return size;
}

bool EncodeFixedKeySlot(TypeId type, const Value& key, uint64_t* slot) {
  if (key.is_null() || key.is_string()) return false;
  switch (type) {
    case TypeId::kBool: {
      // A decoded bool compares to a numeric key via widening (false=0,
      // true=1), so only keys equal to exactly 0 or 1 have a slot image.
      const double d = key.AsDouble();
      if (d != 0.0 && d != 1.0) return false;
      *slot = d == 1.0 ? 1 : 0;
      return true;
    }
    case TypeId::kInt32: {
      int64_t i;
      if (key.is_double()) {
        const double d = key.double_value();
        if (!(d >= -2147483648.0 && d <= 2147483647.0)) return false;
        i = static_cast<int64_t>(d);
        if (static_cast<double>(i) != d) return false;  // fractional key
      } else {
        i = key.AsInt64();
        if (i < INT32_MIN || i > INT32_MAX) return false;
      }
      const int32_t x = static_cast<int32_t>(i);
      uint32_t ux;
      std::memcpy(&ux, &x, 4);
      *slot = ux;
      return true;
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      int64_t i;
      if (key.is_double()) {
        const double d = key.double_value();
        // Beyond 2^53 the int->double widening is not injective: one double
        // compares equal to several int64s, so no single slot image exists.
        if (!(d >= -9007199254740992.0 && d <= 9007199254740992.0)) return false;
        i = static_cast<int64_t>(d);
        if (static_cast<double>(i) != d) return false;  // fractional key
      } else {
        i = key.AsInt64();
      }
      std::memcpy(slot, &i, 8);
      return true;
    }
    case TypeId::kFloat64:  // 0.0 == -0.0 but their bit patterns differ
    case TypeId::kString:
      return false;
  }
  return false;
}

RowBatch::RowBatch(size_t capacity_bytes)
    : capacity_(capacity_bytes), data_(new uint8_t[capacity_bytes]) {}

Result<uint32_t> RowBatch::AppendEncoded(const uint8_t* payload, size_t payload_len,
                                         PackedPointer back_pointer) {
  // Align the 8-byte header (and therefore the payload) to 8 bytes.
  size_t start = (write_size_ + 7) & ~size_t{7};
  size_t total = 8 + payload_len;
  if (start + total > capacity_) {
    return Status::CapacityError("row batch full");
  }
  uint64_t header = back_pointer.bits();
  std::memcpy(data_.get() + start, &header, 8);
  std::memcpy(data_.get() + start + 8, payload, payload_len);
  write_size_ = start + total;
  ++num_rows_;
  // Publish: readers holding a watermark >= write_size_ may now decode
  // this row.
  committed_size_.store(write_size_, std::memory_order_release);
  return static_cast<uint32_t>(start);
}

PackedPointer RowBatch::back_pointer_at(uint32_t offset) const {
  uint64_t header;
  std::memcpy(&header, data_.get() + offset, 8);
  return PackedPointer(header);
}

}  // namespace idf
