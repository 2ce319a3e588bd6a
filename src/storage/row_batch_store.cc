#include "storage/row_batch_store.h"

namespace idf {

RowBatchStore::RowBatchStore(const Schema& schema, size_t batch_bytes,
                             size_t max_row_bytes, size_t max_batches)
    : batch_bytes_(batch_bytes),
      max_row_bytes_(max_row_bytes),
      max_batches_(max_batches),
      slots_(new std::atomic<RowBatch*>[max_batches]),
      bitmap_bytes_(EncodedBitmapBytes(schema.num_fields())) {
  for (size_t i = 0; i < max_batches_; ++i) {
    slots_[i].store(nullptr, std::memory_order_relaxed);
  }
  image_of_col_.assign(static_cast<size_t>(schema.num_fields()), -1);
  for (int col = 0; col < schema.num_fields(); ++col) {
    if (schema.field(col).type == TypeId::kString) continue;
    image_of_col_[static_cast<size_t>(col)] = static_cast<int32_t>(image_cols_.size());
    image_cols_.push_back(col);
  }
}

RowBatchStore::~RowBatchStore() {
  size_t n = num_batches_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    delete slots_[i].load(std::memory_order_relaxed);
  }
}

Result<PackedPointer> RowBatchStore::AppendRow(const Schema& schema, const Row& row,
                                               PackedPointer back_pointer,
                                               uint32_t prev_size) {
  IDF_ASSIGN_OR_RETURN(PackedPointer ptr,
                       StageRow(schema, row, back_pointer, prev_size));
  PublishStaged();
  return ptr;
}

Result<PackedPointer> RowBatchStore::AppendEncoded(const uint8_t* payload, size_t len,
                                                   PackedPointer back_pointer,
                                                   uint32_t prev_size) {
  IDF_ASSIGN_OR_RETURN(PackedPointer ptr,
                       StageEncoded(payload, len, back_pointer, prev_size));
  PublishStaged();
  return ptr;
}

Result<PackedPointer> RowBatchStore::StageRow(const Schema& schema, const Row& row,
                                              PackedPointer back_pointer,
                                              uint32_t prev_size) {
  IDF_RETURN_NOT_OK(EncodeRow(schema, row, &scratch_));
  if (scratch_.size() > max_row_bytes_) {
    return Status::CapacityError("encoded row of " +
                                 std::to_string(scratch_.size()) +
                                 " bytes exceeds max_row_bytes=" +
                                 std::to_string(max_row_bytes_));
  }
  return StageEncoded(scratch_.data(), scratch_.size(), back_pointer, prev_size);
}

Result<PackedPointer> RowBatchStore::StageEncoded(const uint8_t* payload, size_t len,
                                                  PackedPointer back_pointer,
                                                  uint32_t prev_size) {
  size_t n = num_batches_.load(std::memory_order_relaxed);
  RowBatch* current = n == 0 ? nullptr : slots_[n - 1].load(std::memory_order_relaxed);
  if (current == nullptr || current->remaining() < len + 16) {
    if (n >= max_batches_) {
      return Status::CapacityError(
          "row batch directory full (" + std::to_string(max_batches_) +
          " batches); raise max_batches");
    }
    current = new RowBatch(batch_bytes_);
    slots_[n].store(current, std::memory_order_release);
    num_batches_.store(n + 1, std::memory_order_release);
    n = n + 1;
  }
  auto offset_res = current->AppendEncoded(payload, len, back_pointer);
  if (!offset_res.ok()) return offset_res.status();
  // PublishStaged's release store covers this entry (and any chunk or
  // spine it needed), so readers below num_rows_ see it.
  AppendToDirectory(current->payload_at(offset_res.ValueUnsafe()));
  PackedPointer ptr =
      PackedPointer::MakeChecked(n - 1, offset_res.ValueUnsafe(), prev_size);
  if (ptr.is_null()) {
    return Status::Internal("packed pointer overflow");
  }
  return ptr;
}

void RowBatchStore::AppendToDirectory(const uint8_t* payload) {
  const size_t c = directory_rows_ / kDirectoryChunkRows;
  const size_t r = directory_rows_ % kDirectoryChunkRows;
  if (r == 0) OpenChunk(c);
  chunks_[c][r] = payload;
  if (!image_cols_.empty()) {
    uint64_t* column = image_chunks_[c].get();
    for (int col : image_cols_) {
      column[r] = RawColumnSlot(payload, bitmap_bytes_, col);
      reinterpret_cast<uint8_t*>(column + kDirectoryChunkRows)[r] =
          RawColumnIsNull(payload, col) ? 1 : 0;
      column += kImageColumnWords;
    }
  }
  ++directory_rows_;
}

void RowBatchStore::OpenChunk(size_t c) {
  const Spine* live = spines_.empty() ? nullptr : spines_.back().get();
  if (live == nullptr || c == live->capacity) {
    // Double the spine; the replaced one stays readable (and owned) for
    // readers that acquired it, and costs less than the new one.
    auto grown = std::make_unique<Spine>(live == nullptr ? 4 : 2 * live->capacity);
    for (size_t i = 0; i < c; ++i) {
      grown->chunks[i] = live->chunks[i];
      grown->images[i] = live->images[i];
    }
    directory_bytes_.fetch_add(
        grown->capacity * (sizeof(const uint8_t**) + sizeof(const uint64_t*)),
        std::memory_order_relaxed);
    spines_.push_back(std::move(grown));
  }
  chunks_.emplace_back(new const uint8_t*[kDirectoryChunkRows]);
  size_t bytes = kDirectoryChunkRows * sizeof(const uint8_t*);
  const uint64_t* images = nullptr;
  if (!image_cols_.empty()) {
    const size_t words = image_cols_.size() * kImageColumnWords;
    image_chunks_.emplace_back(new uint64_t[words]);
    images = image_chunks_.back().get();
    bytes += words * sizeof(uint64_t);
  }
  directory_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  spines_.back()->chunks[c] = chunks_.back().get();
  spines_.back()->images[c] = images;
  spine_.store(spines_.back().get(), std::memory_order_release);
}

StoreWatermark RowBatchStore::Watermark() const {
  StoreWatermark wm;
  wm.num_rows = num_rows_.load(std::memory_order_acquire);
  if (wm.num_rows == 0) return wm;
  // The byte bound comes from the last covered row itself, never from a
  // batch's committed size: that may already include rows staged or
  // published after the count was read.
  const uintptr_t last = reinterpret_cast<uintptr_t>(PayloadOfRow(wm.num_rows - 1));
  // Its batch opened before the row was published, so the batch count
  // read next includes it; the row sits in the newest batch unless later
  // appends opened more.
  size_t b = num_batches_.load(std::memory_order_acquire) - 1;
  for (;; --b) {
    const uintptr_t base =
        reinterpret_cast<uintptr_t>(BatchAt(static_cast<uint32_t>(b))->data());
    if (last >= base && last < base + batch_bytes_) {
      wm.num_batches = static_cast<uint32_t>(b + 1);
      wm.last_batch_bytes = last - base;
      return wm;
    }
  }
}

size_t RowBatchStore::used_bytes() const {
  size_t total = 0;
  size_t n = num_batches();
  for (size_t i = 0; i < n; ++i) total += BatchAt(static_cast<uint32_t>(i))->committed_size();
  return total;
}

}  // namespace idf
