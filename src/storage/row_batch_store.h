// RowBatchStore: the per-partition sequence of row batches, addressed by
// PackedPointer. Appends always go to the newest batch; a new batch is
// allocated when the current one is full.
//
// Concurrency contract (matching Indexed DataFrame usage): exactly one
// appender at a time per partition (Spark executes a partition's tasks
// sequentially; IndexedRelation serializes appends per partition); readers
// run lock-free and concurrently with the appender. Batches live in a
// preallocated slot directory so the appender never relocates memory that
// readers may be traversing; a StoreWatermark delimits one consistent
// version of the data.
//
// The row directory maps each row's append ordinal to its payload, so a
// scan reads row positions instead of decoding every row's variable-width
// tail to find the next one. It is chunked (kDirectoryChunkRows rows per
// chunk) behind a spine that doubles when full; a replaced spine stays
// alive until the store dies, so a reader holding it never reads freed
// memory. The appender writes a row's entry (and any new chunk or spine)
// before the release store of num_rows_, so every ordinal below an
// acquired row count is readable without locks.
//
// Beside the directory, every fixed-width column (bool, int32, int64,
// timestamp, float64) has a dense column image: the row's raw 8-byte slot
// and a null byte (1 = NULL), in chunks parallel to the directory's. The
// appender fills a row's images with its directory entry, from slot
// offsets derived from the schema at construction, so the same release
// store of num_rows_ publishes both. Scan filters read these images
// sequentially instead of fetching one payload cache line per row (the
// PAX layout, kept beside the row store rather than in its place).
//
// Appends may be staged: a staged row is written (bytes, header, directory
// entry) and addressable by its packed pointer, but no row count or
// watermark covers it until PublishStaged(). IndexedPartition stages a
// batch, links it into the cTrie, then publishes, so every row a watermark
// covers is already reachable from its key's head. A staged row's images
// are written too, but no reader looks at them before PublishStaged().
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/config.h"
#include "storage/row_batch.h"
#include "types/schema.h"

namespace idf {

/// A consistent prefix of the store: its first `num_rows` rows. Rows are
/// laid out in append order, so the same prefix is also a byte bound:
/// batches [0, num_batches-1) whole, plus the rows of batch num_batches-1
/// whose header starts below `last_batch_bytes` (the payload offset of row
/// num_rows-1). Scans read the first form, chain walks the second; both
/// are derived from one acquired row count, so they name the same rows.
struct StoreWatermark {
  uint32_t num_batches = 0;
  size_t last_batch_bytes = 0;
  size_t num_rows = 0;

  /// True iff the row `ptr` addresses belongs to this prefix.
  bool Covers(PackedPointer ptr) const {
    const uint64_t b = uint64_t{ptr.batch()} + 1;
    return b < num_batches || (b == num_batches && ptr.offset() < last_batch_bytes);
  }
};

/// Dense image of one fixed-width column over consecutive rows: row i's
/// raw 8-byte slot is slots[i] and its null flag (0 or 1) nulls[i].
/// Both null when the column is not mirrored (strings).
struct ColumnSlice {
  const uint64_t* slots = nullptr;
  const uint8_t* nulls = nullptr;
};

/// Rows to read column-at-a-time: their payload pointers and, for a run
/// of one directory chunk, the dense images of their fixed-width columns.
/// A run views memory it does not own: the store's (alive while the store
/// is), or the caller's payload array.
struct RowRun {
  RowRun() = default;
  /// Scattered payloads (chain walks, probe output) with no images:
  /// every column is read from the payloads.
  RowRun(const uint8_t* const* rows, size_t n) : payloads(rows), count(n) {}

  const uint8_t* const* payloads = nullptr;
  size_t count = 0;

  /// Image of schema column `col` over this run's rows.
  ColumnSlice Column(int col) const;

 private:
  friend class RowBatchStore;
  const uint64_t* images_ = nullptr;   // the chunk's image block
  size_t offset_ = 0;                  // first row's index in its chunk
  const int32_t* image_of_col_ = nullptr;
  size_t num_cols_ = 0;
};

class RowBatchStore {
 public:
  /// Rows per directory chunk: 8 KiB of payload pointers plus 9 KiB per
  /// column image. Small enough that a partition's partly filled last
  /// chunk costs little, large enough that a run spans several kernel
  /// batches.
  static constexpr size_t kDirectoryChunkRows = 1024;
  /// 64-bit words of one column image in a chunk: the slots, then one
  /// null byte per row (a multiple of a cache line).
  static constexpr size_t kImageColumnWords =
      kDirectoryChunkRows + kDirectoryChunkRows / sizeof(uint64_t);

  /// Rows are encoded against `schema`, whose fixed-width columns get
  /// dense images. `max_batches` bounds the slot directory (the paper
  /// allows 2^31 batches per partition; we preallocate pointers for
  /// `max_batches` and fail with CapacityError beyond — configurable).
  RowBatchStore(const Schema& schema, size_t batch_bytes, size_t max_row_bytes,
                size_t max_batches = 65536);
  ~RowBatchStore();

  /// Encodes and appends `row`; `back_pointer` is written into the row
  /// header (pointer to the previous row with the same key, or Null).
  /// Returns the packed pointer addressing the new row. `prev_size` is the
  /// encoded size of the previous row in the chain (0 when none) and is
  /// packed into the pointer per the paper's layout. Appender-only.
  Result<PackedPointer> AppendRow(const Schema& schema, const Row& row,
                                  PackedPointer back_pointer, uint32_t prev_size);

  /// Appends a pre-encoded payload (bulk index build). Appender-only.
  Result<PackedPointer> AppendEncoded(const uint8_t* payload, size_t len,
                                      PackedPointer back_pointer,
                                      uint32_t prev_size);

  /// AppendRow / AppendEncoded without publishing: the row is readable
  /// through the returned pointer but is not counted until PublishStaged.
  /// Appender-only.
  Result<PackedPointer> StageRow(const Schema& schema, const Row& row,
                                 PackedPointer back_pointer, uint32_t prev_size);
  Result<PackedPointer> StageEncoded(const uint8_t* payload, size_t len,
                                     PackedPointer back_pointer,
                                     uint32_t prev_size);

  /// Publishes every staged row (release): row counts and watermarks
  /// acquired afterwards cover them. Appender-only.
  void PublishStaged() {
    num_rows_.store(directory_rows_, std::memory_order_release);
  }

  /// Payload address of the row `ptr` points at. `ptr` must be non-null and
  /// produced by this store. Thread-safe.
  const uint8_t* PayloadAt(PackedPointer ptr) const {
    return BatchAt(ptr.batch())->payload_at(ptr.offset());
  }

  /// Back pointer stored in the header of the row `ptr` points at.
  PackedPointer BackPointerAt(PackedPointer ptr) const {
    return BatchAt(ptr.batch())->back_pointer_at(ptr.offset());
  }

  /// Batch pointer (thread-safe for indexes below the watermark).
  const RowBatch* BatchAt(uint32_t i) const {
    return slots_[i].load(std::memory_order_acquire);
  }

  /// Payload of the row with append ordinal `pos`. Thread-safe for `pos`
  /// below a row count acquired from this store (num_rows(), Watermark()).
  const uint8_t* PayloadOfRow(size_t pos) const {
    const Spine* spine = spine_.load(std::memory_order_acquire);
    return spine->chunks[pos / kDirectoryChunkRows][pos % kDirectoryChunkRows];
  }

  /// Calls `fn(const RowRun&)` on consecutive runs that cover the
  /// ordinals [begin, end) in append order; a run never crosses a chunk.
  /// Same thread-safety contract as PayloadOfRow for `end`.
  template <typename Fn>
  void ForEachRun(size_t begin, size_t end, Fn&& fn) const {
    if (begin >= end) return;
    const Spine* spine = spine_.load(std::memory_order_acquire);
    RowRun run;
    run.image_of_col_ = image_of_col_.data();
    run.num_cols_ = image_of_col_.size();
    while (begin < end) {
      const size_t c = begin / kDirectoryChunkRows;
      run.offset_ = begin % kDirectoryChunkRows;
      run.count = std::min(end - begin, kDirectoryChunkRows - run.offset_);
      run.payloads = spine->chunks[c] + run.offset_;
      run.images_ = spine->images[c];
      fn(static_cast<const RowRun&>(run));
      begin += run.count;
    }
  }

  /// Captures the current consistent prefix: one acquired row count, with
  /// the byte bound taken from the last row it covers. Thread-safe.
  StoreWatermark Watermark() const;

  size_t num_batches() const {
    return num_batches_.load(std::memory_order_acquire);
  }
  size_t num_rows() const { return num_rows_.load(std::memory_order_acquire); }
  size_t max_batches() const { return max_batches_; }

  /// Total bytes allocated in batches (capacity) and actually used.
  size_t allocated_bytes() const { return num_batches() * batch_bytes_; }
  size_t used_bytes() const;

  /// Bytes of the row directory: its chunks, its column images and its
  /// live and replaced spines. Thread-safe (the appender keeps an atomic
  /// count).
  size_t directory_bytes() const {
    return directory_bytes_.load(std::memory_order_relaxed);
  }

  size_t max_row_bytes() const { return max_row_bytes_; }

 private:
  size_t batch_bytes_;
  size_t max_row_bytes_;
  size_t max_batches_;
  std::atomic<size_t> num_batches_{0};
  std::atomic<size_t> num_rows_{0};
  std::unique_ptr<std::atomic<RowBatch*>[]> slots_;
  std::vector<uint8_t> scratch_;

  // Row directory. Readers touch only the spine they acquire and the
  // chunks it names; the vectors below are appender-only ownership.
  struct Spine {
    explicit Spine(size_t cap)
        : capacity(cap),
          chunks(new const uint8_t**[cap]),
          images(new const uint64_t*[cap]) {}
    size_t capacity;
    std::unique_ptr<const uint8_t**[]> chunks;
    std::unique_ptr<const uint64_t*[]> images;  // null without image columns
  };
  void AppendToDirectory(const uint8_t* payload);
  /// Opens chunk `c` and publishes it in the live spine (or a grown one).
  void OpenChunk(size_t c);
  std::atomic<const Spine*> spine_{nullptr};
  std::vector<std::unique_ptr<Spine>> spines_;  // live one last
  std::vector<std::unique_ptr<const uint8_t*[]>> chunks_;
  std::vector<std::unique_ptr<uint64_t[]>> image_chunks_;

  // Column images: the mirrored schema columns in image order, and each
  // schema column's image index (-1: not mirrored).
  size_t bitmap_bytes_;
  std::vector<int> image_cols_;
  std::vector<int32_t> image_of_col_;
  size_t directory_rows_ = 0;  // appender's count of directory entries
  std::atomic<size_t> directory_bytes_{0};
};

inline ColumnSlice RowRun::Column(int col) const {
  if (col < 0 || static_cast<size_t>(col) >= num_cols_) return {};
  const int j = image_of_col_[col];
  if (j < 0) return {};
  const uint64_t* base = images_ + static_cast<size_t>(j) * RowBatchStore::kImageColumnWords;
  return {base + offset_,
          reinterpret_cast<const uint8_t*>(base + RowBatchStore::kDirectoryChunkRows) +
              offset_};
}

}  // namespace idf
