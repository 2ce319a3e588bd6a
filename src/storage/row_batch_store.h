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
// tail to find the next one. It is chunked (kDirectoryChunkRows pointers
// per chunk) behind a spine that doubles when full; a replaced spine stays
// alive until the store dies, so a reader holding it never reads freed
// memory. The appender writes a row's entry (and any new chunk or spine)
// before the release store of num_rows_, so every ordinal below an
// acquired row count is readable without locks.
//
// Appends may be staged: a staged row is written (bytes, header, directory
// entry) and addressable by its packed pointer, but no row count or
// watermark covers it until PublishStaged(). IndexedPartition stages a
// batch, links it into the cTrie, then publishes, so every row a watermark
// covers is already reachable from its key's head.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/config.h"
#include "storage/row_batch.h"

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

class RowBatchStore {
 public:
  /// Row-directory entries per chunk (32 KiB of payload pointers).
  static constexpr size_t kDirectoryChunkRows = 4096;

  /// `max_batches` bounds the slot directory (the paper allows 2^31
  /// batches per partition; we preallocate pointers for `max_batches` and
  /// fail with CapacityError beyond — configurable).
  RowBatchStore(size_t batch_bytes, size_t max_row_bytes,
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

  /// Calls `fn(payloads, count)` on consecutive directory runs that cover
  /// the ordinals [begin, end) in append order; a run never crosses a
  /// chunk. Same thread-safety contract as PayloadOfRow for `end`.
  template <typename Fn>
  void ForEachPayloadRun(size_t begin, size_t end, Fn&& fn) const {
    if (begin >= end) return;
    const Spine* spine = spine_.load(std::memory_order_acquire);
    while (begin < end) {
      const size_t off = begin % kDirectoryChunkRows;
      const size_t n = std::min(end - begin, kDirectoryChunkRows - off);
      fn(spine->chunks[begin / kDirectoryChunkRows] + off, n);
      begin += n;
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

  /// Bytes of the row directory: its chunks plus its live and replaced
  /// spines. Thread-safe (the appender keeps an atomic count).
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
    explicit Spine(size_t cap) : capacity(cap), chunks(new const uint8_t**[cap]) {}
    size_t capacity;
    std::unique_ptr<const uint8_t**[]> chunks;
  };
  void AppendToDirectory(const uint8_t* payload);
  std::atomic<const Spine*> spine_{nullptr};
  std::vector<std::unique_ptr<Spine>> spines_;  // live one last
  std::vector<std::unique_ptr<const uint8_t*[]>> chunks_;
  size_t directory_rows_ = 0;  // appender's count of directory entries
  std::atomic<size_t> directory_bytes_{0};
};

}  // namespace idf
