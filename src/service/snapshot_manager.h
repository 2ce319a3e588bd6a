// SnapshotManager: MVCC epoch boundaries for the query service. All
// updatable tables a service exposes register here; appends and snapshot
// pinning are then serialized against each other by a single
// reader/writer gate so a pinned snapshot always sits on an epoch
// boundary:
//
//  - An append batch holds the gate SHARED for the whole batch — across
//    every partition it touches and every index it fans out to (a
//    multi-indexed table keeps one IndexedRelation per index). Appenders
//    therefore run concurrently with each other, exactly as without the
//    manager.
//  - PinAll() holds the gate EXCLUSIVE while it captures the per-partition
//    views (store watermarks) of every index of every registered table.
//    No batch can be mid-flight at that instant, so a reader never
//    observes a torn batch: half of a multi-partition append, or a row
//    present in one index of a table but missing from another.
//
// Pinning is O(total partitions) atomic loads (a generation pointer and a
// store watermark per partition; nothing is written or copied), so the
// exclusive section is microseconds even with many tables; appends are
// delayed by at most that.
//
// Pins are additionally cached per epoch: while no batch commits, every
// PinAll() after the first returns the cached snapshot without touching
// the gate at all. Readers therefore never wait behind an in-flight
// append batch (its epoch bump only lands at commit) — only the first
// pin after a commit takes the exclusive section. This is what keeps
// reader tail latency flat under a continuous append stream.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "indexed/indexed_relation.h"
#include "indexed/multi_indexed_table.h"

namespace idf {

/// One registered table's pins, captured at one epoch. `pins[i]` pairs the
/// index column ordinal with that index's pinned snapshot; `primary()` is
/// the first (only) index for single-index tables.
struct PinnedTable {
  std::string table;
  std::vector<std::pair<int, PinnedSnapshotPtr>> pins;

  const PinnedSnapshotPtr& primary() const { return pins.front().second; }
};

/// A consistent cross-table snapshot: every pin was captured inside the
/// same exclusive section, with no append batch mid-flight. Installed on
/// an ExecutorContext, it makes a plan over the live relations read this
/// epoch.
struct ServiceSnapshot : SnapshotPins {
  uint64_t epoch = 0;
  std::vector<PinnedTable> tables;

  const PinnedTable* find(const std::string& table) const {
    for (const PinnedTable& t : tables) {
      if (t.table == table) return &t;
    }
    return nullptr;
  }

  const PinnedSnapshot* Find(const IndexedRelationBase& relation) const override {
    for (const PinnedTable& t : tables) {
      for (const auto& [col, pin] : t.pins) {
        if (pin->origin() == &relation) return pin.get();
      }
    }
    return nullptr;
  }
};
using ServiceSnapshotPtr = std::shared_ptr<const ServiceSnapshot>;

/// Registered schema of one table (planning metadata for the view
/// subsystem: no pins, no data).
struct TableInfo {
  std::string name;
  SchemaPtr schema;
};

class SnapshotManager {
 public:
  /// \brief Observer of committed append batches (the delta feed of the
  /// materialized-view subsystem).
  ///
  /// When a sink is installed and `wants_deltas()`, every Append commit
  /// hands it the batch's rows tagged with the epoch that commit produced.
  /// OnCommit calls are serialized and arrive in strict epoch order (a
  /// small commit mutex covers the epoch bump and the callback), so the
  /// sink sees a gap-free, ordered delta stream. The callback runs inside
  /// the shared gate section on the appender's thread: it must be quick
  /// (enqueue, don't process) and must never call back into the manager.
  class CommitSink {
   public:
    virtual ~CommitSink() = default;
    /// Polled before capturing a delta; false skips the copy and the
    /// commit mutex entirely (zero overhead while no view is live).
    virtual bool wants_deltas() const = 0;
    virtual void OnCommit(const std::string& table,
                          std::shared_ptr<const RowVec> rows,
                          uint64_t epoch) = 0;
  };

  /// `exec` powers the parallel append path (partition fan-out).
  explicit SnapshotManager(ExecutorContextPtr exec) : exec_(std::move(exec)) {}

  /// Installs (or clears, with nullptr) the commit sink. Not owned; the
  /// sink must outlive all Append calls.
  void SetCommitSink(CommitSink* sink) {
    sink_.store(sink, std::memory_order_release);
  }

  /// Registers a single-index table. Names must be unique.
  Status RegisterTable(const std::string& name, IndexedRelationPtr relation);

  /// Registers a multi-index table: appends through the manager reach all
  /// of its indexes inside one epoch, and PinAll captures all of them.
  Status RegisterTable(const std::string& name,
                       std::shared_ptr<MultiIndexedTable> table);

  /// Appends one batch to `table` (all its indexes) as a single epoch
  /// step. Concurrent appends to any tables run in parallel; pinners wait.
  Status Append(const std::string& table, const RowVec& rows);

  /// Pins every index of every registered table at one epoch boundary.
  /// Served from the per-epoch cache when no batch has committed since
  /// the last pin (no gate acquisition on that path): one lock and one
  /// reference count.
  ServiceSnapshotPtr PinAll();

  /// A planning session over `exec` with the indexed extensions installed
  /// and every registered table bound by name to its live primary index.
  /// Plans built in it read whatever version the executing context pins
  /// (see ExecutorContext::SetPins), so one plan serves every epoch.
  Result<SessionPtr> MakeSession(ExecutorContextPtr exec) const;

  /// Epochs committed so far (monotonic; one per Append batch).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Bumps on every RegisterTable: a plan lowered at an older version may
  /// bind a stale name, schema or index shape and must be re-lowered.
  uint64_t ddl_version() const {
    return ddl_version_.load(std::memory_order_acquire);
  }

  std::vector<std::string> TableNames() const;

  /// Name, schema, and indexed-column ordinals of every registered table
  /// (the planning metadata Subscribe() needs — no pinning involved).
  std::vector<TableInfo> TableInfos() const;

  /// Every registered IndexedRelation (one per index of every table), for
  /// maintenance machinery such as the Compactor.
  std::vector<IndexedRelationPtr> Relations() const;

 private:
  void InvalidateCache();

  struct Entry {
    // Every index of the table; one element for single-index tables. The
    // multi-table handle (when present) owns the fan-out append.
    std::vector<IndexedRelationPtr> indexes;
    std::shared_ptr<MultiIndexedTable> multi;
  };

  ExecutorContextPtr exec_;
  // The epoch gate (see file comment). Also guards `tables_` mutation.
  mutable std::shared_mutex gate_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> ddl_version_{0};
  std::map<std::string, Entry> tables_;

  // Delta feed. `commit_mu_` makes {epoch bump, OnCommit} atomic so the
  // sink's delta stream is ordered exactly like the epochs; it is taken
  // only when a sink wants deltas, so the plain append path is unchanged.
  std::atomic<CommitSink*> sink_{nullptr};
  std::mutex commit_mu_;

  // Epoch-keyed pin cache (separate tiny lock: held only for a pointer
  // compare/copy, never while pinning or appending). Invalidated by
  // RegisterTable; superseded naturally by epoch bumps.
  mutable std::mutex cache_mu_;
  std::shared_ptr<const ServiceSnapshot> cached_;
};

}  // namespace idf
