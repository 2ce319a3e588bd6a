// MaterializedViewManager: standing queries maintained incrementally
// (DESIGN.md §13). A client Subscribe()s a SQL query once and thereafter
// reads maintained results; every Append commit feeds the manager a delta
// batch (SnapshotManager::CommitSink) and one maintenance pass advances
// every registered view by the delta alone:
//
//   select views     compiled/vectorized predicates filter the encoded
//                    delta rows; survivors pass the view's row-wise
//                    post-ops and become the pass's new published rows.
//   join views       the insert-only delta rule Δ(L⋈R) = ΔL⋈R_cur +
//                    L_prev⋈ΔR: delta rows probe the other side's pinned
//                    cTrie index (point lookups, newest-first chains), and
//                    the previous pass's pin on the left keeps pairs of
//                    same-pass deltas from counting twice. A term whose
//                    probe key has no primary index hashes its delta rows
//                    and reads the other side at the term's pin instead:
//                    through the index an equality in that side's WHERE
//                    names when there is one, else one pass over its
//                    stored rows decoding only the join key. Joined rows
//                    pass the row-wise post-ops before they are published.
//   aggregate views  the group state lives resident; the delta's rows —
//                    or, over a join, the joined rows both join terms emit
//                    (Δγ(L⋈R) = γ(ΔL⋈R_cur) + γ(L_prev⋈ΔR)) — fold into it
//                    with aggregate_common's UpdateState, the kernel the
//                    from-scratch operator uses. Each group keeps the row
//                    it last published.
//   anything else    correct-but-not-incremental fallback: a physical plan
//                    lowered once (re-lowered when DDL moves) re-executes
//                    against each new epoch pin (counted as
//                    views_recomputed).
//
// Publishing costs what the pass changed (view/view_trace.h): each pass
// pushes one sorted delta run onto the view's trace — new rows at +1, or a
// changed group's previous row at -1 and its new row at +1 — and the run
// stack merges geometrically. A snapshot captures the run list; its first
// reader builds the rows (from the previous snapshot's rows plus this
// pass's run when a reader already built those) and runs Sort/Limit.
//
// Arrangement sharing: subscriptions whose optimized plans render to the
// same fingerprint attach to ONE maintained view (refcounted); 100
// dashboards asking the same question cost one delta propagation per
// commit, not 100 scans.
//
// Subscriber reads are lock-free: each pass publishes an immutable
// ViewSnapshot (epoch-tagged, monotonically versioned) via an atomic
// shared_ptr swap; Snapshot() never touches a mutex. Optional callbacks
// fire after the pass releases the maintenance lock.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/snapshot_manager.h"
#include "sql/aggregate_common.h"
#include "sql/vectorized_eval.h"
#include "view/view_plan.h"
#include "view/view_trace.h"

namespace idf {

class MaterializedViewManager;
namespace view_detail {
struct MaintainedView;
struct CompiledFilter;
}

/// A client's handle on a standing query. Snapshot() is wait-free (one
/// atomic shared_ptr load); the optional callback passed to Subscribe()
/// fires once per publish, outside the maintenance lock, on the thread
/// that ran the pass.
class ViewSubscription {
 public:
  using Callback = std::function<void(const ViewSnapshot&)>;

  uint64_t id() const { return id_; }
  const std::string& sql() const { return sql_; }
  /// The maintenance strategy chosen at subscribe time (a later pass may
  /// still degrade the arrangement to recompute on a maintenance error).
  ViewKind kind() const { return kind_; }

  /// Latest published result (never null after Subscribe returns).
  ViewSnapshotPtr Snapshot() const;

 private:
  friend class MaterializedViewManager;
  uint64_t id_ = 0;
  std::string sql_;
  ViewKind kind_ = ViewKind::kRecompute;
  Callback callback_;
  std::shared_ptr<view_detail::MaintainedView> view_;
};
using ViewSubscriptionPtr = std::shared_ptr<ViewSubscription>;

/// View counters; exported through ServiceStats except resident_rows,
/// maintenance_errors, recompute_plans_lowered and scan_term_rows.
struct ViewManagerStats {
  uint64_t views_registered = 0;    ///< live maintained arrangements
  uint64_t view_subscribers = 0;    ///< live subscriptions
  uint64_t arrangements_shared = 0; ///< subscriptions that joined an existing arrangement
  uint64_t deltas_propagated = 0;   ///< delta batches applied to views
  uint64_t rows_maintained_incrementally = 0;  ///< delta rows folded into resident state
  uint64_t resident_rows = 0;       ///< rows published now by select/join views + aggregate groups
  uint64_t trace_runs = 0;          ///< delta runs on the live views' traces
  uint64_t trace_rows = 0;          ///< (row, diff) entries across those runs
  uint64_t maintenance_us = 0;      ///< total wall time of maintenance passes, microseconds
  uint64_t views_recomputed = 0;    ///< full recompute passes (fallback shape)
  uint64_t recompute_plans_lowered = 0;  ///< physical plans built for recompute views
  uint64_t maintenance_errors = 0;  ///< passes that degraded a view to recompute
  uint64_t scan_term_rows = 0;      ///< rows join scan terms read from the side without a key index
  uint64_t read_errors = 0;         ///< snapshot reads whose Sort/Limit failed (empty rows + rows.status())
};

class MaterializedViewManager final : public SnapshotManager::CommitSink {
 public:
  /// Does not own `snapshots`; the caller (QueryService) installs this as
  /// its commit sink and guarantees the manager outlives the delta feed.
  MaterializedViewManager(SnapshotManager* snapshots, ExecutorContextPtr exec);
  ~MaterializedViewManager() override;

  /// Registers a standing query. Parses and classifies `sql`, attaches to
  /// an existing arrangement when the plan fingerprint matches one, and
  /// otherwise builds the initial state from a fresh epoch pin. The
  /// returned subscription carries a valid Snapshot() immediately.
  Result<ViewSubscriptionPtr> Subscribe(const std::string& sql,
                                        ViewSubscription::Callback callback =
                                            nullptr);

  /// Detaches one subscription; the arrangement is torn down when its last
  /// subscriber leaves.
  Status Unsubscribe(const ViewSubscriptionPtr& sub);

  // --- SnapshotManager::CommitSink ---
  bool wants_deltas() const override {
    return has_views_.load(std::memory_order_acquire);
  }
  void OnCommit(const std::string& table, std::shared_ptr<const RowVec> rows,
                uint64_t epoch) override;

  /// True when queued deltas are waiting and at least one view is live.
  bool HasWork() const;

  /// Drains the delta queue into every registered view and publishes new
  /// snapshots. Serialized internally; concurrent callers coalesce (a
  /// caller may find its delta already propagated by another thread).
  void Propagate();

  ViewManagerStats Stats() const;
  size_t num_views() const;

 private:
  struct DeltaBatch {
    std::string table;
    uint64_t epoch = 0;
    std::shared_ptr<const RowVec> rows;
    // Lazily encoded once per pass, shared by every view that filters
    // this batch through the compiled/vectorized path.
    std::optional<EncodedRowBatch> enc;
    std::vector<const uint8_t*> payloads;
  };

  using MaintainedView = view_detail::MaintainedView;
  using CompiledFilter = view_detail::CompiledFilter;

  /// Runs one maintenance pass. Caller holds maintenance_mu_; publishes
  /// snapshots and appends (callback, snapshot) pairs to `callbacks` for
  /// the caller to fire after unlocking.
  void PropagateLocked(
      std::vector<std::pair<ViewSubscription::Callback, ViewSnapshotPtr>>*
          callbacks);

  /// Applies one delta batch to one view's resident state (no publish).
  /// `right_term` enables join term 2 (L_prev ⋈ ΔR); InitializeState
  /// disables it while seeding the left table so a self-join (left table
  /// == right table) does not count the seed rows twice.
  Status ApplyDelta(MaintainedView* view, DeltaBatch* delta,
                    const ServiceSnapshot& cur, bool right_term = true);

  /// Appends to `out` the joined rows (left columns first) that `delta`
  /// adds to the view's join core: term 1 (ΔL ⋈ R_cur) and, when
  /// `right_term`, term 2 (L_prev ⋈ ΔR).
  Status JoinDelta(MaintainedView* view, DeltaBatch* delta,
                   const ServiceSnapshot& cur, bool right_term, RowVec* out);

  /// One join term: the `sel` rows of `delta` (keyed on `delta_key`) meet
  /// the `other` input as of `pin`, through its primary index on
  /// `other_key` when `pin` holds one; otherwise through the index an
  /// equality in `other_filter` names, else by one pass over its stored
  /// rows. `delta_is_left` orders the concatenation.
  Status JoinTerm(const ServiceSnapshot& pin, const ViewInput& other,
                  int other_key, CompiledFilter* other_filter,
                  const RowVec& delta, const std::vector<uint32_t>& sel,
                  int delta_key, bool delta_is_left, RowVec* out);

  /// Runs one delta batch through a view's prepared filter; returns the
  /// ascending indexes of surviving rows. Encodes the batch lazily when
  /// the compiled/vectorized path can use it (shared across views).
  static Result<std::vector<uint32_t>> FilterDelta(
      CompiledFilter* filter, DeltaBatch* delta,
      const SchemaPtr& schema, ExecutorContext& exec);

  /// Publishes the view's next snapshot: pushes this pass's changes onto
  /// its trace (or, for recompute views, re-executes the cached plan
  /// against `cur`).
  Status PublishLocked(MaintainedView* view, const ServiceSnapshotPtr& cur,
                       std::vector<std::pair<ViewSubscription::Callback,
                                             ViewSnapshotPtr>>* callbacks);

  /// Feeds the full pinned contents of the view's base table(s) through
  /// the delta path to build the initial resident state.
  Status InitializeState(MaintainedView* view, const ServiceSnapshot& snap);

  /// Executes the view's cached physical plan against `snap` (recompute
  /// fallback), lowering it first when missing or older than the DDL.
  Result<RowVec> RecomputeAgainst(MaintainedView* view,
                                  const ServiceSnapshotPtr& snap);

  SnapshotManager* snapshots_;
  ExecutorContextPtr exec_;

  std::atomic<bool> has_views_{false};
  std::atomic<uint64_t> next_id_{1};

  // Leaf lock: only ever guards the queue (pushed under the snapshot
  // manager's commit mutex, popped under maintenance_mu_).
  mutable std::mutex queue_mu_;
  std::deque<DeltaBatch> queue_;

  // Serializes maintenance passes and view registry mutation.
  mutable std::mutex maintenance_mu_;
  std::unordered_map<std::string, std::shared_ptr<MaintainedView>>
      views_by_fingerprint_;

  std::atomic<uint64_t> deltas_propagated_{0};
  std::atomic<uint64_t> rows_maintained_{0};
  std::atomic<uint64_t> arrangements_shared_{0};
  std::atomic<uint64_t> views_recomputed_{0};
  std::atomic<uint64_t> recompute_plans_lowered_{0};
  std::atomic<uint64_t> maintenance_errors_{0};
  std::atomic<uint64_t> maintenance_ns_{0};
  std::atomic<uint64_t> scan_term_rows_{0};
  // Shared with every snapshot of a view with read-side post-ops, which
  // may outlive the manager.
  std::shared_ptr<std::atomic<uint64_t>> read_errors_ =
      std::make_shared<std::atomic<uint64_t>>(0);
};

}  // namespace idf
