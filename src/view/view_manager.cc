#include "view/view_manager.h"

#include <algorithm>
#include <utility>

#include "sql/session.h"

namespace idf {

namespace view_detail {

/// A base-table filter prepared at subscribe time: the conjunction is
/// split into a compiled program (run batch-at-a-time over the encoded
/// delta) and an interpreter residual (run on the survivors only) — the
/// same split the scan operators use.
struct CompiledFilter {
  ExprPtr predicate;  // null = accept every row
  PredicateSplit split;
  std::unique_ptr<VectorizedPredicate> vec;
  VectorScratch scratch;

  void Build(const ExprPtr& pred, const SchemaPtr& schema) {
    predicate = pred;
    if (predicate == nullptr) return;
    split = SplitForCompilation(predicate, *schema);
    if (split.compiled.has_value()) {
      vec = std::make_unique<VectorizedPredicate>(*split.compiled);
    }
  }
};

/// One maintained arrangement, shared by every subscription whose plan
/// fingerprint matches. All fields except `published` are guarded by the
/// manager's maintenance mutex; `published` is swapped/read via the atomic
/// shared_ptr free functions (lock-free subscriber reads).
struct MaintainedView {
  uint64_t id = 0;
  ViewSpec spec;

  CompiledFilter input_filter;          // kSelect / kAggregate
  CompiledFilter left_filter, right_filter;  // kJoin

  RowVec core_rows;     // kSelect / kJoin resident result (published shape)
  GroupStateMap groups; // kAggregate resident state

  /// Deltas with epoch <= this are already reflected in the state.
  uint64_t applied_epoch = 0;
  uint64_t published_version = 0;

  /// kJoin: the pin of this view's previous pass. Right-side deltas probe
  /// the left table HERE (not in the current pin) so pairs where both rows
  /// arrived since the last pass are not counted by both join terms.
  ServiceSnapshot prev_pin;

  std::shared_ptr<const ViewSnapshot> published;

  std::vector<std::weak_ptr<ViewSubscription>> subscribers;
  size_t subscriber_count = 0;
};

}  // namespace view_detail

using view_detail::CompiledFilter;
using view_detail::MaintainedView;

ViewSnapshotPtr ViewSubscription::Snapshot() const {
  return std::atomic_load_explicit(&view_->published,
                                   std::memory_order_acquire);
}

namespace {

/// The pin of `table`'s index on column `col` inside `snap`, or null.
PinnedSnapshotPtr FindPin(const ServiceSnapshot& snap, const std::string& table,
                          int col) {
  const PinnedTable* t = snap.find(table);
  if (t == nullptr) return nullptr;
  for (const auto& [ordinal, pin] : t->pins) {
    if (ordinal == col) return pin;
  }
  return nullptr;
}

/// Collects the full contents of `table`'s primary pin (append order per
/// partition).
Result<RowVec> ScanPinnedTable(const ServiceSnapshot& snap,
                               const std::string& table) {
  const PinnedTable* t = snap.find(table);
  if (t == nullptr) {
    return Status::Internal("view init: table not pinned: " + table);
  }
  RowVec rows;
  const IndexedRelationSnapshot& rel = t->primary()->snapshot();
  for (int p = 0; p < rel.num_partitions(); ++p) {
    rel.view(p).Scan([&rows](const Row& row) { rows.push_back(row); });
  }
  return rows;
}

bool EvalKeep(const ExprPtr& predicate, const Row& row, Status* status) {
  Result<Value> v = predicate->Eval(row);
  if (!v.ok()) {
    *status = v.status();
    return false;
  }
  return v.ValueOrDie().is_bool() && v.ValueOrDie().bool_value();
}

/// Runs the view's row-wise post-ops over one delta's output rows and
/// appends the survivors to the resident result; returns how many landed.
Result<size_t> AppendToCore(MaintainedView* view, RowVec rows) {
  IDF_RETURN_NOT_OK(ApplyPostOps(view->spec.row_post, &rows));
  view->core_rows.insert(view->core_rows.end(),
                         std::make_move_iterator(rows.begin()),
                         std::make_move_iterator(rows.end()));
  return rows.size();
}

}  // namespace

MaterializedViewManager::MaterializedViewManager(SnapshotManager* snapshots,
                                                 ExecutorContextPtr exec)
    : snapshots_(snapshots), exec_(std::move(exec)) {}

MaterializedViewManager::~MaterializedViewManager() = default;

void MaterializedViewManager::OnCommit(const std::string& table,
                                       std::shared_ptr<const RowVec> rows,
                                       uint64_t epoch) {
  DeltaBatch batch;
  batch.table = table;
  batch.epoch = epoch;
  batch.rows = std::move(rows);
  std::lock_guard<std::mutex> lock(queue_mu_);
  queue_.push_back(std::move(batch));
}

bool MaterializedViewManager::HasWork() const {
  if (!has_views_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(queue_mu_);
  return !queue_.empty();
}

size_t MaterializedViewManager::num_views() const {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return views_by_fingerprint_.size();
}

void MaterializedViewManager::Propagate() {
  std::vector<std::pair<ViewSubscription::Callback, ViewSnapshotPtr>> callbacks;
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    PropagateLocked(&callbacks);
  }
  for (auto& [callback, snapshot] : callbacks) callback(*snapshot);
}

Result<std::vector<uint32_t>> MaterializedViewManager::FilterDelta(
    CompiledFilter* filter, DeltaBatch* delta, const SchemaPtr& schema,
    ExecutorContext& exec) {
  const RowVec& rows = *delta->rows;
  const uint32_t n = static_cast<uint32_t>(rows.size());
  std::vector<uint32_t> sel;
  if (filter->predicate == nullptr) {
    sel.resize(n);
    for (uint32_t i = 0; i < n; ++i) sel[i] = i;
    return sel;
  }
  Status status = Status::OK();
  if (filter->vec != nullptr) {
    if (!delta->enc.has_value()) {
      IDF_ASSIGN_OR_RETURN(EncodedRowBatch enc,
                           EncodeRowBatch(exec, *schema, rows));
      delta->enc = std::move(enc);
      delta->payloads.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        delta->payloads[i] = delta->enc->payload(i);
      }
    }
    sel.resize(n);
    const size_t kept = filter->vec->FilterBatch(delta->payloads.data(), n,
                                                 sel.data(), &filter->scratch);
    sel.resize(kept);
    if (filter->split.residual != nullptr) {
      std::vector<uint32_t> out;
      out.reserve(kept);
      for (uint32_t i : sel) {
        if (EvalKeep(filter->split.residual, rows[i], &status)) out.push_back(i);
        IDF_RETURN_NOT_OK(status);
      }
      sel = std::move(out);
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      if (EvalKeep(filter->predicate, rows[i], &status)) sel.push_back(i);
      IDF_RETURN_NOT_OK(status);
    }
  }
  return sel;
}

Status MaterializedViewManager::ApplyDelta(MaintainedView* view,
                                           DeltaBatch* delta,
                                           const ServiceSnapshot& cur,
                                           bool right_term) {
  const ViewSpec& spec = view->spec;
  switch (spec.kind) {
    case ViewKind::kSelect: {
      IDF_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                           FilterDelta(&view->input_filter, delta,
                                       spec.input.schema, *exec_));
      RowVec kept;
      kept.reserve(sel.size());
      for (uint32_t i : sel) kept.push_back((*delta->rows)[i]);
      IDF_ASSIGN_OR_RETURN(size_t added, AppendToCore(view, std::move(kept)));
      rows_maintained_.fetch_add(added, std::memory_order_relaxed);
      return Status::OK();
    }
    case ViewKind::kAggregate: {
      IDF_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                           FilterDelta(&view->input_filter, delta,
                                       spec.input.schema, *exec_));
      const size_t num_aggs = spec.aggs.size();
      // Fold the delta into a partial map, then merge it into the resident
      // arrangement with the same MergeStates kernels the from-scratch
      // operator's partial-merge phase uses.
      GroupStateMap partial;
      for (uint32_t i : sel) {
        const Row& row = (*delta->rows)[i];
        Row key;
        key.reserve(spec.group_exprs.size());
        for (const ExprPtr& g : spec.group_exprs) {
          IDF_ASSIGN_OR_RETURN(Value v, g->Eval(row));
          key.push_back(std::move(v));
        }
        std::vector<AggState>& states = partial[std::move(key)];
        if (states.empty()) states.resize(num_aggs);
        for (size_t a = 0; a < num_aggs; ++a) {
          Value v;
          if (spec.aggs[a].arg != nullptr) {
            IDF_ASSIGN_OR_RETURN(v, spec.aggs[a].arg->Eval(row));
          }
          UpdateState(&states[a], spec.aggs[a].fn, v);
        }
      }
      for (auto& [key, states] : partial) {
        std::vector<AggState>& resident = view->groups[key];
        if (resident.empty()) resident.resize(num_aggs);
        for (size_t a = 0; a < num_aggs; ++a) {
          MergeStates(&resident[a], spec.aggs[a].fn, states[a]);
        }
      }
      rows_maintained_.fetch_add(sel.size(), std::memory_order_relaxed);
      return Status::OK();
    }
    case ViewKind::kJoin: {
      RowVec emitted;
      Status status = Status::OK();
      // Term 1: ΔL ⋈ R_cur — new left rows probe the right index pinned at
      // the CURRENT epoch (which already contains any same-pass right
      // deltas, so cross-delta pairs are produced exactly here).
      if (delta->table == spec.left.table) {
        IDF_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                             FilterDelta(&view->left_filter, delta,
                                         spec.left.schema, *exec_));
        PinnedSnapshotPtr right_pin =
            FindPin(cur, spec.right.table, spec.right_key_col);
        if (right_pin == nullptr) {
          return Status::Internal("join view: right-side index pin missing");
        }
        for (uint32_t i : sel) {
          const Row& l = (*delta->rows)[i];
          const Value& key = l[static_cast<size_t>(spec.left_key_col)];
          if (key.is_null()) continue;  // inner join: null never matches
          for (const Row& r : right_pin->GetRows(key)) {
            if (spec.right.predicate != nullptr &&
                !EvalKeep(spec.right.predicate, r, &status)) {
              IDF_RETURN_NOT_OK(status);
              continue;
            }
            emitted.push_back(ConcatRows(l, r));
          }
        }
      }
      // Term 2: L_prev ⋈ ΔR — new right rows probe the left index pinned
      // at the PREVIOUS pass, so a (ΔL, ΔR) pair of this pass is counted
      // by term 1 only.
      if (right_term && delta->table == spec.right.table) {
        IDF_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                             FilterDelta(&view->right_filter, delta,
                                         spec.right.schema, *exec_));
        PinnedSnapshotPtr left_pin =
            FindPin(view->prev_pin, spec.left.table, spec.left_key_col);
        if (left_pin == nullptr) {
          return Status::Internal("join view: left-side index pin missing");
        }
        for (uint32_t i : sel) {
          const Row& r = (*delta->rows)[i];
          const Value& key = r[static_cast<size_t>(spec.right_key_col)];
          if (key.is_null()) continue;
          for (const Row& l : left_pin->GetRows(key)) {
            if (spec.left.predicate != nullptr &&
                !EvalKeep(spec.left.predicate, l, &status)) {
              IDF_RETURN_NOT_OK(status);
              continue;
            }
            emitted.push_back(ConcatRows(l, r));
          }
        }
      }
      IDF_ASSIGN_OR_RETURN(size_t added,
                           AppendToCore(view, std::move(emitted)));
      rows_maintained_.fetch_add(added, std::memory_order_relaxed);
      return Status::OK();
    }
    case ViewKind::kRecompute:
      return Status::OK();  // state is rebuilt at publish time
  }
  return Status::Internal("unreachable view kind");
}

Status MaterializedViewManager::PublishLocked(
    MaintainedView* view, const ServiceSnapshotPtr& cur,
    std::vector<std::pair<ViewSubscription::Callback, ViewSnapshotPtr>>*
        callbacks) {
  const ViewSpec& spec = view->spec;
  RowVec out;
  if (spec.kind == ViewKind::kRecompute) {
    IDF_ASSIGN_OR_RETURN(out, RecomputeAgainst(spec.sql, cur));
    views_recomputed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (spec.kind == ViewKind::kAggregate) {
      out.reserve(view->groups.size());
      for (const auto& [key, states] : view->groups) {
        Row row = key;
        for (size_t a = 0; a < spec.aggs.size(); ++a) {
          AppendFinal(&row, spec.aggs[a].fn, states[a], spec.agg_out_types[a]);
        }
        out.push_back(std::move(row));
      }
      // The hash map iterates in an unspecified order; publish a canonical
      // one so equal states always render equal snapshots.
      SortRows(&out);
    } else {
      out = view->core_rows;
    }
    IDF_RETURN_NOT_OK(ApplyPostOps(spec.post, &out));
  }

  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->epoch = cur->epoch;
  snapshot->version = ++view->published_version;
  snapshot->schema = spec.output_schema;
  snapshot->rows = std::make_shared<const RowVec>(std::move(out));
  std::atomic_store_explicit(&view->published,
                             ViewSnapshotPtr(std::move(snapshot)),
                             std::memory_order_release);

  ViewSnapshotPtr published =
      std::atomic_load_explicit(&view->published, std::memory_order_acquire);
  for (auto it = view->subscribers.begin(); it != view->subscribers.end();) {
    ViewSubscriptionPtr sub = it->lock();
    if (sub == nullptr) {
      it = view->subscribers.erase(it);
      continue;
    }
    if (sub->callback_ != nullptr) callbacks->emplace_back(sub->callback_, published);
    ++it;
  }
  return Status::OK();
}

void MaterializedViewManager::PropagateLocked(
    std::vector<std::pair<ViewSubscription::Callback, ViewSnapshotPtr>>*
        callbacks) {
  if (views_by_fingerprint_.empty()) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.clear();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.empty()) return;
  }
  // Pin FIRST, then pop only deltas at or below the pin's epoch: the
  // exclusive gate inside PinAll synchronizes with every commit it
  // includes, so those commits' deltas are guaranteed enqueued by now.
  // Later deltas stay queued for the next pass.
  ServiceSnapshotPtr cur = snapshots_->PinAll();
  std::vector<DeltaBatch> pass;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    while (!queue_.empty() && queue_.front().epoch <= cur->epoch) {
      pass.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  if (pass.empty()) return;

  for (auto& [fingerprint, view] : views_by_fingerprint_) {
    bool touched = false;
    for (DeltaBatch& delta : pass) {
      // A delta already covered by this view's starting pin (it subscribed
      // mid-stream) or by a previous pass is skipped for this view only.
      if (delta.epoch <= view->applied_epoch) continue;
      if (std::find(view->spec.tables.begin(), view->spec.tables.end(),
                    delta.table) == view->spec.tables.end()) {
        continue;
      }
      if (view->spec.kind != ViewKind::kRecompute) {
        Status st = ApplyDelta(view.get(), &delta, *cur);
        if (!st.ok()) {
          // Never fail the append path: degrade this arrangement to the
          // recompute fallback and keep serving.
          maintenance_errors_.fetch_add(1, std::memory_order_relaxed);
          view->spec.kind = ViewKind::kRecompute;
        }
      }
      touched = true;
      deltas_propagated_.fetch_add(1, std::memory_order_relaxed);
    }
    view->applied_epoch = std::max(view->applied_epoch, cur->epoch);
    if (view->spec.kind == ViewKind::kJoin) view->prev_pin = *cur;
    if (touched) {
      Status st = PublishLocked(view.get(), cur, callbacks);
      if (!st.ok() && view->spec.kind != ViewKind::kRecompute) {
        maintenance_errors_.fetch_add(1, std::memory_order_relaxed);
        view->spec.kind = ViewKind::kRecompute;
        st = PublishLocked(view.get(), cur, callbacks);
      }
      if (!st.ok()) {
        // Even recompute failed; keep the last good snapshot.
        maintenance_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

Status MaterializedViewManager::InitializeState(MaintainedView* view,
                                                const ServiceSnapshot& snap) {
  ViewSpec& spec = view->spec;
  switch (spec.kind) {
    case ViewKind::kRecompute:
      return Status::OK();
    case ViewKind::kSelect:
    case ViewKind::kAggregate: {
      if (spec.kind == ViewKind::kAggregate && spec.group_exprs.empty()) {
        // A global aggregate always has exactly one group, even over an
        // empty table (COUNT(*) = 0, SUM/MIN/MAX = null).
        view->groups[Row{}].resize(spec.aggs.size());
      }
      IDF_ASSIGN_OR_RETURN(RowVec rows,
                           ScanPinnedTable(snap, spec.input.table));
      if (rows.empty()) return Status::OK();
      DeltaBatch seed;
      seed.table = spec.input.table;
      seed.epoch = snap.epoch;
      seed.rows = std::make_shared<const RowVec>(std::move(rows));
      return ApplyDelta(view, &seed, snap);
    }
    case ViewKind::kJoin: {
      // Feed the whole left table through join term 1 against `snap`:
      // L_all ⋈ R_snap is the complete initial join, and the caller then
      // sets prev_pin = snap so future right-side deltas probe exactly
      // this left state. Term 2 is disabled for the seed so a self-join
      // (left table == right table) cannot also count the rows as ΔR.
      IDF_ASSIGN_OR_RETURN(RowVec rows, ScanPinnedTable(snap, spec.left.table));
      if (rows.empty()) return Status::OK();
      DeltaBatch seed;
      seed.table = spec.left.table;
      seed.epoch = snap.epoch;
      seed.rows = std::make_shared<const RowVec>(std::move(rows));
      return ApplyDelta(view, &seed, snap, /*right_term=*/false);
    }
  }
  return Status::Internal("unreachable view kind");
}

Result<RowVec> MaterializedViewManager::RecomputeAgainst(
    const std::string& sql, const ServiceSnapshotPtr& snap) {
  IDF_ASSIGN_OR_RETURN(
      ExecutorContextPtr exec,
      ExecutorContext::MakeWithPool(exec_->config(), exec_->shared_pool()));
  exec->SetPins(snap);
  IDF_ASSIGN_OR_RETURN(SessionPtr session, snapshots_->MakeSession(exec));
  IDF_ASSIGN_OR_RETURN(DataFrame df, session->Sql(sql));
  return session->ExecuteCollect(df.plan());
}

Result<ViewSubscriptionPtr> MaterializedViewManager::Subscribe(
    const std::string& sql, ViewSubscription::Callback callback) {
  // Plan against empty stand-in tables: classification and fingerprinting
  // need bound expressions and schemas, not data. Using the registered
  // tables' real schemas keeps the fingerprint identical to what any other
  // subscriber of the same query produces.
  std::vector<TableInfo> infos = snapshots_->TableInfos();
  IDF_ASSIGN_OR_RETURN(
      ExecutorContextPtr plan_exec,
      ExecutorContext::MakeWithPool(exec_->config(), exec_->shared_pool()));
  IDF_ASSIGN_OR_RETURN(SessionPtr session, Session::MakeWithContext(plan_exec));
  for (const TableInfo& info : infos) {
    IDF_ASSIGN_OR_RETURN(
        DataFrame df, session->CreateDataFrame(info.schema, {}, info.name));
    IDF_RETURN_NOT_OK(session->RegisterTable(info.name, std::move(df)));
  }
  IDF_ASSIGN_OR_RETURN(DataFrame df, session->Sql(sql));
  // Classify the optimized plan: the built-in batch has pushed one-side
  // WHERE conjuncts onto the join inputs, where deltas are filtered before
  // they probe, instead of leaving them above the whole maintained join.
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr optimized,
                       session->OptimizeOnly(df.plan()));
  IDF_ASSIGN_OR_RETURN(ViewSpec spec, BuildViewSpec(sql, optimized));

  if (spec.kind == ViewKind::kJoin) {
    // Both probe directions need a PRIMARY (cTrie) index on the join
    // column; without one the view still works, just by recomputation.
    // indexed_columns deliberately excludes bitmap/range secondary
    // indexes: incremental join maintenance walks per-key chains through
    // a pinned trie arrangement, and a secondary index's position cut is
    // published per append batch, not pinned per epoch — maintaining
    // through one could read a cut newer than the view's epoch. A column
    // that only carries a secondary index therefore downgrades the view
    // to safe recomputation instead of risking a torn arrangement.
    auto has_index = [&infos](const std::string& table, int col) {
      for (const TableInfo& info : infos) {
        if (info.name != table) continue;
        return std::find(info.indexed_columns.begin(),
                         info.indexed_columns.end(),
                         col) != info.indexed_columns.end();
      }
      return false;
    };
    if (!has_index(spec.right.table, spec.right_key_col) ||
        !has_index(spec.left.table, spec.left_key_col)) {
      spec.kind = ViewKind::kRecompute;
      spec.row_post.clear();
      spec.post.clear();
    }
  }

  std::vector<std::pair<ViewSubscription::Callback, ViewSnapshotPtr>> callbacks;
  ViewSubscriptionPtr sub;
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    std::shared_ptr<MaintainedView> view;
    auto it = views_by_fingerprint_.find(spec.fingerprint);
    if (it != views_by_fingerprint_.end()) {
      view = it->second;
      arrangements_shared_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Bring existing views current and drain the queue, then register
      // BEFORE pinning: any commit after the registration point enqueues
      // its delta, and any commit before it is inside the pin — either
      // way, nothing is missed and applied_epoch filters overlaps.
      PropagateLocked(&callbacks);
      view = std::make_shared<MaintainedView>();
      view->id = next_id_.fetch_add(1, std::memory_order_relaxed);
      view->spec = std::move(spec);
      if (view->spec.kind == ViewKind::kSelect ||
          view->spec.kind == ViewKind::kAggregate) {
        view->input_filter.Build(view->spec.input.predicate,
                                 view->spec.input.schema);
      } else if (view->spec.kind == ViewKind::kJoin) {
        view->left_filter.Build(view->spec.left.predicate,
                                view->spec.left.schema);
        view->right_filter.Build(view->spec.right.predicate,
                                 view->spec.right.schema);
      }
      views_by_fingerprint_[view->spec.fingerprint] = view;
      has_views_.store(true, std::memory_order_release);

      ServiceSnapshotPtr snap = snapshots_->PinAll();
      Status st = InitializeState(view.get(), *snap);
      if (st.ok()) {
        view->applied_epoch = snap->epoch;
        if (view->spec.kind == ViewKind::kJoin) view->prev_pin = *snap;
        st = PublishLocked(view.get(), snap, &callbacks);
      }
      if (!st.ok()) {
        views_by_fingerprint_.erase(view->spec.fingerprint);
        if (views_by_fingerprint_.empty()) {
          has_views_.store(false, std::memory_order_release);
        }
        return st;
      }
    }
    sub = std::make_shared<ViewSubscription>();
    sub->id_ = next_id_.fetch_add(1, std::memory_order_relaxed);
    sub->sql_ = sql;
    sub->kind_ = view->spec.kind;
    sub->callback_ = std::move(callback);
    sub->view_ = view;
    view->subscribers.push_back(sub);
    ++view->subscriber_count;
  }
  for (auto& [cb, snapshot] : callbacks) cb(*snapshot);
  return sub;
}

Status MaterializedViewManager::Unsubscribe(const ViewSubscriptionPtr& sub) {
  if (sub == nullptr || sub->view_ == nullptr) {
    return Status::InvalidArgument("Unsubscribe: null subscription");
  }
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  const std::shared_ptr<MaintainedView>& view = sub->view_;
  bool found = false;
  for (auto it = view->subscribers.begin(); it != view->subscribers.end();) {
    ViewSubscriptionPtr s = it->lock();
    if (s == nullptr) {
      it = view->subscribers.erase(it);
    } else if (s == sub) {
      it = view->subscribers.erase(it);
      found = true;
    } else {
      ++it;
    }
  }
  if (!found) {
    return Status::InvalidArgument("Unsubscribe: already unsubscribed");
  }
  --view->subscriber_count;
  if (view->subscriber_count == 0) {
    views_by_fingerprint_.erase(view->spec.fingerprint);
    if (views_by_fingerprint_.empty()) {
      has_views_.store(false, std::memory_order_release);
      std::lock_guard<std::mutex> queue_lock(queue_mu_);
      queue_.clear();
    }
  }
  // The subscription keeps its shared_ptr to the (unregistered) view, so
  // Snapshot() stays valid — it just stops advancing.
  return Status::OK();
}

ViewManagerStats MaterializedViewManager::Stats() const {
  ViewManagerStats stats;
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    stats.views_registered = views_by_fingerprint_.size();
    for (const auto& [fingerprint, view] : views_by_fingerprint_) {
      stats.view_subscribers += view->subscriber_count;
      stats.resident_rows += view->core_rows.size() + view->groups.size();
    }
  }
  stats.arrangements_shared =
      arrangements_shared_.load(std::memory_order_relaxed);
  stats.deltas_propagated = deltas_propagated_.load(std::memory_order_relaxed);
  stats.rows_maintained_incrementally =
      rows_maintained_.load(std::memory_order_relaxed);
  stats.views_recomputed = views_recomputed_.load(std::memory_order_relaxed);
  stats.maintenance_errors =
      maintenance_errors_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace idf
