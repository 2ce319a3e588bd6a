#include "view/view_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sql/session.h"
#include "storage/row_batch.h"

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
  // A `column = literal` conjunct of the predicate (eq_col -1 = none): a
  // scan term reads this side through the index on that column, if any.
  int eq_col = -1;
  Value eq_value;

  void Build(const ExprPtr& pred, const SchemaPtr& schema) {
    predicate = pred;
    if (predicate == nullptr) return;
    split = SplitForCompilation(predicate, *schema);
    if (split.compiled.has_value()) {
      vec = std::make_unique<VectorizedPredicate>(*split.compiled);
    }
    std::vector<ExprPtr> conjuncts = {predicate};
    while (!conjuncts.empty() && eq_col < 0) {
      ExprPtr e = std::move(conjuncts.back());
      conjuncts.pop_back();
      if (e->kind() == ExprKind::kLogical &&
          static_cast<const LogicalExpr*>(e.get())->op() == LogicalOp::kAnd) {
        conjuncts.insert(conjuncts.end(), e->children().begin(),
                         e->children().end());
      } else if (!MatchEqualityFilter(e, &eq_col, &eq_value)) {
        eq_col = -1;
      }
    }
  }
};

/// One group of an aggregate view: its running states and the row it last
/// published (after the row-wise post-ops; absent while HAVING drops it).
struct GroupEntry {
  std::vector<AggState> states;
  std::optional<Row> published;
  bool dirty = false;  // changed in the current pass
};
using GroupMap =
    std::unordered_map<Row, GroupEntry, AggRowHasher, AggRowEqual>;

/// One maintained arrangement, shared by every subscription whose plan
/// fingerprint matches. All fields except `published` are guarded by the
/// manager's maintenance mutex; `published` is swapped/read via the atomic
/// shared_ptr free functions (lock-free subscriber reads).
struct MaintainedView {
  uint64_t id = 0;
  ViewSpec spec;

  CompiledFilter input_filter;               // kSelect / kAggregate
  CompiledFilter left_filter, right_filter;  // join cores
  ViewReadSidePtr read_side;  // spec.post, shared with every snapshot

  // What the current pass changed; each publish drains it into one run.
  RowVec pending;                            // kSelect / kJoin: new rows
  std::vector<GroupMap::value_type*> dirty;  // kAggregate: changed groups

  GroupMap groups;        // kAggregate resident state
  ViewTrace trace;        // the published runs
  int64_t live_rows = 0;  // rows the trace publishes (sum of its diffs)

  // kRecompute: the physical plan, lowered at `plan_ddl_version`.
  PhysicalOpPtr plan;
  ExecutorContextPtr plan_exec;
  uint64_t plan_ddl_version = 0;

  /// Deltas with epoch <= this are already reflected in the state.
  uint64_t applied_epoch = 0;
  uint64_t published_version = 0;

  /// Join cores: the pin of this view's previous pass. Right-side deltas
  /// probe the left table HERE (not in the current pin) so pairs where
  /// both rows arrived since the last pass are not counted by both terms.
  ServiceSnapshot prev_pin;

  std::shared_ptr<const ViewSnapshot> published;

  std::vector<std::weak_ptr<ViewSubscription>> subscribers;
  size_t subscriber_count = 0;

  /// Switches to the recompute fallback and drops the incremental state.
  void DegradeToRecompute() {
    spec.kind = ViewKind::kRecompute;
    pending.clear();
    dirty.clear();
    groups.clear();
    trace = ViewTrace();
    live_rows = 0;
  }
};

}  // namespace view_detail

using view_detail::CompiledFilter;
using view_detail::GroupEntry;
using view_detail::GroupMap;
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

/// Runs the view's row-wise post-ops over one delta's output rows and adds
/// the survivors to the pass's changes; returns how many landed.
Result<size_t> AddRows(MaintainedView* view, RowVec rows) {
  IDF_RETURN_NOT_OK(ApplyPostOps(view->spec.row_post, &rows));
  view->pending.insert(view->pending.end(),
                       std::make_move_iterator(rows.begin()),
                       std::make_move_iterator(rows.end()));
  return rows.size();
}

/// The group entry for `key`, marked changed in the current pass.
GroupEntry& DirtyGroup(MaintainedView* view, const Row& key) {
  auto it = view->groups.find(key);
  if (it == view->groups.end()) {
    it = view->groups.emplace(key, GroupEntry{}).first;
    it->second.states.resize(view->spec.aggs.size());
  }
  if (!it->second.dirty) {
    it->second.dirty = true;
    view->dirty.push_back(&*it);
  }
  return it->second;
}

/// Folds `rows` (only the `sel` subset when given) into the view's groups
/// with the from-scratch operator's UpdateState kernel. An error leaves
/// the groups half-updated; the caller then degrades the view.
Status FoldRows(MaintainedView* view, const RowVec& rows,
                const std::vector<uint32_t>* sel) {
  const ViewSpec& spec = view->spec;
  Row key;  // reused: a group lookup allocates only for a new group
  key.reserve(spec.group_exprs.size());
  const size_t n = sel != nullptr ? sel->size() : rows.size();
  for (size_t k = 0; k < n; ++k) {
    const Row& row = rows[sel != nullptr ? (*sel)[k] : k];
    key.clear();
    for (const ExprPtr& g : spec.group_exprs) {
      IDF_ASSIGN_OR_RETURN(Value v, g->Eval(row));
      key.push_back(std::move(v));
    }
    GroupEntry& entry = DirtyGroup(view, key);
    for (size_t a = 0; a < spec.aggs.size(); ++a) {
      Value v;
      if (spec.aggs[a].arg != nullptr) {
        IDF_ASSIGN_OR_RETURN(v, spec.aggs[a].arg->Eval(row));
      }
      UpdateState(&entry.states[a], spec.aggs[a].fn, v);
    }
  }
  return Status::OK();
}

/// Drains the pass's changes into one delta run: select/join rows at +1;
/// for each changed group, its previous published row at -1 and its new
/// one at +1 (nothing when the published row did not change).
Result<DeltaRun> TakeChanges(MaintainedView* view) {
  const ViewSpec& spec = view->spec;
  RowVec rows;
  std::vector<int64_t> diffs;
  if (spec.kind == ViewKind::kAggregate) {
    for (GroupMap::value_type* group : view->dirty) {
      GroupEntry& entry = group->second;
      entry.dirty = false;
      std::optional<Row> next = group->first;
      for (size_t a = 0; a < spec.aggs.size(); ++a) {
        AppendFinal(&*next, spec.aggs[a].fn, entry.states[a],
                    spec.agg_out_types[a]);
      }
      IDF_ASSIGN_OR_RETURN(bool shown, ApplyRowPostOps(spec.row_post, &*next));
      if (!shown) next.reset();
      if (entry.published == next) continue;
      if (entry.published.has_value()) {
        rows.push_back(std::move(*entry.published));
        diffs.push_back(-1);
      }
      if (next.has_value()) {
        rows.push_back(*next);
        diffs.push_back(1);
      }
      entry.published = std::move(next);
    }
    view->dirty.clear();
  } else {
    rows = std::move(view->pending);
    view->pending.clear();
    diffs.assign(rows.size(), 1);
  }
  for (int64_t d : diffs) view->live_rows += d;
  return DeltaRun::Build(std::move(rows), std::move(diffs));
}

struct ValueHasher {
  size_t operator()(const Value& v) const { return static_cast<size_t>(v.Hash()); }
};

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
    const size_t kept = filter->vec->FilterBatch(RowRun(delta->payloads.data(), n),
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
      IDF_ASSIGN_OR_RETURN(size_t added, AddRows(view, std::move(kept)));
      rows_maintained_.fetch_add(added, std::memory_order_relaxed);
      return Status::OK();
    }
    case ViewKind::kAggregate: {
      if (spec.over_join) {
        RowVec joined;
        IDF_RETURN_NOT_OK(JoinDelta(view, delta, cur, right_term, &joined));
        IDF_RETURN_NOT_OK(FoldRows(view, joined, nullptr));
        rows_maintained_.fetch_add(joined.size(), std::memory_order_relaxed);
        return Status::OK();
      }
      IDF_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                           FilterDelta(&view->input_filter, delta,
                                       spec.input.schema, *exec_));
      IDF_RETURN_NOT_OK(FoldRows(view, *delta->rows, &sel));
      rows_maintained_.fetch_add(sel.size(), std::memory_order_relaxed);
      return Status::OK();
    }
    case ViewKind::kJoin: {
      RowVec joined;
      IDF_RETURN_NOT_OK(JoinDelta(view, delta, cur, right_term, &joined));
      IDF_ASSIGN_OR_RETURN(size_t added, AddRows(view, std::move(joined)));
      rows_maintained_.fetch_add(added, std::memory_order_relaxed);
      return Status::OK();
    }
    case ViewKind::kRecompute:
      return Status::OK();  // state is rebuilt at publish time
  }
  return Status::Internal("unreachable view kind");
}

Status MaterializedViewManager::JoinDelta(MaintainedView* view,
                                          DeltaBatch* delta,
                                          const ServiceSnapshot& cur,
                                          bool right_term, RowVec* out) {
  const ViewSpec& spec = view->spec;
  // Term 1: ΔL ⋈ R_cur — new left rows meet the right side pinned at the
  // CURRENT epoch (which already contains any same-pass right deltas, so
  // cross-delta pairs are produced exactly here).
  if (delta->table == spec.left.table) {
    IDF_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                         FilterDelta(&view->left_filter, delta,
                                     spec.left.schema, *exec_));
    IDF_RETURN_NOT_OK(JoinTerm(cur, spec.right, spec.right_key_col,
                               &view->right_filter, *delta->rows, sel,
                               spec.left_key_col, /*delta_is_left=*/true, out));
  }
  // Term 2: L_prev ⋈ ΔR — new right rows meet the left side pinned at the
  // PREVIOUS pass, so a (ΔL, ΔR) pair of this pass is counted by term 1
  // only.
  if (right_term && delta->table == spec.right.table) {
    IDF_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                         FilterDelta(&view->right_filter, delta,
                                     spec.right.schema, *exec_));
    IDF_RETURN_NOT_OK(JoinTerm(view->prev_pin, spec.left, spec.left_key_col,
                               &view->left_filter, *delta->rows, sel,
                               spec.right_key_col, /*delta_is_left=*/false,
                               out));
  }
  return Status::OK();
}

Status MaterializedViewManager::JoinTerm(
    const ServiceSnapshot& pin, const ViewInput& other, int other_key,
    CompiledFilter* other_filter, const RowVec& delta,
    const std::vector<uint32_t>& sel, int delta_key, bool delta_is_left,
    RowVec* out) {
  if (sel.empty()) return Status::OK();
  auto emit = [&](const Row& d, const Row& o) {
    out->push_back(delta_is_left ? ConcatRows(d, o) : ConcatRows(o, d));
  };
  const auto delta_col = static_cast<size_t>(delta_key);
  Status status = Status::OK();
  if (PinnedSnapshotPtr index = FindPin(pin, other.table, other_key)) {
    // Probe: point lookups on the other side's pinned cTrie index.
    for (uint32_t i : sel) {
      const Value& key = delta[i][delta_col];
      if (key.is_null()) continue;  // inner join: null never matches
      for (const Row& o : index->GetRows(key)) {
        if (other.predicate != nullptr &&
            !EvalKeep(other.predicate, o, &status)) {
          IDF_RETURN_NOT_OK(status);
          continue;
        }
        emit(delta[i], o);
      }
    }
    return Status::OK();
  }
  // Scan term: the other side has no primary index on its key. Hash this
  // term's delta rows on the key and read the other side at `pin` — only
  // commits to this term's delta table pay for it.
  std::unordered_multimap<Value, uint32_t, ValueHasher> by_key;
  for (uint32_t i : sel) {
    if (!delta[i][delta_col].is_null()) by_key.emplace(delta[i][delta_col], i);
  }
  if (by_key.empty()) return Status::OK();
  const auto other_col = static_cast<size_t>(other_key);
  auto visit = [&](const Row& o) {
    auto [first, last] = by_key.equal_range(o[other_col]);
    if (first == last) return;
    if (other.predicate != nullptr && !EvalKeep(other.predicate, o, &status)) {
      return;
    }
    for (auto it = first; it != last; ++it) emit(delta[it->second], o);
  };
  // An equality in the other side's WHERE on an indexed column narrows the
  // read to one lookup (e.g. `k.person1Id = 42` over knows(person1Id)).
  if (other_filter->eq_col >= 0) {
    if (PinnedSnapshotPtr eq = FindPin(pin, other.table, other_filter->eq_col)) {
      const RowVec rows = eq->GetRows(other_filter->eq_value);
      scan_term_rows_.fetch_add(rows.size(), std::memory_order_relaxed);
      for (const Row& o : rows) {
        visit(o);
        IDF_RETURN_NOT_OK(status);
      }
      return Status::OK();
    }
  }
  // Otherwise one pass over the stored rows in place: decode the join key
  // only, and the whole row only when some delta row shares it.
  const PinnedTable* t = pin.find(other.table);
  if (t == nullptr) {
    return Status::Internal("view join: table not pinned: " + other.table);
  }
  const IndexedRelationSnapshot& rel = t->primary()->snapshot();
  const Schema& schema = *other.schema;
  uint64_t read = 0;
  for (int p = 0; p < rel.num_partitions() && status.ok(); ++p) {
    rel.view(p).ScanRaw([&](const uint8_t* payload) {
      if (!status.ok()) return;
      ++read;
      const Value key = DecodeColumn(payload, schema, other_key);
      if (key.is_null() || by_key.find(key) == by_key.end()) return;
      visit(DecodeRow(payload, schema));
    });
  }
  scan_term_rows_.fetch_add(read, std::memory_order_relaxed);
  return status;
}

Status MaterializedViewManager::PublishLocked(
    MaintainedView* view, const ServiceSnapshotPtr& cur,
    std::vector<std::pair<ViewSubscription::Callback, ViewSnapshotPtr>>*
        callbacks) {
  const ViewSpec& spec = view->spec;
  ViewSnapshotPtr published;
  if (spec.kind == ViewKind::kRecompute) {
    IDF_ASSIGN_OR_RETURN(RowVec rows, RecomputeAgainst(view, cur));
    views_recomputed_.fetch_add(1, std::memory_order_relaxed);
    published = std::make_shared<const ViewSnapshot>(
        cur->epoch, ++view->published_version, spec.output_schema,
        std::move(rows));
  } else {
    IDF_ASSIGN_OR_RETURN(DeltaRun run, TakeChanges(view));
    // A previous snapshot that a reader already built lets this one's
    // first reader apply just this pass's run to its rows — worth it
    // while the run is smaller than the result (moving a row is far
    // cheaper than copying one); a pass that rewrites most of a small
    // aggregate is cheaper to read from the runs.
    std::shared_ptr<const ViewRows> previous;
    std::unique_ptr<DeltaRun> delta;
    if (view->read_side == nullptr && view->published != nullptr &&
        static_cast<int64_t>(run.size()) < view->live_rows &&
        view->published->rows.Reusable()) {
      previous = std::shared_ptr<const ViewRows>(view->published,
                                                 &view->published->rows);
      delta = std::make_unique<DeltaRun>(run);
    }
    view->trace.Push(std::move(run));
    published = std::make_shared<const ViewSnapshot>(
        cur->epoch, ++view->published_version, spec.output_schema,
        view->trace.runs(), view->read_side, std::move(previous),
        std::move(delta));
  }
  std::atomic_store_explicit(&view->published, published,
                             std::memory_order_release);

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
  const auto start = std::chrono::steady_clock::now();
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
          view->DegradeToRecompute();
        }
      }
      touched = true;
      deltas_propagated_.fetch_add(1, std::memory_order_relaxed);
    }
    view->applied_epoch = std::max(view->applied_epoch, cur->epoch);
    if (view->spec.joins()) view->prev_pin = *cur;
    if (touched) {
      Status st = PublishLocked(view.get(), cur, callbacks);
      if (!st.ok() && view->spec.kind != ViewKind::kRecompute) {
        maintenance_errors_.fetch_add(1, std::memory_order_relaxed);
        view->DegradeToRecompute();
        st = PublishLocked(view.get(), cur, callbacks);
      }
      if (!st.ok()) {
        // Even recompute failed; keep the last good snapshot.
        maintenance_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  maintenance_ns_.fetch_add(
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count()),
      std::memory_order_relaxed);
}

Status MaterializedViewManager::InitializeState(MaintainedView* view,
                                                const ServiceSnapshot& snap) {
  const ViewSpec& spec = view->spec;
  if (spec.kind == ViewKind::kRecompute) return Status::OK();
  if (spec.kind == ViewKind::kAggregate && spec.group_exprs.empty()) {
    // A global aggregate always has exactly one group, even over an empty
    // input (COUNT(*) = 0, SUM/MIN/MAX = null).
    DirtyGroup(view, Row{});
  }
  // A join core seeds by feeding the whole left table through join term 1
  // against `snap`: L_all ⋈ R_snap is the complete initial join, and the
  // caller then sets prev_pin = snap so future right-side deltas meet
  // exactly this left state. Term 2 is disabled for the seed so a
  // self-join (left table == right table) cannot also count the rows as
  // ΔR.
  const std::string& table = spec.joins() ? spec.left.table : spec.input.table;
  IDF_ASSIGN_OR_RETURN(RowVec rows, ScanPinnedTable(snap, table));
  if (rows.empty()) return Status::OK();
  DeltaBatch seed;
  seed.table = table;
  seed.epoch = snap.epoch;
  seed.rows = std::make_shared<const RowVec>(std::move(rows));
  return ApplyDelta(view, &seed, snap, /*right_term=*/false);
}

Result<RowVec> MaterializedViewManager::RecomputeAgainst(
    MaintainedView* view, const ServiceSnapshotPtr& snap) {
  // Read the version before planning: a RegisterTable racing the lowering
  // leaves a stale version behind, so the next pass lowers again.
  const uint64_t ddl_version = snapshots_->ddl_version();
  if (view->plan == nullptr || view->plan_ddl_version != ddl_version) {
    IDF_ASSIGN_OR_RETURN(
        ExecutorContextPtr exec,
        ExecutorContext::MakeWithPool(exec_->config(), exec_->shared_pool()));
    IDF_ASSIGN_OR_RETURN(SessionPtr session, snapshots_->MakeSession(exec));
    IDF_ASSIGN_OR_RETURN(DataFrame df, session->Sql(view->spec.sql));
    IDF_ASSIGN_OR_RETURN(LogicalPlanPtr optimized,
                         session->OptimizeOnly(df.plan()));
    IDF_ASSIGN_OR_RETURN(view->plan, session->PlanOptimized(optimized));
    view->plan_exec = std::move(exec);
    view->plan_ddl_version = ddl_version;
    recompute_plans_lowered_.fetch_add(1, std::memory_order_relaxed);
  }
  // The plan names live relations; the pins pick this pass's epoch.
  view->plan_exec->SetPins(snap);
  Result<PartitionVec> parts = view->plan->Execute(*view->plan_exec);
  view->plan_exec->SetPins(nullptr);
  IDF_RETURN_NOT_OK(parts.status());
  return CollectRows(parts.ValueOrDie());
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
      if (view->spec.joins()) {
        view->left_filter.Build(view->spec.left.predicate,
                                view->spec.left.schema);
        view->right_filter.Build(view->spec.right.predicate,
                                 view->spec.right.schema);
      } else if (view->spec.kind != ViewKind::kRecompute) {
        view->input_filter.Build(view->spec.input.predicate,
                                 view->spec.input.schema);
      }
      if (!view->spec.post.empty()) {
        view->read_side = std::make_shared<const ViewReadSide>(
            ViewReadSide{view->spec.post, read_errors_});
      }
      views_by_fingerprint_[view->spec.fingerprint] = view;
      has_views_.store(true, std::memory_order_release);

      ServiceSnapshotPtr snap = snapshots_->PinAll();
      Status st = InitializeState(view.get(), *snap);
      if (st.ok()) {
        view->applied_epoch = snap->epoch;
        if (view->spec.joins()) view->prev_pin = *snap;
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
      stats.resident_rows += view->spec.kind == ViewKind::kAggregate
                                 ? view->groups.size()
                                 : static_cast<uint64_t>(view->live_rows);
      stats.trace_runs += view->trace.runs().size();
      stats.trace_rows += view->trace.entries();
    }
  }
  stats.arrangements_shared =
      arrangements_shared_.load(std::memory_order_relaxed);
  stats.deltas_propagated = deltas_propagated_.load(std::memory_order_relaxed);
  stats.rows_maintained_incrementally =
      rows_maintained_.load(std::memory_order_relaxed);
  stats.views_recomputed = views_recomputed_.load(std::memory_order_relaxed);
  stats.recompute_plans_lowered =
      recompute_plans_lowered_.load(std::memory_order_relaxed);
  stats.maintenance_us =
      maintenance_ns_.load(std::memory_order_relaxed) / 1000;
  stats.maintenance_errors =
      maintenance_errors_.load(std::memory_order_relaxed);
  stats.read_errors = read_errors_->load(std::memory_order_relaxed);
  stats.scan_term_rows = scan_term_rows_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace idf
