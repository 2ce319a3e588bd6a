#include "service/snapshot_manager.h"

#include "indexed/indexed_rules.h"

namespace idf {

Status SnapshotManager::RegisterTable(const std::string& name,
                                      IndexedRelationPtr relation) {
  if (relation == nullptr) {
    return Status::InvalidArgument("RegisterTable: null relation");
  }
  std::unique_lock<std::shared_mutex> lock(gate_);
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table already registered: " + name);
  }
  tables_[name] = Entry{{std::move(relation)}, nullptr};
  ddl_version_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateCache();
  return Status::OK();
}

Status SnapshotManager::RegisterTable(const std::string& name,
                                      std::shared_ptr<MultiIndexedTable> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("RegisterTable: null table");
  }
  Entry entry;
  for (const std::string& col : table->IndexedColumns()) {
    IDF_ASSIGN_OR_RETURN(IndexedDataFrame idx, table->Index(col));
    entry.indexes.push_back(idx.relation());
  }
  if (entry.indexes.empty()) {
    return Status::InvalidArgument("multi-indexed table has no indexes: " + name);
  }
  entry.multi = std::move(table);
  std::unique_lock<std::shared_mutex> lock(gate_);
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table already registered: " + name);
  }
  tables_[name] = std::move(entry);
  ddl_version_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateCache();
  return Status::OK();
}

void SnapshotManager::InvalidateCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cached_ = nullptr;
}

Status SnapshotManager::Append(const std::string& table, const RowVec& rows) {
  // Shared gate for the WHOLE batch: all partitions, all indexes. Other
  // appenders proceed concurrently; a pinner waits for the batch to land
  // completely (and blocks new batches while it captures).
  std::shared_lock<std::shared_mutex> lock(gate_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::KeyError("unknown table: " + table);
  }
  const Entry& entry = it->second;
  if (entry.multi != nullptr) {
    IDF_RETURN_NOT_OK(entry.multi->AppendRowsDirect(*exec_, rows));
  } else {
    IDF_RETURN_NOT_OK(entry.indexes.front()->AppendRows(*exec_, rows));
  }
  CommitSink* sink = sink_.load(std::memory_order_acquire);
  if (sink != nullptr && sink->wants_deltas()) {
    // Copy before the commit mutex: other appenders stay concurrent while
    // the batch is duplicated; only the bump+enqueue pair is serialized,
    // which is what keeps the sink's queue in epoch order without gaps.
    auto delta = std::make_shared<const RowVec>(rows);
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    sink->OnCommit(table, std::move(delta), epoch);
  } else {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::OK();
}

ServiceSnapshotPtr SnapshotManager::PinAll() {
  // Fast path: a snapshot already pinned at the current committed epoch.
  // An in-flight batch hasn't bumped the epoch yet, so readers sail past
  // it here instead of blocking on the gate until it lands.
  const uint64_t committed = epoch_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    if (cached_ != nullptr && cached_->epoch == committed) return cached_;
  }

  std::unique_lock<std::shared_mutex> lock(gate_);
  // Another pinner may have refreshed the cache while we waited. Inside
  // the exclusive section the epoch cannot move.
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    if (cached_ != nullptr && cached_->epoch == epoch) return cached_;
  }
  auto snap = std::make_shared<ServiceSnapshot>();
  snap->epoch = epoch;
  snap->tables.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) {
    PinnedTable pinned;
    pinned.table = name;
    pinned.pins.reserve(entry.indexes.size());
    for (const IndexedRelationPtr& rel : entry.indexes) {
      pinned.pins.emplace_back(rel->indexed_column(), rel->Pin());
    }
    snap->tables.push_back(std::move(pinned));
  }
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  cached_ = snap;
  return cached_;
}

Result<SessionPtr> SnapshotManager::MakeSession(ExecutorContextPtr exec) const {
  IDF_ASSIGN_OR_RETURN(SessionPtr session, Session::MakeWithContext(std::move(exec)));
  InstallIndexedExtensions(*session);
  std::shared_lock<std::shared_mutex> lock(gate_);
  for (const auto& [name, entry] : tables_) {
    IDF_RETURN_NOT_OK(session->RegisterTable(
        name, session->FromPlan(std::make_shared<IndexedScanNode>(
                  std::vector<IndexedRelationBasePtr>(entry.indexes.begin(),
                                                      entry.indexes.end())))));
  }
  return session;
}

std::vector<IndexedRelationPtr> SnapshotManager::Relations() const {
  std::shared_lock<std::shared_mutex> lock(gate_);
  std::vector<IndexedRelationPtr> out;
  for (const auto& [name, entry] : tables_) {
    out.insert(out.end(), entry.indexes.begin(), entry.indexes.end());
  }
  return out;
}

std::vector<TableInfo> SnapshotManager::TableInfos() const {
  std::shared_lock<std::shared_mutex> lock(gate_);
  std::vector<TableInfo> infos;
  infos.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) {
    TableInfo info;
    info.name = name;
    info.schema = entry.indexes.front()->schema();
    infos.push_back(std::move(info));
  }
  return infos;
}

std::vector<std::string> SnapshotManager::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(gate_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace idf
