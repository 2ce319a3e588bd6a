#include "indexed/indexed_operators.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>

#include "sql/aggregate_common.h"
#include "sql/compiled_accessor.h"
#include "sql/vectorized_eval.h"

namespace idf {

Result<PushedFilter> PushedFilter::Bind(const std::vector<Value>& params) const {
  PushedFilter out;
  if (compiled.has_value()) {
    IDF_ASSIGN_OR_RETURN(CompiledPredicate bound, compiled->BindParams(params));
    out.compiled = std::move(bound);
  }
  if (residual != nullptr) {
    IDF_ASSIGN_OR_RETURN(out.residual, SubstituteParameters(residual, params));
  }
  return out;
}

namespace {

/// Resolves an operator's pushed filter against the execution context's
/// bound parameters. Parameter-free filters pass through as a copy.
Result<PushedFilter> BindPushedFilter(const PushedFilter& filter,
                                      ExecutorContext& ctx) {
  if (!filter.has_params()) return filter;
  const std::vector<Value>* params = ctx.parameters();
  if (params == nullptr) {
    return Status::Internal(
        "parameterized pushed filter executed without bound parameters");
  }
  return filter.Bind(*params);
}

/// Resolves lookup key placeholders against the context's bound parameters.
/// A null binding is dropped — `key = NULL` matches no row, exactly like
/// the equivalent ad-hoc comparison.
Result<std::vector<Value>> ResolveLookupKeys(const std::vector<Value>& keys,
                                             const std::vector<int>& key_params,
                                             ExecutorContext& ctx) {
  bool any = false;
  for (int p : key_params) any = any || p >= 0;
  if (!any) return keys;
  const std::vector<Value>* params = ctx.parameters();
  if (params == nullptr) {
    return Status::Internal(
        "parameterized lookup executed without bound parameters");
  }
  std::vector<Value> out;
  out.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const int p = i < key_params.size() ? key_params[i] : -1;
    if (p < 0) {
      out.push_back(keys[i]);
      continue;
    }
    if (static_cast<size_t>(p) >= params->size()) {
      return Status::Internal("lookup key parameter ordinal out of range");
    }
    if ((*params)[static_cast<size_t>(p)].is_null()) continue;
    out.push_back((*params)[static_cast<size_t>(p)]);
  }
  return out;
}

/// The one read path for live and pinned data: the version of `rel` this
/// execution reads. A relation the context pins (the query service installs
/// its epoch's pins per execution) reads that pin, a PinnedSnapshot reads
/// its frozen version, and a live relation reads a snapshot captured now,
/// parked in `*scratch` (snapshots are move-only; `scratch` must outlive
/// the returned pointer).
Result<const IndexedRelationSnapshot*> ReadVersion(
    ExecutorContext& ctx, const IndexedRelationBase& rel,
    std::optional<IndexedRelationSnapshot>* scratch) {
  if (ctx.pins() != nullptr) {
    if (const PinnedSnapshot* pin = ctx.pins()->Find(rel)) return &pin->snapshot();
  }
  if (const auto* live = dynamic_cast<const IndexedRelation*>(&rel)) {
    scratch->emplace(live->Snapshot());
    return &**scratch;
  }
  if (const auto* pinned = dynamic_cast<const PinnedSnapshot*>(&rel)) {
    return &pinned->snapshot();
  }
  return Status::Internal("indexed read of a foreign relation type: " + rel.name());
}

// ---------------------------------------------------------------------------
// Morsel-driven execution helpers
//
// Operators flatten the rows of all partitions into one global index space
// and let ThreadPool::ParallelForRange hand out ~MorselGrain-row chunks via
// an atomic cursor. A skewed partition is then processed by many workers
// instead of serializing the query on one partition-granular task. A
// morsel reads its rows straight from each partition's row directory (a
// row's position is a lookup, never a walk over the rows before it).
// Chunk outputs are tagged with their partition and reassembled in chunk
// order, which preserves append order within every partition.
//
// Every parallel region is given the context's cancellation token: a
// cancelled or timed-out query drains its remaining morsels without running
// them, and the driver converts the token state into Cancelled /
// DeadlineExceeded instead of returning partial output.
// ---------------------------------------------------------------------------

/// Cumulative row counts of a snapshot's views (`part_end[p]` = rows of
/// partitions 0..p), defining the flat index space morsels are carved from.
struct FlatRaw {
  std::vector<size_t> part_end;
  size_t total = 0;
};

FlatRaw FlatIndex(const IndexedRelationSnapshot& snap) {
  FlatRaw flat;
  flat.part_end.resize(static_cast<size_t>(snap.num_partitions()));
  for (size_t p = 0; p < flat.part_end.size(); ++p) {
    flat.total += snap.view(static_cast<int>(p)).num_rows();
    flat.part_end[p] = flat.total;
  }
  return flat;
}

/// First partition whose flat range contains index `i`.
size_t PartitionOfIndex(const std::vector<size_t>& part_end, size_t i) {
  return static_cast<size_t>(
      std::upper_bound(part_end.begin(), part_end.end(), i) - part_end.begin());
}

/// Splits morsel [begin, end) of the flat index space into its partition
/// segments, in order: `fn(p, first, last)` covers the partition-local
/// append ordinals [first, last) of partition `p`.
template <typename Fn>
void ForEachSegment(const FlatRaw& flat, size_t begin, size_t end, Fn&& fn) {
  for (size_t p = PartitionOfIndex(flat.part_end, begin); begin < end; ++p) {
    const size_t pstart = p == 0 ? 0 : flat.part_end[p - 1];
    const size_t pend = std::min(end, flat.part_end[p]);
    if (pend > begin) fn(p, begin - pstart, pend - pstart);
    begin = pend;
  }
}

/// Output of one morsel restricted to one partition.
struct MorselPiece {
  size_t partition;
  RowVec rows;
};

/// Chunk-local filter bookkeeping: rows the compiled predicate rejected on
/// the encoded payload (never decoded), vector-path counters, and the
/// first interpreter-residual error. Flushed to the shared metrics/error
/// state once per chunk so the hot loop touches no atomics.
struct ChunkStats {
  uint64_t filtered_encoded = 0;
  uint64_t filtered_vectorized = 0;  // subset of filtered_encoded
  uint64_t vector_batches = 0;
  Status error;
};

/// Flushes a chunk's filter counters to the shared metrics. Encoded
/// rejects also count as avoided decodes (the row never materialized).
void FlushChunkStats(ExecutorContext& ctx, const ChunkStats& stats) {
  if (stats.filtered_encoded > 0) {
    ctx.metrics().AddRowsFilteredEncoded(stats.filtered_encoded);
    ctx.metrics().AddDecodesAvoided(stats.filtered_encoded);
  }
  if (stats.filtered_vectorized > 0) {
    ctx.metrics().AddRowsFilteredVectorized(stats.filtered_vectorized);
  }
  if (stats.vector_batches > 0) {
    ctx.metrics().AddVectorBatches(stats.vector_batches);
  }
}

/// Selects the rows that pass the compiled filter into `sel` and returns
/// how many were kept. Without a compiled filter every row is kept for the
/// residual. A store run is filtered on its column images; scattered
/// payloads are gathered.
size_t SelectRows(const std::optional<VectorizedPredicate>& vec,
                  const RowRun& rows, uint32_t* sel, VectorScratch* vs,
                  ChunkStats* stats) {
  const size_t n = rows.count;
  if (!vec) {
    std::iota(sel, sel + n, 0u);
    return n;
  }
  const size_t kept = vec->FilterBatch(rows, sel, vs);
  stats->vector_batches += VectorizedPredicate::NumBatches(n);
  stats->filtered_vectorized += n - kept;
  stats->filtered_encoded += n - kept;
  return kept;
}

/// Residual check on a decoded row: TRUE passes, NULL/false rejects, the
/// first Eval error lands in `*error` and rejects.
bool ResidualPasses(const Expr* residual, const Row& row, Status* error) {
  auto v = residual->Eval(row);
  if (!v.ok()) {
    if (error->ok()) *error = v.status();
    return false;
  }
  return !v->is_null() && v->bool_value();
}

/// Reassembles per-chunk pieces into per-partition row vectors; chunk order
/// preserves the original row order within each partition.
PartitionVec AssemblePieces(ExecutorContext& ctx, size_t num_parts,
                            std::vector<std::vector<MorselPiece>>& chunks) {
  // Size pass first: reserving each partition's exact total makes the
  // reassembly a single move per row instead of a realloc chain.
  std::vector<size_t> totals(num_parts, 0);
  uint64_t produced = 0;
  for (const auto& pieces : chunks) {
    for (const MorselPiece& piece : pieces) {
      totals[piece.partition] += piece.rows.size();
      produced += piece.rows.size();
    }
  }
  std::vector<RowVec> rows(num_parts);
  for (auto& pieces : chunks) {
    for (MorselPiece& piece : pieces) {
      RowVec& dst = rows[piece.partition];
      if (dst.empty() && piece.rows.size() == totals[piece.partition]) {
        dst = std::move(piece.rows);  // sole piece: adopt the buffer
        continue;
      }
      if (dst.capacity() < totals[piece.partition]) {
        dst.reserve(totals[piece.partition]);
      }
      dst.insert(dst.end(), std::make_move_iterator(piece.rows.begin()),
                 std::make_move_iterator(piece.rows.end()));
    }
  }
  ctx.metrics().AddRowsProduced(produced);
  PartitionVec out;
  out.reserve(num_parts);
  for (RowVec& r : rows) out.push_back(PartitionData(std::move(r)));
  return out;
}

/// Morsel-driven scan driver for 1:1 row transforms (`per_row(payload)`
/// returns the output row): every output position is known up front, so
/// morsels write directly into the preallocated result — no per-chunk
/// buffers, no reassembly.
template <typename PerRow>
Result<PartitionVec> MorselScanDense(ExecutorContext& ctx,
                                     const IndexedRelationSnapshot& snap,
                                     const PerRow& per_row) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  const FlatRaw flat = FlatIndex(snap);
  const size_t num_parts = static_cast<size_t>(snap.num_partitions());
  const size_t n = flat.total;
  ctx.metrics().AddRowsScanned(n);
  std::vector<RowVec> rows(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    rows[p].resize(snap.view(static_cast<int>(p)).num_rows());
  }
  size_t dispatched = ctx.pool().ParallelForRange(
      n, ctx.MorselGrain(n),
      [&](size_t begin, size_t end) {
        ctx.metrics().AddTask();
        ForEachSegment(flat, begin, end, [&](size_t p, size_t first, size_t last) {
          Row* dst = rows[p].data() + first;
          snap.view(static_cast<int>(p)).ForEachRun(first, last, [&](const RowRun& run) {
            for (size_t j = 0; j < run.count; ++j) *dst++ = per_row(run.payloads[j]);
          });
        });
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddMorsels(dispatched);
  ctx.metrics().AddRowsProduced(n);
  PartitionVec out;
  out.reserve(num_parts);
  for (RowVec& r : rows) out.push_back(PartitionData(std::move(r)));
  return out;
}

/// One aggregate's input in the fused scan-aggregate: a compiled accessor
/// reading the argument column straight from the payload, or an expression
/// needing the decoded row. Both empty for COUNT(*).
struct FusedAggInput {
  std::optional<CompiledAccessor> acc;
  const Expr* expr = nullptr;
};

/// UpdateState specialized for a payload-resident input column: SUM/AVG/
/// COUNT fold the raw slot value without boxing; MIN/MAX box once (they
/// keep a Value anyway). Matches UpdateState(.., DecodeColumn(..)) exactly.
void UpdateStateFromPayload(AggState* s, AggFn fn, const CompiledAccessor& acc,
                            const uint8_t* payload) {
  switch (fn) {
    case AggFn::kCountStar:
      ++s->count;
      return;
    case AggFn::kCount:
      if (!acc.IsNull(payload)) ++s->count;
      return;
    case AggFn::kSum:
      if (!acc.IsNull(payload)) {
        s->any = true;
        if (acc.type() == TypeId::kFloat64) {
          s->dsum += acc.GetDouble(payload);
        } else {
          const int64_t v = acc.GetInt64(payload);
          s->isum += v;
          s->dsum += static_cast<double>(v);
        }
      }
      return;
    case AggFn::kAvg:
      if (!acc.IsNull(payload)) {
        s->any = true;
        s->dsum += acc.GetDouble(payload);
        ++s->count;
      }
      return;
    case AggFn::kMin:
    case AggFn::kMax:
      if (!acc.IsNull(payload)) UpdateState(s, fn, acc.GetValue(payload));
      return;
  }
}

/// Materializes one payload that passed the compiled filter: residual check
/// on the decoded row, then the full row or just the projected columns.
/// Shared by the scan-filter driver and the secondary-index probe.
void EmitFilteredRow(const uint8_t* payload, const Schema& schema,
                     const Expr* residual, const std::vector<int>& project_cols,
                     RowVec* out, ChunkStats* stats) {
  if (residual) {
    Row row = DecodeRow(payload, schema);
    if (!ResidualPasses(residual, row, &stats->error)) return;
    if (project_cols.empty()) {
      out->push_back(std::move(row));
    } else {
      Row pruned;
      pruned.reserve(project_cols.size());
      for (int c : project_cols) pruned.push_back(row[static_cast<size_t>(c)]);
      out->push_back(std::move(pruned));
    }
    return;
  }
  if (project_cols.empty()) {
    out->push_back(DecodeRow(payload, schema));
  } else {
    Row row;
    row.reserve(project_cols.size());
    for (int c : project_cols) row.push_back(DecodeColumn(payload, schema, c));
    out->push_back(std::move(row));
  }
}

/// Batch-at-a-time scan-filter driver: per partition segment of a morsel
/// the compiled program evaluates the whole payload span at once
/// (sql/vectorized_eval.h) and only the selection-vector survivors
/// materialize. A null `compiled` sends every row to the residual.
Result<PartitionVec> VectorizedScanFilter(ExecutorContext& ctx,
                                          const IndexedRelationSnapshot& snap,
                                          const Schema& schema,
                                          const CompiledPredicate* compiled,
                                          const Expr* residual,
                                          const std::vector<int>& project_cols) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  const FlatRaw flat = FlatIndex(snap);
  const size_t num_parts = static_cast<size_t>(snap.num_partitions());
  const size_t n = flat.total;
  ctx.metrics().AddRowsScanned(n);
  const size_t grain = ctx.MorselGrain(n);
  std::vector<std::vector<MorselPiece>> chunks(n == 0 ? 0
                                                      : (n + grain - 1) / grain);
  Status first_error;
  std::mutex error_mu;
  std::optional<VectorizedPredicate> vec;
  if (compiled != nullptr) vec.emplace(*compiled);
  size_t dispatched = ctx.pool().ParallelForRange(
      n, grain,
      [&](size_t begin, size_t end) {
        ctx.metrics().AddTask();
        std::vector<MorselPiece> pieces;
        ChunkStats stats;
        VectorScratch vs;
        std::vector<uint32_t> sel(
            std::min(end - begin, RowBatchStore::kDirectoryChunkRows));
        ForEachSegment(flat, begin, end, [&](size_t p, size_t first, size_t last) {
          MorselPiece piece{p, {}};
          // Each run is one directory chunk's slice: the kernel filters
          // its column images in place, and only the survivors' payloads
          // are read.
          snap.view(static_cast<int>(p)).ForEachRun(first, last, [&](const RowRun& run) {
            const size_t kept = SelectRows(vec, run, sel.data(), &vs, &stats);
            for (size_t j = 0; j < kept; ++j) {
              EmitFilteredRow(run.payloads[sel[j]], schema, residual, project_cols,
                              &piece.rows, &stats);
            }
          });
          if (!piece.rows.empty()) pieces.push_back(std::move(piece));
        });
        FlushChunkStats(ctx, stats);
        if (!stats.error.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = stats.error;
        }
        chunks[begin / grain] = std::move(pieces);
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(first_error);
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddMorsels(dispatched);
  return AssemblePieces(ctx, num_parts, chunks);
}

/// Folds the selected lanes of one fused-aggregate input straight off the
/// encoded payloads. Integer SUM and the COUNTs fold branch-free over the
/// selection vector (a null lane contributes a masked zero, which is exact
/// for integers — and for the shadow double sum, whose partial results are
/// never -0.0); float SUM/AVG keep the null guard so the running double
/// accumulation stays bit-identical to UpdateStateFromPayload (adding +0.0
/// could flip a -0.0 accumulator); MIN/MAX box once per selected lane, as
/// the scalar path does.
void AccumulateSelectedLanes(AggState* s, AggFn fn,
                             const std::optional<CompiledAccessor>& acc_opt,
                             const uint8_t* const* payloads,
                             const uint32_t* sel, size_t kept) {
  if (fn == AggFn::kCountStar) {
    s->count += kept;
    return;
  }
  const CompiledAccessor& acc = *acc_opt;
  switch (fn) {
    case AggFn::kCountStar:
      return;  // handled above; no accessor to read
    case AggFn::kCount: {
      uint64_t c = 0;
      for (size_t j = 0; j < kept; ++j) {
        c += acc.IsNull(payloads[sel[j]]) ? 0u : 1u;
      }
      s->count += c;
      return;
    }
    case AggFn::kSum:
      if (acc.type() == TypeId::kFloat64) {
        for (size_t j = 0; j < kept; ++j) {
          const uint8_t* payload = payloads[sel[j]];
          if (!acc.IsNull(payload)) {
            s->any = true;
            s->dsum += acc.GetDouble(payload);
          }
        }
      } else {
        uint64_t nonnull = 0;
        for (size_t j = 0; j < kept; ++j) {
          const uint8_t* payload = payloads[sel[j]];
          // A null lane reads its (defined but meaningless) slot bytes and
          // folds a masked zero — no branch in the loop body.
          const int64_t m = acc.IsNull(payload) ? 0 : 1;
          const int64_t v = m * acc.GetInt64(payload);
          s->isum += v;
          s->dsum += static_cast<double>(v);
          nonnull += static_cast<uint64_t>(m);
        }
        if (nonnull > 0) s->any = true;
      }
      return;
    case AggFn::kAvg:
      for (size_t j = 0; j < kept; ++j) {
        const uint8_t* payload = payloads[sel[j]];
        if (!acc.IsNull(payload)) {
          s->any = true;
          s->dsum += acc.GetDouble(payload);
          ++s->count;
        }
      }
      return;
    case AggFn::kMin:
    case AggFn::kMax:
      for (size_t j = 0; j < kept; ++j) {
        const uint8_t* payload = payloads[sel[j]];
        if (!acc.IsNull(payload)) UpdateState(s, fn, acc.GetValue(payload));
      }
      return;
  }
}

/// Probe side of an indexed join, routed to the index's hash partitioning:
/// item `i` of partition `p` is a probe row whose key partition `p` owns.
/// Null keys never route (inner join: they match nothing).
class JoinProbeSource {
 public:
  virtual ~JoinProbeSource() = default;
  /// Probe rows routed to index partition `p`.
  virtual size_t size(size_t p) const = 0;
  /// The join key of item `i` of partition `p`. Morsels own disjoint
  /// items, so a source may keep per-item state between Key and ProbeRow.
  virtual Status Key(size_t p, size_t i, Value* key) = 0;
  /// The full probe row of item `i`, asked for at most once, after its
  /// Key; a source that must decode it does so into `*scratch`.
  virtual const Row& ProbeRow(size_t p, size_t i, Row* scratch) = 0;
  /// True when only ProbeRow decodes a row past its key column, so an item
  /// it never reaches is a decode avoided.
  virtual bool lazy() const { return false; }
};

/// Broadcast probe: the rows are materialized and every key evaluated
/// once, then routed by reference to the partition that owns it.
class BroadcastProbe final : public JoinProbeSource {
 public:
  static Result<std::unique_ptr<JoinProbeSource>> Make(
      ExecutorContext& ctx, const PartitionVec& parts, const Expr& key,
      const HashPartitioner& partitioner) {
    auto src = std::make_unique<BroadcastProbe>();
    src->rows_ = MakeBroadcast(ctx, CollectRows(parts)).rows;
    src->owned_.resize(static_cast<size_t>(partitioner.num_partitions()));
    const RowVec& rows = *src->rows_;
    for (size_t r = 0; r < rows.size(); ++r) {
      IDF_ASSIGN_OR_RETURN(Value k, key.Eval(rows[r]));
      if (k.is_null()) continue;
      const auto p = static_cast<size_t>(partitioner.PartitionOf(k));
      src->owned_[p].push_back({r, std::move(k)});
    }
    return std::unique_ptr<JoinProbeSource>(std::move(src));
  }
  size_t size(size_t p) const override { return owned_[p].size(); }
  Status Key(size_t p, size_t i, Value* key) override {
    *key = owned_[p][i].key;
    return Status::OK();
  }
  const Row& ProbeRow(size_t p, size_t i, Row*) override {
    return (*rows_)[owned_[p][i].row];
  }

 private:
  struct Item {
    size_t row;
    Value key;
  };
  std::shared_ptr<const RowVec> rows_;
  std::vector<std::vector<Item>> owned_;
};

/// Shuffled probe: the rows cross the exchange as encoded buffers, so no
/// Row is materialized on the way. A bound column-ref key decodes only
/// its column; the full row decodes on the probe's first surviving match.
/// Any other key decodes the full row to evaluate, and keeps it for that
/// match, so no probe row decodes twice.
class ShuffledProbe final : public JoinProbeSource {
 public:
  static Result<std::unique_ptr<JoinProbeSource>> Make(
      ExecutorContext& ctx, const PartitionVec& parts, SchemaPtr schema,
      ExprPtr key, const HashPartitioner& partitioner) {
    IDF_ASSIGN_OR_RETURN(
        BinaryPartitions rows,
        ShuffleEncodedByKeyExpr(ctx, parts, *schema, key, partitioner));
    auto src = std::make_unique<ShuffledProbe>();
    src->rows_ = std::move(rows);
    src->schema_ = std::move(schema);
    if (key->kind() == ExprKind::kColumnRef) {
      const auto* ref = static_cast<const ColumnRefExpr*>(key.get());
      if (ref->bound()) src->key_col_ = ref->index();
    }
    if (src->key_col_ < 0) {
      src->keyed_rows_.resize(src->rows_.size());
      for (size_t p = 0; p < src->rows_.size(); ++p) {
        src->keyed_rows_[p].resize(src->rows_[p].num_rows());
      }
    }
    src->key_ = std::move(key);
    return std::unique_ptr<JoinProbeSource>(std::move(src));
  }
  size_t size(size_t p) const override { return rows_[p].num_rows(); }
  Status Key(size_t p, size_t i, Value* key) override {
    const uint8_t* payload = rows_[p].payload(i);
    if (key_col_ >= 0) {
      *key = DecodeColumn(payload, *schema_, key_col_);
      return Status::OK();
    }
    Row& row = keyed_rows_[p][i];
    row = DecodeRow(payload, *schema_);
    IDF_ASSIGN_OR_RETURN(*key, key_->Eval(row));
    return Status::OK();
  }
  const Row& ProbeRow(size_t p, size_t i, Row* scratch) override {
    if (key_col_ >= 0) {
      *scratch = rows_[p].Decode(i, *schema_);
    } else {
      *scratch = std::move(keyed_rows_[p][i]);
    }
    return *scratch;
  }
  bool lazy() const override { return key_col_ >= 0; }

 private:
  BinaryPartitions rows_;
  SchemaPtr schema_;
  ExprPtr key_;
  int key_col_ = -1;
  /// The rows Key decoded for a key that is not a column ref, per item.
  std::vector<RowVec> keyed_rows_;
};

/// Driver for point lookups: each key routes to its home partition and
/// the backward-pointer chain is walked, applying a pushed filter while
/// each node is cache-hot — the compiled part against the encoded payload
/// (rejects never decode), the residual on the decoded row. Lookups are
/// heavier per item than scan rows (trie descent + chain walk), so an
/// IN-list splits into small per-task key ranges instead of counting as
/// one task.
Result<PartitionVec> LookupKeys(ExecutorContext& ctx,
                                const IndexedRelationSnapshot& snap,
                                const std::vector<Value>& keys,
                                const PushedFilter& filter) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  if (filter.compiled) ctx.metrics().AddPredicatesCompiled(1);
  const Schema& schema = *snap.schema();
  const CompiledPredicate* compiled =
      filter.compiled ? &*filter.compiled : nullptr;
  const Expr* residual = filter.residual.get();
  const size_t n = keys.size();
  const size_t threads = static_cast<size_t>(ctx.config().num_threads);
  const size_t grain = std::max<size_t>(
      1, std::min(ctx.config().morsel_rows, (n + threads * 4 - 1) / (threads * 4)));
  std::vector<RowVec> chunks(n == 0 ? 0 : (n + grain - 1) / grain);
  Status first_error;
  std::mutex error_mu;
  size_t dispatched = ctx.pool().ParallelForRange(
      n, grain,
      [&](size_t begin, size_t end) {
        ctx.metrics().AddTask();
        RowVec rows;
        uint64_t hits = 0;
        ChunkStats stats;
        for (size_t k = begin; k < end; ++k) {
          const Value& key = keys[k];
          const IndexedPartition::View& view =
              snap.view(snap.partitioner().PartitionOf(key));
          size_t matched = view.ForEachRawRow(key, [&](const uint8_t* payload) {
            if (compiled && !compiled->Matches(payload)) {
              ++stats.filtered_encoded;
              return;
            }
            Row row = DecodeRow(payload, schema);
            if (residual && !ResidualPasses(residual, row, &stats.error)) return;
            rows.push_back(std::move(row));
          });
          if (matched > 0) ++hits;
        }
        ctx.metrics().AddIndexProbes(end - begin);
        ctx.metrics().AddIndexHits(hits);
        FlushChunkStats(ctx, stats);
        if (!stats.error.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = stats.error;
        }
        chunks[begin / grain] = std::move(rows);
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(first_error);
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddMorsels(dispatched);
  RowVec rows;
  for (RowVec& c : chunks) {
    rows.insert(rows.end(), std::make_move_iterator(c.begin()),
                std::make_move_iterator(c.end()));
  }
  ctx.metrics().AddRowsProduced(rows.size());
  PartitionVec out;
  out.push_back(PartitionData(std::move(rows)));
  return out;
}

}  // namespace

Result<PartitionVec> IndexedScanOp::Execute(ExecutorContext& ctx) {
  std::optional<IndexedRelationSnapshot> scratch;
  IDF_ASSIGN_OR_RETURN(const IndexedRelationSnapshot* version,
                       ReadVersion(ctx, *rel_, &scratch));
  const IndexedRelationSnapshot& snap = *version;
  const Schema& schema = *rel_->schema();
  return MorselScanDense(ctx, snap, [&schema](const uint8_t* payload) {
    return DecodeRow(payload, schema);
  });
}

Result<PartitionVec> IndexedScanFilterOp::Execute(ExecutorContext& ctx) {
  std::optional<IndexedRelationSnapshot> scratch;
  IDF_ASSIGN_OR_RETURN(const IndexedRelationSnapshot* version,
                       ReadVersion(ctx, *rel_, &scratch));
  const IndexedRelationSnapshot& snap = *version;
  const Schema& schema = *rel_->schema();
  IDF_ASSIGN_OR_RETURN(PushedFilter filter, BindPushedFilter(filter_, ctx));
  if (filter.compiled) ctx.metrics().AddPredicatesCompiled(1);
  const CompiledPredicate* compiled =
      filter.compiled ? &*filter.compiled : nullptr;
  const Expr* residual = filter.residual.get();
  // Encoded-first: the compiled program reads the payload directly, so
  // rows it rejects are never decoded.
  return VectorizedScanFilter(ctx, snap, schema, compiled, residual,
                              project_cols_);
}

std::string SecondaryIndexProbeOp::name() const {
  std::string out = "SecondaryIndexProbe[" + rel_->name() + "] ";
  for (size_t i = 0; i < probes_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += probes_[i].ToString();
  }
  if (filter_.has_any()) out += " (+residual)";
  if (!project_cols_.empty()) out += " (pruned)";
  return out;
}

Result<PartitionVec> SecondaryIndexProbeOp::Execute(ExecutorContext& ctx) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  std::optional<IndexedRelationSnapshot> scratch;
  IDF_ASSIGN_OR_RETURN(const IndexedRelationSnapshot* version,
                       ReadVersion(ctx, *rel_, &scratch));
  const IndexedRelationSnapshot& snap = *version;
  const Schema& schema = *rel_->schema();
  IDF_ASSIGN_OR_RETURN(PushedFilter filter, BindPushedFilter(filter_, ctx));
  if (filter.compiled) ctx.metrics().AddPredicatesCompiled(1);
  const CompiledPredicate* compiled =
      filter.compiled ? &*filter.compiled : nullptr;
  const Expr* residual = filter.residual.get();

  // Partition-granular parallelism: a selective probe emits few rows per
  // partition, so the morsel machinery's flattening would cost more than
  // it balances. Each task probes its view's index (or falls back to a
  // full partition scan) and filters/projects the survivors in place.
  const size_t num_parts = static_cast<size_t>(snap.num_partitions());
  std::vector<RowVec> rows(num_parts);
  std::vector<ChunkStats> part_stats(num_parts);
  std::atomic<uint64_t> bitmap_probes{0};
  std::atomic<uint64_t> range_probes{0};
  std::atomic<uint64_t> scans_avoided{0};
  std::atomic<uint64_t> rows_scanned{0};
  ctx.pool().ParallelFor(
      num_parts,
      [&](size_t p) {
        ctx.metrics().AddTask();
        std::vector<const uint8_t*> payloads;
        SecondaryProbeStats pstats;
        snap.view(static_cast<int>(p))
            .ProbeSecondary(probes_, &payloads, &pstats);
        if (pstats.used_index) {
          for (const SecondaryProbe& probe : probes_) {
            if (probe.kind == SecondaryIndexKind::kBitmap) {
              bitmap_probes.fetch_add(1, std::memory_order_relaxed);
            } else {
              range_probes.fetch_add(1, std::memory_order_relaxed);
            }
          }
          scans_avoided.fetch_add(pstats.rows_avoided,
                                  std::memory_order_relaxed);
        }
        rows_scanned.fetch_add(pstats.from_index + pstats.suffix_scanned,
                               std::memory_order_relaxed);
        ChunkStats& stats = part_stats[p];
        RowVec& dst = rows[p];
        dst.reserve(payloads.size());
        for (const uint8_t* payload : payloads) {
          if (compiled != nullptr && !compiled->Matches(payload)) {
            ++stats.filtered_encoded;
            continue;
          }
          EmitFilteredRow(payload, schema, residual, project_cols_, &dst,
                          &stats);
        }
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddBitmapProbes(bitmap_probes.load(std::memory_order_relaxed));
  ctx.metrics().AddRangeProbes(range_probes.load(std::memory_order_relaxed));
  ctx.metrics().AddIndexScansAvoided(
      scans_avoided.load(std::memory_order_relaxed));
  ctx.metrics().AddRowsScanned(rows_scanned.load(std::memory_order_relaxed));
  size_t produced = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    FlushChunkStats(ctx, part_stats[p]);
    IDF_RETURN_NOT_OK(part_stats[p].error);
    produced += rows[p].size();
  }
  ctx.metrics().AddRowsProduced(produced);
  PartitionVec out;
  out.reserve(num_parts);
  for (RowVec& r : rows) out.push_back(PartitionData(std::move(r)));
  return out;
}

Result<PartitionVec> IndexedScanProjectOp::Execute(ExecutorContext& ctx) {
  std::optional<IndexedRelationSnapshot> scratch;
  IDF_ASSIGN_OR_RETURN(const IndexedRelationSnapshot* version,
                       ReadVersion(ctx, *rel_, &scratch));
  const IndexedRelationSnapshot& snap = *version;
  const Schema& schema = *rel_->schema();
  return MorselScanDense(ctx, snap, [this, &schema](const uint8_t* payload) {
    Row row;
    row.reserve(cols_.size());
    for (int c : cols_) row.push_back(DecodeColumn(payload, schema, c));
    return row;
  });
}

Result<PartitionVec> IndexedScanAggregateOp::Execute(ExecutorContext& ctx) {
  std::optional<IndexedRelationSnapshot> scratch;
  IDF_ASSIGN_OR_RETURN(const IndexedRelationSnapshot* version,
                       ReadVersion(ctx, *rel_, &scratch));
  const IndexedRelationSnapshot& snap = *version;
  const Schema& schema = *rel_->schema();
  IDF_ASSIGN_OR_RETURN(PushedFilter filter, BindPushedFilter(filter_, ctx));
  if (filter.compiled) ctx.metrics().AddPredicatesCompiled(1);
  const CompiledPredicate* compiled =
      filter.compiled ? &*filter.compiled : nullptr;
  const Expr* residual = filter.residual.get();

  const size_t num_groups = group_exprs_.size();
  const size_t num_aggs = aggs_.size();
  std::vector<TypeId> out_types;
  out_types.reserve(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    out_types.push_back(
        this->schema()->field(static_cast<int>(num_groups + a)).type);
  }

  // The fusion rule only builds this operator when every group expression
  // is a bound column reference, so the key reads straight off the payload.
  std::vector<CompiledAccessor> key_acc;
  key_acc.reserve(num_groups);
  for (const ExprPtr& g : group_exprs_) {
    auto acc = CompiledAccessor::FromExpr(g, schema);
    if (!acc) {
      return Status::Internal(
          "IndexedScanAggregate group expression is not a bound column ref");
    }
    key_acc.push_back(*acc);
  }
  std::vector<FusedAggInput> inputs(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (aggs_[a].fn == AggFn::kCountStar) continue;
    auto acc = CompiledAccessor::FromExpr(aggs_[a].arg, schema);
    if (acc) {
      inputs[a].acc = *acc;
    } else {
      inputs[a].expr = aggs_[a].arg.get();
    }
  }

  std::optional<VectorizedPredicate> vec;
  if (compiled != nullptr) vec.emplace(*compiled);
  // Ungrouped aggregates whose every input reads straight off the payload
  // (or is COUNT(*)), with no residual, accumulate over the selection
  // vector without building a key or touching a Row at all.
  bool ungrouped_fast = num_groups == 0 && residual == nullptr;
  for (size_t a = 0; a < num_aggs && ungrouped_fast; ++a) {
    if (aggs_[a].fn != AggFn::kCountStar && !inputs[a].acc) {
      ungrouped_fast = false;
    }
  }

  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  const FlatRaw flat = FlatIndex(snap);
  const size_t n = flat.total;
  ctx.metrics().AddRowsScanned(n);
  const size_t grain = ctx.MorselGrain(n);
  const size_t num_chunks = n == 0 ? 0 : (n + grain - 1) / grain;
  std::vector<GroupStateMap> chunk_maps(num_chunks);
  Status first_error;
  std::mutex error_mu;
  const size_t dispatched = ctx.pool().ParallelForRange(
      n, grain,
      [&](size_t begin, size_t end) {
        ctx.metrics().AddTask();
        GroupStateMap& groups = chunk_maps[begin / grain];
        ChunkStats stats;
        uint64_t encoded_rows = 0;
        VectorScratch vs;
        std::vector<uint32_t> sel(
            std::min(end - begin, RowBatchStore::kDirectoryChunkRows));
        // Accumulates one row that passed the compiled filter (every
        // selected row unless the ungrouped fast path applies).
        auto accumulate_row = [&](const uint8_t* payload) {
          Row decoded;
          bool has_decoded = false;
          if (residual) {
            decoded = DecodeRow(payload, schema);
            has_decoded = true;
            if (!ResidualPasses(residual, decoded, &stats.error)) return;
          }
          Row key;
          key.reserve(num_groups);
          for (const CompiledAccessor& acc : key_acc) {
            key.push_back(acc.GetValue(payload));
          }
          auto [it, inserted] = groups.try_emplace(std::move(key));
          if (inserted) it->second.resize(num_aggs);
          for (size_t a = 0; a < num_aggs; ++a) {
            if (inputs[a].acc) {
              UpdateStateFromPayload(&it->second[a], aggs_[a].fn,
                                     *inputs[a].acc, payload);
            } else if (inputs[a].expr != nullptr) {
              if (!has_decoded) {
                decoded = DecodeRow(payload, schema);
                has_decoded = true;
              }
              auto v = inputs[a].expr->Eval(decoded);
              if (!v.ok()) {
                if (stats.error.ok()) stats.error = v.status();
                continue;
              }
              UpdateState(&it->second[a], aggs_[a].fn,
                          std::move(v).ValueUnsafe());
            } else {
              ++it->second[a].count;  // COUNT(*)
            }
          }
          if (!has_decoded) ++encoded_rows;
        };
        auto accumulate_run = [&](const RowRun& run) {
          const uint8_t* const* payloads = run.payloads;
          const size_t kept = SelectRows(vec, run, sel.data(), &vs, &stats);
          if (!ungrouped_fast) {
            for (size_t j = 0; j < kept; ++j) accumulate_row(payloads[sel[j]]);
            return;
          }
          if (kept == 0) return;
          auto [it, inserted] = groups.try_emplace(Row{});
          if (inserted) it->second.resize(num_aggs);
          for (size_t a = 0; a < num_aggs; ++a) {
            AccumulateSelectedLanes(&it->second[a], aggs_[a].fn, inputs[a].acc,
                                    payloads, sel.data(), kept);
          }
          encoded_rows += kept;
        };
        ForEachSegment(flat, begin, end, [&](size_t p, size_t first, size_t last) {
          snap.view(static_cast<int>(p)).ForEachRun(first, last, accumulate_run);
        });
        FlushChunkStats(ctx, stats);
        if (encoded_rows > 0) {
          ctx.metrics().AddRowsAggregatedEncoded(encoded_rows);
          ctx.metrics().AddDecodesAvoided(encoded_rows);
        }
        if (!stats.error.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = stats.error;
        }
      },
      ctx.cancellation());
  ctx.metrics().AddMorsels(dispatched);
  ctx.metrics().AddAggMorsels(dispatched);
  IDF_RETURN_NOT_OK(first_error);
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  return MergePartialGroups(ctx, std::move(chunk_maps), num_groups, aggs_,
                            out_types);
}

Result<PartitionVec> IndexLookupOp::Execute(ExecutorContext& ctx) {
  std::optional<IndexedRelationSnapshot> scratch;
  IDF_ASSIGN_OR_RETURN(const IndexedRelationSnapshot* version,
                       ReadVersion(ctx, *rel_, &scratch));
  const IndexedRelationSnapshot& snap = *version;
  IDF_ASSIGN_OR_RETURN(std::vector<Value> keys,
                       ResolveLookupKeys(keys_, key_params_, ctx));
  IDF_ASSIGN_OR_RETURN(PushedFilter filter, BindPushedFilter(filter_, ctx));
  return LookupKeys(ctx, snap, keys, filter);
}

Result<PartitionVec> IndexedJoinOp::Execute(ExecutorContext& ctx) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  IDF_ASSIGN_OR_RETURN(PartitionVec probe_parts, children()[0]->Execute(ctx));
  std::optional<IndexedRelationSnapshot> scratch;
  IDF_ASSIGN_OR_RETURN(const IndexedRelationSnapshot* version,
                       ReadVersion(ctx, *rel_, &scratch));
  const IndexedRelationSnapshot& snap = *version;
  const Schema& build_schema = *rel_->schema();

  // Build-side filter from a pushed-down predicate on the indexed
  // relation. Chain walks only collect (build payload, probe item)
  // candidates; the compiled part then runs over them batch-at-a-time
  // (rejects are never decoded or concatenated) and the residual on the
  // decoded survivors.
  IDF_ASSIGN_OR_RETURN(PushedFilter build_filter,
                       BindPushedFilter(build_filter_, ctx));
  std::optional<VectorizedPredicate> build_vec;
  if (build_filter.compiled) {
    ctx.metrics().AddPredicatesCompiled(1);
    build_vec.emplace(*build_filter.compiled);
  }
  const Expr* build_residual = build_filter.residual.get();

  // The probe side moves, routed to the partition that owns each key; the
  // build side moves nothing (it is the index). The planner picks the
  // source from the probe's estimated size (paper §2, "Scheduling
  // Physical Operators").
  std::unique_ptr<JoinProbeSource> source;
  if (broadcast_probe_) {
    IDF_ASSIGN_OR_RETURN(source, BroadcastProbe::Make(ctx, probe_parts, *probe_key_,
                                                      snap.partitioner()));
  } else {
    IDF_ASSIGN_OR_RETURN(source,
                         ShuffledProbe::Make(ctx, probe_parts, children()[0]->schema(),
                                             probe_key_, snap.partitioner()));
  }
  const size_t num_parts = static_cast<size_t>(snap.num_partitions());
  const size_t out_width = static_cast<size_t>(schema()->num_fields());
  FlatRaw flat;
  flat.part_end.resize(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    flat.total += source->size(p);
    flat.part_end[p] = flat.total;
  }

  // Morsels of probe items, split across partitions.
  const size_t grain = ctx.MorselGrain(flat.total);
  std::vector<std::vector<MorselPiece>> chunks(
      flat.total == 0 ? 0 : (flat.total + grain - 1) / grain);
  Status first_error;
  std::mutex error_mu;
  size_t dispatched = ctx.pool().ParallelForRange(
      flat.total, grain,
      [&](size_t begin, size_t end) {
        ctx.metrics().AddTask();
        std::vector<MorselPiece> pieces;
        uint64_t hits = 0;
        uint64_t avoided = 0;
        ChunkStats stats;
        VectorScratch vs;
        std::vector<const uint8_t*> cand;  // build payloads found by the walks
        std::vector<size_t> cand_item;     // the probe item of each
        std::vector<uint32_t> sel;
        Value key;
        Row decoded;
        ForEachSegment(flat, begin, end, [&](size_t p, size_t first, size_t last) {
          if (!stats.error.ok()) return;
          const IndexedPartition::View& view = snap.view(static_cast<int>(p));
          MorselPiece piece{p, {}};
          uint64_t materialized = 0;
          // Filters the collected candidates and emits the survivors in
          // probe-major chain order. Flushes fall between probes, so a
          // probe's candidates are contiguous in one flush and its row is
          // materialized once, on its first surviving match, before the
          // build residual.
          auto flush = [&] {
            if (sel.size() < cand.size()) sel.resize(cand.size());
            const size_t kept = SelectRows(build_vec, RowRun(cand.data(), cand.size()),
                                           sel.data(), &vs, &stats);
            const Row* probe_row = nullptr;
            size_t probe_item = last;
            for (size_t j = 0; j < kept; ++j) {
              const size_t c = sel[j];
              if (cand_item[c] != probe_item) {
                probe_item = cand_item[c];
                probe_row = &source->ProbeRow(p, probe_item, &decoded);
                ++materialized;
              }
              // Without a residual the build columns decode straight into
              // the output row.
              Row build_row;
              if (build_residual) {
                build_row = DecodeRow(cand[c], build_schema);
                if (!ResidualPasses(build_residual, build_row, &stats.error)) {
                  continue;
                }
              }
              Row row;
              row.reserve(out_width);
              if (!indexed_on_left_) {
                row.insert(row.end(), probe_row->begin(), probe_row->end());
              }
              if (build_residual) {
                row.insert(row.end(), std::make_move_iterator(build_row.begin()),
                           std::make_move_iterator(build_row.end()));
              } else {
                for (int col = 0; col < build_schema.num_fields(); ++col) {
                  row.push_back(DecodeColumn(cand[c], build_schema, col));
                }
              }
              if (indexed_on_left_) {
                row.insert(row.end(), probe_row->begin(), probe_row->end());
              }
              piece.rows.push_back(std::move(row));
            }
            cand.clear();
            cand_item.clear();
          };
          for (size_t i = first; i < last; ++i) {
            Status st = source->Key(p, i, &key);
            if (!st.ok()) {
              stats.error = std::move(st);
              return;
            }
            size_t matched = view.ForEachRawRow(key, [&](const uint8_t* payload) {
              cand.push_back(payload);
              cand_item.push_back(i);
            });
            if (matched > 0) ++hits;
            // One filter batch at a time keeps the candidates cache-hot.
            if (cand.size() >= VectorizedPredicate::kBatchRows) flush();
          }
          flush();
          if (source->lazy()) avoided += (last - first) - materialized;
          if (!piece.rows.empty()) pieces.push_back(std::move(piece));
        });
        ctx.metrics().AddIndexProbes(end - begin);
        ctx.metrics().AddIndexHits(hits);
        ctx.metrics().AddDecodesAvoided(avoided);
        FlushChunkStats(ctx, stats);
        if (!stats.error.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = stats.error;
        }
        chunks[begin / grain] = std::move(pieces);
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(first_error);
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddMorsels(dispatched);
  return AssemblePieces(ctx, num_parts, chunks);
}

}  // namespace idf
