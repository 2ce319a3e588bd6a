// Batch-at-a-time vectorized evaluation (DESIGN.md §12) vs the row-at-a-
// time compiled interpreter, over the same encoded morsels:
//
//  - SelectiveScanKernel: the bare evaluation loop — gather + lane-wise
//    compare/Kleene + selection-vector append (FilterBatch) against
//    EvalEncoded called row by row on identical payload pointers. This
//    isolates the vectorization win from scan plumbing; its
//    speedup_vs_scalar counter is the headline number.
//  - SelectiveScan / FusedGroupBy / FusedGlobalAgg: the full operators —
//    what a query actually sees, including flatten, morsel dispatch, and
//    survivor decode. Compiled filters always run batch-at-a-time, so these
//    cases report their own time only.
//
// Sweeps selectivity via the `v < threshold` arg: 10 keeps ~1% (filter
// cost dominates), 500 keeps ~50% (decode amortizes the eval win).
//
//  - WideRowEqualityScan: the SNB SQ5/SQ6 access path — a compiled
//    `id = const` scan over rows shaped like SNB `comment` (8 columns,
//    variable-width string tails), reported as scan_us_per_krow. The
//    filter reads the `id` column image, not the rows, so this case
//    tracks the scan's plumbing rather than the kernel. The Cold variant
//    evicts the caches before every scan (it touches a buffer twice the
//    last-level cache size, untimed), which is what a served scan sees
//    between requests on demo_bench's demo_mixed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "indexed/indexed_dataframe.h"
#include "indexed/indexed_operators.h"
#include "snb/tables.h"
#include "sql/session.h"
#include "sql/vectorized_eval.h"
#include "storage/row_batch.h"

namespace idf {
namespace {

constexpr int64_t kRows = 200000;

struct Fixture {
  SessionPtr vec_session;
  IndexedRelationPtr rel;  // {k, v, d, s, a, b}
  SchemaPtr schema;
};

Fixture& SharedFixture() {
  static Fixture* f = [] {
    auto fx = new Fixture();
    EngineConfig cfg;
    cfg.num_partitions = 8;
    fx->vec_session = Session::Make(cfg).ValueOrDie();

    fx->schema = Schema::Make({{"k", TypeId::kInt64, false},
                               {"v", TypeId::kInt64, true},
                               {"d", TypeId::kFloat64, true},
                               {"s", TypeId::kString, false},
                               {"a", TypeId::kInt64, false},
                               {"b", TypeId::kFloat64, false}});
    RowVec rows;
    rows.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      rows.push_back({Value(i),
                      i % 97 == 0 ? Value::Null() : Value(i % 1000),
                      Value(0.5 * (i % 53)), Value("tag-" + std::to_string(i % 31)),
                      Value(i % 1024), Value(static_cast<double>(i % 7))});
    }
    auto df = fx->vec_session->CreateDataFrame(fx->schema, rows, "t").ValueOrDie();
    fx->rel = IndexedDataFrame::CreateIndex(df, 0, "t_by_k").ValueOrDie()
                  .relation();
    return fx;
  }();
  return *f;
}

// Three compiled comparisons and two Kleene ANDs per row; `v` carries
// NULLs so the tri-state path is exercised, not just the boolean one.
ExprPtr Predicate(int64_t threshold) {
  auto& fx = SharedFixture();
  return BindExpr(And(Lt(Col("v"), Lit(Value(threshold))),
                      And(Lt(Col("d"), Lit(Value(24.0))),
                          Ge(Col("b"), Lit(Value(1.0))))),
                  *fx.schema)
      .ValueOrDie();
}

// ---------------------------------------------------------------------------
// Kernel: FilterBatch vs row-at-a-time EvalEncoded on the same payloads
// ---------------------------------------------------------------------------

// Rows encoded back to back in one arena (the layout a RowBatch gives the
// operators), with the payload-pointer array the morsel drivers hand to
// FilterBatch.
struct EncodedColumn {
  std::vector<uint8_t> arena;
  std::vector<const uint8_t*> ptrs;
};

EncodedColumn& EncodedRows() {
  static EncodedColumn* enc = [] {
    auto& fx = SharedFixture();
    auto* e = new EncodedColumn();
    std::vector<size_t> offsets;
    offsets.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      Row row = {Value(i), i % 97 == 0 ? Value::Null() : Value(i % 1000),
                 Value(0.5 * (i % 53)), Value("tag-" + std::to_string(i % 31)),
                 Value(i % 1024), Value(static_cast<double>(i % 7))};
      std::vector<uint8_t> buf;
      IDF_CHECK_OK(EncodeRow(*fx.schema, row, &buf));
      offsets.push_back(e->arena.size());
      e->arena.insert(e->arena.end(), buf.begin(), buf.end());
    }
    e->ptrs.reserve(kRows);
    for (size_t off : offsets) e->ptrs.push_back(e->arena.data() + off);
    return e;
  }();
  return *enc;
}

// Per-iteration milliseconds of the row-at-a-time kernel, measured once
// per threshold and reused as the speedup baseline.
double ScalarKernelMs(int64_t threshold) {
  static std::map<int64_t, double> cache;
  auto it = cache.find(threshold);
  if (it != cache.end()) return it->second;
  auto& fx = SharedFixture();
  EncodedColumn& enc = EncodedRows();
  ExprPtr pred = Predicate(threshold);
  std::optional<CompiledPredicate> compiled =
      CompiledPredicate::Compile(pred, *fx.schema);
  IDF_CHECK(compiled.has_value());
  constexpr int kIters = 20;
  size_t kept = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int iter = 0; iter < kIters; ++iter) {
    for (const uint8_t* payload : enc.ptrs) {
      kept += compiled->EvalEncoded(payload) == TriBool::kTrue ? 1 : 0;
    }
  }
  const std::chrono::duration<double, std::milli> dt =
      std::chrono::steady_clock::now() - t0;
  benchmark::DoNotOptimize(kept);
  const double ms = dt.count() / kIters;
  cache[threshold] = ms;
  return ms;
}

void BM_SelectiveScanKernel_Vectorized(benchmark::State& state) {
  auto& fx = SharedFixture();
  EncodedColumn& enc = EncodedRows();
  ExprPtr pred = Predicate(state.range(0));
  std::optional<CompiledPredicate> compiled =
      CompiledPredicate::Compile(pred, *fx.schema);
  if (!compiled.has_value()) {
    state.SkipWithError("predicate unexpectedly not compilable");
    return;
  }
  VectorizedPredicate vec(*compiled);
  VectorScratch scratch;
  std::vector<uint32_t> sel(VectorizedPredicate::kBatchRows);
  size_t kept = 0;
  size_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (size_t base = 0; base < enc.ptrs.size();
         base += VectorizedPredicate::kBatchRows) {
      const size_t n =
          std::min(enc.ptrs.size() - base,
                   static_cast<size_t>(VectorizedPredicate::kBatchRows));
      kept += vec.FilterBatch(RowRun(enc.ptrs.data() + base, n), sel.data(), &scratch);
    }
    ++iters;
  }
  const std::chrono::duration<double, std::milli> dt =
      std::chrono::steady_clock::now() - t0;
  benchmark::DoNotOptimize(kept);
  state.counters["rows"] = static_cast<double>(kRows);
  state.counters["scalar_ms"] = ScalarKernelMs(state.range(0));
  if (iters > 0 && dt.count() > 0) {
    state.counters["speedup_vs_scalar"] =
        ScalarKernelMs(state.range(0)) / (dt.count() / iters);
  }
}
BENCHMARK(BM_SelectiveScanKernel_Vectorized)
    ->Arg(10)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_SelectiveScanKernel_RowAtATime(benchmark::State& state) {
  auto& fx = SharedFixture();
  EncodedColumn& enc = EncodedRows();
  ExprPtr pred = Predicate(state.range(0));
  std::optional<CompiledPredicate> compiled =
      CompiledPredicate::Compile(pred, *fx.schema);
  IDF_CHECK(compiled.has_value());
  size_t kept = 0;
  for (auto _ : state) {
    for (const uint8_t* payload : enc.ptrs) {
      kept += compiled->EvalEncoded(payload) == TriBool::kTrue ? 1 : 0;
    }
  }
  benchmark::DoNotOptimize(kept);
  state.counters["rows"] = static_cast<double>(kRows);
}
BENCHMARK(BM_SelectiveScanKernel_RowAtATime)
    ->Arg(10)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Full operators
// ---------------------------------------------------------------------------

void RunOperator(benchmark::State& state, const PhysicalOpPtr& op) {
  auto& fx = SharedFixture();
  for (auto _ : state) {
    auto parts = op->Execute(fx.vec_session->exec());
    if (!parts.ok()) {
      state.SkipWithError(parts.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(TotalRows(*parts));
  }
  state.counters["rows"] = static_cast<double>(kRows);
}

void BM_SelectiveScan_Vectorized(benchmark::State& state) {
  auto& fx = SharedFixture();
  ExprPtr pred = Predicate(state.range(0));
  auto op = std::make_shared<IndexedScanFilterOp>(
      fx.rel, pred,
      PushedFilter::FromSplit(SplitForCompilation(pred, *fx.schema)));
  fx.vec_session->metrics().Reset();
  RunOperator(state, op);
  state.counters["rows_filtered_vectorized"] = static_cast<double>(
      fx.vec_session->metrics().rows_filtered_vectorized());
}
BENCHMARK(BM_SelectiveScan_Vectorized)
    ->Arg(10)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_FusedGroupBy_Vectorized(benchmark::State& state) {
  auto& fx = SharedFixture();
  ExprPtr pred = Predicate(state.range(0));
  std::vector<ExprPtr> groups = {BindExpr(Col("a"), *fx.schema).ValueOrDie()};
  std::vector<AggSpec> aggs = {
      CountStar("cnt"), SumOf(BindExpr(Col("v"), *fx.schema).ValueOrDie(), "sv"),
      MinOf(BindExpr(Col("d"), *fx.schema).ValueOrDie(), "mn"),
      MaxOf(BindExpr(Col("d"), *fx.schema).ValueOrDie(), "mx")};
  SchemaPtr out = Schema::Make({{"a", TypeId::kInt64, false},
                                {"cnt", TypeId::kInt64, false},
                                {"sv", TypeId::kInt64, true},
                                {"mn", TypeId::kFloat64, true},
                                {"mx", TypeId::kFloat64, true}});
  auto op = std::make_shared<IndexedScanAggregateOp>(
      fx.rel, pred, PushedFilter::FromSplit(SplitForCompilation(pred, *fx.schema)),
      groups, aggs, out);
  RunOperator(state, op);
}
BENCHMARK(BM_FusedGroupBy_Vectorized)
    ->Arg(10)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

// Global (no groups) fused aggregate: the lane-accumulation fast path.
void BM_FusedGlobalAgg_Vectorized(benchmark::State& state) {
  auto& fx = SharedFixture();
  ExprPtr pred = Predicate(state.range(0));
  std::vector<AggSpec> aggs = {
      CountStar("cnt"), SumOf(BindExpr(Col("v"), *fx.schema).ValueOrDie(), "sv"),
      AvgOf(BindExpr(Col("d"), *fx.schema).ValueOrDie(), "ad")};
  SchemaPtr out = Schema::Make({{"cnt", TypeId::kInt64, false},
                                {"sv", TypeId::kInt64, true},
                                {"ad", TypeId::kFloat64, true}});
  auto op = std::make_shared<IndexedScanAggregateOp>(
      fx.rel, pred, PushedFilter::FromSplit(SplitForCompilation(pred, *fx.schema)),
      std::vector<ExprPtr>{}, aggs, out);
  RunOperator(state, op);
}
BENCHMARK(BM_FusedGlobalAgg_Vectorized)
    ->Arg(10)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Wide-row equality scan (SNB SQ5/SQ6 over `comment`)
// ---------------------------------------------------------------------------

/// Touches a buffer twice the size of the largest cache the library
/// reports, evicting whatever a previous iteration left cached.
void EvictCaches() {
  static std::vector<uint8_t>* buf = [] {
    size_t llc = 0;
    for (const auto& c : benchmark::CPUInfo::Get().caches) {
      llc = std::max(llc, static_cast<size_t>(c.size));
    }
    return new std::vector<uint8_t>(2 * std::max<size_t>(llc, size_t{8} << 20), 1);
  }();
  uint8_t* p = buf->data();
  for (size_t i = 0; i < buf->size(); i += 64) p[i] = static_cast<uint8_t>(p[i] + 1);
  benchmark::ClobberMemory();
}

void RunWideRowEqualityScan(benchmark::State& state, bool cold) {
  constexpr int64_t kComments = 18000;  // demo_bench's `comment` size
  static IndexedRelationPtr rel = [] {
    auto& fx = SharedFixture();
    RowVec rows;
    rows.reserve(kComments);
    for (int64_t i = 0; i < kComments; ++i) {
      rows.push_back({Value(i), Value(i % 500), Value(int64_t{1262304000} + i),
                      Value("10.0." + std::to_string(i % 256) + ".1"),
                      Value(i % 3 == 0 ? "Firefox" : "Chrome"),
                      Value("comment body " + std::string(static_cast<size_t>(
                                                  20 + i % 60), 'x')),
                      Value(static_cast<int32_t>(20 + i % 60)), Value(i % 4000)});
    }
    auto df = fx.vec_session
                  ->CreateDataFrame(snb::CommentSchema(), rows, "comment")
                  .ValueOrDie();
    return IndexedDataFrame::CreateIndex(df, 1, "comment_by_creatorId")
        .ValueOrDie()
        .relation();
  }();
  auto& fx = SharedFixture();
  ExprPtr pred = BindExpr(Eq(Col("id"), Lit(Value(int64_t{kComments / 2}))),
                          *rel->schema())
                     .ValueOrDie();
  auto op = std::make_shared<IndexedScanFilterOp>(
      rel, pred, PushedFilter::FromSplit(SplitForCompilation(pred, *rel->schema())));
  size_t iters = 0;
  std::chrono::duration<double, std::micro> scanned{0};
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      EvictCaches();
      state.ResumeTiming();
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto parts = op->Execute(fx.vec_session->exec());
    scanned += std::chrono::steady_clock::now() - t0;
    if (!parts.ok() || TotalRows(*parts) != 1) {
      state.SkipWithError("equality scan did not return its one row");
      return;
    }
    ++iters;
  }
  state.counters["rows"] = static_cast<double>(kComments);
  if (iters > 0) {
    state.counters["scan_us_per_krow"] =
        scanned.count() / static_cast<double>(iters) / (kComments / 1000.0);
  }
}

void BM_WideRowEqualityScan(benchmark::State& state) {
  RunWideRowEqualityScan(state, /*cold=*/false);
}
BENCHMARK(BM_WideRowEqualityScan)->Unit(benchmark::kMicrosecond);

// Each iteration pays a cache eviction of some tens of milliseconds
// outside the timer, so the iteration count is fixed.
void BM_WideRowEqualityScan_Cold(benchmark::State& state) {
  RunWideRowEqualityScan(state, /*cold=*/true);
}
BENCHMARK(BM_WideRowEqualityScan_Cold)->Iterations(60)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace idf

// Like BENCHMARK_MAIN(), but defaults to also writing machine-readable
// JSON results to BENCH_vectorized_filter.json (consumed by CI) when the
// caller passes no --benchmark_out of their own.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_vectorized_filter.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
