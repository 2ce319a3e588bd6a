// Append-mode ablation (paper §2: "the append rows operation can be
// performed both in a fine-grained and a batch-oriented mode by organizing
// the rows we need to append as a regular Spark Dataframe").
//
// Sweeps rows-per-append from 1 (lowest latency) to 10k (highest
// throughput) and reports per-row cost. BM_AppendBatchedVsPerRow is the
// acceptance benchmark of the partition-parallel batched write path:
// batched rows/sec vs a per-row baseline measured once at startup
// (speedup_vs_serial; >= 2x expected on a multi-core host).
// BM_AppendAfterPin prices a commit that follows a reader's pin, as every
// commit does while views or readers pin between batches.
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "indexed/indexed_relation.h"
#include "snb/tables.h"
#include "sql/session.h"

namespace idf {
namespace {

SchemaPtr EdgeSchema() {
  return Schema::Make({{"src", TypeId::kInt64, false},
                       {"dst", TypeId::kInt64, false}});
}

void BM_AppendMode(benchmark::State& state) {
  const size_t batch_rows = static_cast<size_t>(state.range(0));
  EngineConfig cfg;
  cfg.num_partitions = 8;
  auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
  auto rel =
      IndexedRelation::Build(*ctx, "append", EdgeSchema(), 0, {}).ValueOrDie();
  int64_t next = 0;
  RowVec batch;
  batch.reserve(batch_rows);
  for (auto _ : state) {
    state.PauseTiming();
    batch.clear();
    for (size_t i = 0; i < batch_rows; ++i, ++next) {
      batch.push_back({Value(next % 1000), Value(next)});
    }
    state.ResumeTiming();
    Status st = rel->AppendRows(*ctx, batch);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch_rows));
  state.counters["rows_per_append"] = static_cast<double>(batch_rows);
}

BENCHMARK(BM_AppendMode)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Row-batch size ablation (paper §2: "Both the batch and row sizes are
// configurable parameters"). Sweeps the batch size and measures bulk
// append throughput plus the batch count the store ends up with.
void BM_RowBatchSize(benchmark::State& state) {
  const size_t batch_bytes = static_cast<size_t>(state.range(0));
  EngineConfig cfg;
  cfg.num_partitions = 8;
  cfg.row_batch_bytes = batch_bytes;
  cfg.max_row_bytes = std::min<size_t>(1024, batch_bytes / 4);
  auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
  constexpr size_t kRows = 100000;
  RowVec rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i % 5000)),
                    Value(static_cast<int64_t>(i))});
  }
  IndexedRelationPtr rel;
  for (auto _ : state) {
    rel = IndexedRelation::Build(*ctx, "bsize", EdgeSchema(), 0, rows)
              .ValueOrDie();
    benchmark::DoNotOptimize(rel->num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
  size_t batches = 0;
  for (int p = 0; p < rel->num_partitions(); ++p) {
    batches += rel->partition(p).store().num_batches();
  }
  state.counters["batch_KB"] = static_cast<double>(batch_bytes) / 1024;
  state.counters["num_batches"] = static_cast<double>(batches);
  state.counters["allocated_MB"] = [&] {
    size_t b = 0;
    for (int p = 0; p < rel->num_partitions(); ++p) {
      b += rel->partition(p).store().allocated_bytes();
    }
    return static_cast<double>(b) / (1024 * 1024);
  }();
}
BENCHMARK(BM_RowBatchSize)
    ->Arg(16 * 1024)
    ->Arg(256 * 1024)
    ->Arg(4 * 1024 * 1024)  // the paper's default
    ->Unit(benchmark::kMillisecond);

// Single-row direct append: the lowest-latency fine-grained path (no
// shuffle routing machinery).
void BM_AppendRowDirect(benchmark::State& state) {
  EngineConfig cfg;
  cfg.num_partitions = 8;
  auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
  auto rel =
      IndexedRelation::Build(*ctx, "append1", EdgeSchema(), 0, {}).ValueOrDie();
  int64_t next = 0;
  for (auto _ : state) {
    Status st = rel->AppendRow({Value(next % 1000), Value(next)});
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    ++next;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AppendRowDirect)->Unit(benchmark::kMicrosecond);

// --- Batched vs per-row append throughput ------------------------------
//
// Same rows, two write paths: AppendRows (batch encoded off the locks, one
// lock acquisition per touched partition, one version bump) vs an
// AppendRow loop (per-row lock churn). The per-row baseline is measured
// once; batched runs report speedup_vs_serial against it.

constexpr size_t kThroughputRows = 20000;

RowVec ThroughputRows() {
  RowVec rows;
  rows.reserve(kThroughputRows);
  for (size_t i = 0; i < kThroughputRows; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i % 2000)),
                    Value(static_cast<int64_t>(i))});
  }
  return rows;
}

double PerRowBaselineMs() {
  static const double baseline = [] {
    EngineConfig cfg;
    cfg.num_partitions = 8;
    auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
    auto rel =
        IndexedRelation::Build(*ctx, "base", EdgeSchema(), 0, {}).ValueOrDie();
    RowVec rows = ThroughputRows();
    auto start = std::chrono::steady_clock::now();
    for (const Row& row : rows) IDF_CHECK_OK(rel->AppendRow(row));
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }();
  return baseline;
}

void BM_AppendBatchedVsPerRow(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  EngineConfig cfg;
  cfg.num_partitions = 8;
  cfg.num_threads = threads;
  auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
  const RowVec rows = ThroughputRows();
  const double baseline_ms = PerRowBaselineMs();
  double total_ms = 0;
  size_t iters = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto rel =
        IndexedRelation::Build(*ctx, "batched", EdgeSchema(), 0, {}).ValueOrDie();
    ctx->metrics().Reset();
    state.ResumeTiming();
    auto start = std::chrono::steady_clock::now();
    Status st = rel->AppendRows(*ctx, rows);
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    ++iters;
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kThroughputRows));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["partition_locks_per_batch"] =
      static_cast<double>(ctx->metrics().append_partition_locks());
  state.counters["rows_encoded_parallel"] =
      static_cast<double>(ctx->metrics().rows_appended_parallel());
  if (iters > 0 && total_ms > 0) {
    state.counters["speedup_vs_serial"] = baseline_ms / (total_ms / iters);
  }
}
BENCHMARK(BM_AppendBatchedVsPerRow)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- Appends after a pin -------------------------------------------------
//
// 32-row batches into a 4-partition, 18k-row relation shaped like the SNB
// `comment` table (indexed on replyOfPostId, three string columns), with
// pin=1 taking a relation snapshot before every batch and holding it until
// the next one. Every key of these batches is already present, so each
// head lands in place in its key's trie cell: trie_nodes_per_batch counts
// the nodes each batch allocates and reads 0 at pin=0 and pin=1 alike.
// pin_us_per_batch times the pin itself (4 partition views), outside
// append_us_per_batch.

constexpr int64_t kCommentPosts = 6000;

Row CommentShapedRow(int64_t id) {
  const int64_t post = (id * 7919) % kCommentPosts;  // scattered replies
  return {Value(id),
          Value(id % 997),
          Value(int64_t{1262304000000000} + id * 1000000),
          Value("10.0." + std::to_string(id % 256) + "." + std::to_string(id % 199)),
          Value(id % 3 == 0 ? "Firefox" : "Chrome"),
          Value("comment body " + std::to_string(id) + " about post " +
                std::to_string(post)),
          Value(static_cast<int32_t>(20 + id % 60)),
          Value(post)};
}

void BM_AppendAfterPin(benchmark::State& state) {
  const bool pin = state.range(0) != 0;
  constexpr size_t kBaseRows = 18000;
  constexpr size_t kBatchRows = 32;
  EngineConfig cfg;
  cfg.num_partitions = 4;
  auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
  RowVec base;
  base.reserve(kBaseRows);
  for (size_t i = 0; i < kBaseRows; ++i) {
    base.push_back(CommentShapedRow(static_cast<int64_t>(i)));
  }
  auto rel = IndexedRelation::Build(*ctx, "comment", snb::CommentSchema(),
                                    snb::comment::kReplyOfPostId, base)
                 .ValueOrDie();
  auto trie_nodes = [&rel] {
    size_t n = 0;
    for (int p = 0; p < rel->num_partitions(); ++p) {
      n += rel->partition(p).gen()->index.allocated_nodes();
    }
    return n;
  };
  int64_t next = static_cast<int64_t>(kBaseRows);
  RowVec batch;
  batch.reserve(kBatchRows);
  std::optional<IndexedRelationSnapshot> held;
  double append_us = 0;
  double pin_us = 0;
  size_t batches = 0;
  const size_t nodes_before = trie_nodes();
  for (auto _ : state) {
    state.PauseTiming();
    batch.clear();
    for (size_t i = 0; i < kBatchRows; ++i) batch.push_back(CommentShapedRow(next++));
    state.ResumeTiming();
    if (pin) {
      const auto pin_start = std::chrono::steady_clock::now();
      held.emplace(rel->Snapshot());
      pin_us += std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - pin_start)
                    .count();
    }
    auto start = std::chrono::steady_clock::now();
    Status st = rel->AppendRows(*ctx, batch);
    append_us += std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    ++batches;
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRows));
  if (batches > 0) {
    state.counters["append_us_per_batch"] = append_us / static_cast<double>(batches);
    state.counters["pin_us_per_batch"] = pin_us / static_cast<double>(batches);
    state.counters["trie_nodes_per_batch"] =
        static_cast<double>(trie_nodes() - nodes_before) / static_cast<double>(batches);
  }
}
BENCHMARK(BM_AppendAfterPin)->ArgName("pin")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace idf

// Like BENCHMARK_MAIN(), but defaults to also writing machine-readable
// JSON results to BENCH_append_modes.json (consumed by the perf-smoke CI
// job) when the caller passes no --benchmark_out of their own.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_append_modes.json";
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
