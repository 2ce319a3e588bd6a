// CTrie microbenchmarks: insert and lookup costs, against std::unordered_map
// (the obvious non-concurrent alternative) to quantify what lock-free reads
// cost.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "common/hash.h"
#include "ctrie/ctrie.h"

namespace idf {
namespace {

void BM_CTrieInsert(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    CTrie t;
    for (uint64_t i = 0; i < n; ++i) t.Insert(i, i);
    benchmark::DoNotOptimize(t.size_hint());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CTrieInsert)->Arg(1000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_UnorderedMapInsert(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    std::unordered_map<uint64_t, uint64_t> m;
    for (uint64_t i = 0; i < n; ++i) m.emplace(i, i);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_UnorderedMapInsert)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_CTrieLookupHit(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  CTrie t;
  for (uint64_t i = 0; i < n; ++i) t.Insert(i, i);
  Random64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Lookup(rng.Uniform(n)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CTrieLookupHit)->Arg(1000)->Arg(1000000);

void BM_UnorderedMapLookupHit(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  std::unordered_map<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < n; ++i) m.emplace(i, i);
  Random64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.find(rng.Uniform(n)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_UnorderedMapLookupHit)->Arg(1000)->Arg(1000000);

void BM_CTrieLookupMiss(benchmark::State& state) {
  CTrie t;
  for (uint64_t i = 0; i < 100000; ++i) t.Insert(i, i);
  Random64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Lookup(1000000 + rng.Uniform(100000)));
  }
}
BENCHMARK(BM_CTrieLookupMiss);

}  // namespace
}  // namespace idf

BENCHMARK_MAIN();
