// Batch-at-a-time vectorized evaluation of compiled predicates
// (DESIGN.md §12). Where CompiledPredicate::EvalEncoded walks the postfix
// program once per payload pointer, VectorizedPredicate evaluates one
// instruction over a whole batch of rows at a time:
//
//  1. Load + compare: each column-reading instruction makes one pass over
//     the batch and writes a TriBool byte lane. Its lane loader reads the
//     column's dense image when the rows are a store run (RowRun from
//     RowBatchStore::ForEachRun: sequential slots and null bytes), and
//     otherwise gathers the null bit and the slot through each payload
//     pointer via the precomputed CompiledAccessor offsets (scattered
//     rows, and string columns always). The comparison operator is
//     dispatched ONCE per batch (template instantiation), so the loop body
//     is free of per-row dispatch.
//  2. Combine: AND/OR/NOT run as branch-free Kleene byte-lane kernels
//     (AND = min, OR = max, NOT = 2 - x on the TriBool encoding), with
//     explicit SSE2/AVX2 intrinsics behind the IDF_SIMD feature macro and
//     a scalar fallback that stays bit-identical (min/max/subtract are
//     exact in either form).
//
// The result of FilterBatch is a selection vector (ascending row indexes
// whose tri-state is TRUE) that flows into decode, fused aggregation, and
// the join build-side filter without any per-row predicate dispatch.
//
// Contract: for every lane, the batch result is bit-identical to
// EvalEncoded on that lane's payload, whichever loader read it (the
// differential fuzzer in tests/test_property_fuzz.cc enforces this, under
// ASan/UBSan/TSan and with the SIMD macro forced off).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sql/predicate_compiler.h"
#include "storage/row_batch_store.h"

// IDF_SIMD: explicit x86 byte-lane intrinsics for the Kleene combinators.
// Build with -DIDF_DISABLE_SIMD (CMake: -DIDF_ENABLE_SIMD=OFF) to force
// the scalar fallback everywhere; CI keeps that leg compiled and tested.
#if !defined(IDF_DISABLE_SIMD) && defined(__SSE2__)
#define IDF_SIMD 1
#else
#define IDF_SIMD 0
#endif

namespace idf {

/// Reusable lane-stack scratch for batch evaluation. One per worker
/// chunk; the buffer grows to the program's needs on first use and is
/// reused across batches (no allocation in the steady state).
class VectorScratch {
 private:
  friend class VectorizedPredicate;
  std::vector<uint8_t> tri;  // value stack: depth * kBatchRows lanes
};

/// Column-at-a-time evaluator over a CompiledPredicate's program. Holds a
/// pointer to the program, which must outlive the evaluator.
class VectorizedPredicate {
 public:
  /// Rows evaluated per internal batch: large enough to amortize the
  /// per-instruction dispatch, small enough that the rows a batch touches
  /// (~256 cache lines) plus the tri-state stack stay L1-resident, so the
  /// second and later instruction passes re-hit the lines the first pass
  /// pulled in.
  static constexpr size_t kBatchRows = 256;

  /// True when the Kleene combinators run on explicit SIMD intrinsics;
  /// false in the scalar-fallback build (-DIDF_ENABLE_SIMD=OFF).
  static constexpr bool kSimdEnabled = IDF_SIMD != 0;

  explicit VectorizedPredicate(const CompiledPredicate& program);

  /// Internal batches needed for `n` rows (metrics bookkeeping).
  static size_t NumBatches(size_t n) {
    return (n + kBatchRows - 1) / kBatchRows;
  }

  /// Evaluates the program over the rows of `rows`; out_tri[i] receives
  /// the TriBool of row i (as its uint8_t encoding). Fixed-width columns
  /// are read from the run's column images where it has them, everything
  /// else from the payloads. Batches internally, so any count is accepted.
  void EvalBatch(const RowRun& rows, uint8_t* out_tri,
                 VectorScratch* scratch) const;

  /// Filter form: writes the ascending indexes of rows whose tri-state is
  /// TRUE into sel (capacity >= the row count) and returns how many there
  /// are.
  size_t FilterBatch(const RowRun& rows, uint32_t* sel,
                     VectorScratch* scratch) const;

  size_t stack_depth() const { return depth_; }

 private:
  /// Rows [base, base + n) of `rows`, n at most kBatchRows; the result
  /// lanes are left at the bottom of the scratch tri stack.
  void EvalOneBatch(const RowRun& rows, size_t base, size_t n,
                    VectorScratch* scratch) const;

  const CompiledPredicate* program_;
  size_t depth_ = 0;  // maximum value-stack depth of the program
};

}  // namespace idf
