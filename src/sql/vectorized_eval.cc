#include "sql/vectorized_eval.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>

#include "storage/row_batch.h"

#if IDF_SIMD
#include <immintrin.h>
#endif

namespace idf {

namespace {

constexpr uint8_t kF = static_cast<uint8_t>(TriBool::kFalse);
constexpr uint8_t kN = static_cast<uint8_t>(TriBool::kNull);
constexpr uint8_t kT = static_cast<uint8_t>(TriBool::kTrue);

// ---------------------------------------------------------------------------
// Comparison kernels. Written in terms of == and < exactly like
// Value::CompareValues and the row-at-a-time EvalEncoded (kLe = !(b < a),
// kNe = !(a == b), ...) so NaN operands produce bit-identical results. The
// operator is a template parameter: DispatchCmp instantiates the lane loop
// once per CompareOp, keeping the loop body free of per-row dispatch.
// ---------------------------------------------------------------------------

template <CompareOp op, typename T>
inline bool CmpLane(const T& a, const T& b) {
  if constexpr (op == CompareOp::kEq) return a == b;
  if constexpr (op == CompareOp::kNe) return !(a == b);
  if constexpr (op == CompareOp::kLt) return a < b;
  if constexpr (op == CompareOp::kLe) return !(b < a);
  if constexpr (op == CompareOp::kGt) return b < a;
  if constexpr (op == CompareOp::kGe) return !(a < b);
}

template <typename Fn>
void DispatchCmp(CompareOp op, Fn&& fn) {
  switch (op) {
    case CompareOp::kEq:
      fn(std::integral_constant<CompareOp, CompareOp::kEq>{});
      return;
    case CompareOp::kNe:
      fn(std::integral_constant<CompareOp, CompareOp::kNe>{});
      return;
    case CompareOp::kLt:
      fn(std::integral_constant<CompareOp, CompareOp::kLt>{});
      return;
    case CompareOp::kLe:
      fn(std::integral_constant<CompareOp, CompareOp::kLe>{});
      return;
    case CompareOp::kGt:
      fn(std::integral_constant<CompareOp, CompareOp::kGt>{});
      return;
    case CompareOp::kGe:
      fn(std::integral_constant<CompareOp, CompareOp::kGe>{});
      return;
  }
}

// ---------------------------------------------------------------------------
// Lane loaders. A compare kernel reads lane i's raw 8-byte slot and null
// flag through one of two loaders:
//  - GatherLanes follows the batch's payload pointers (scattered rows:
//    chain walks, probe output, string columns), reading the null bit and
//    the slot together while the row's cache line is hot. The slot load is
//    defined even for null lanes (the fixed section always exists).
//  - DenseLanes reads a store run's column image (storage/
//    row_batch_store.h): sequential slots and null bytes, no pointer chase.
// Each kernel is one template per op and type, instantiated per loader.
// ---------------------------------------------------------------------------

struct GatherLanes {
  const uint8_t* const* payloads;
  uint32_t slot_off;
  uint32_t null_byte;
  uint8_t null_mask;

  const uint8_t* Payload(size_t i) const { return payloads[i]; }
  uint64_t Slot(size_t i) const {
    uint64_t x;
    std::memcpy(&x, payloads[i] + slot_off, 8);
    return x;
  }
  bool Null(size_t i) const { return (payloads[i][null_byte] & null_mask) != 0; }
};

struct DenseLanes {
  const uint64_t* slots;
  const uint8_t* nulls;

  uint64_t Slot(size_t i) const { return slots[i]; }
  bool Null(size_t i) const { return nulls[i] != 0; }
};

/// Integer-backed slot as int64: int32 slots sign-extend their low word
/// (the widening Value::AsInt64 applies, exactly as in the row-at-a-time
/// kCmpInt32).
template <bool narrow>
inline int64_t SlotAsInt64(uint64_t slot) {
  if constexpr (narrow) {
    return static_cast<int32_t>(static_cast<uint32_t>(slot));
  } else {
    return std::bit_cast<int64_t>(slot);
  }
}

// The lane loops write TriBool bytes; a plain uint8_t* store aliases
// everything under the language rules, which would force the compiler to
// reload the payload pointers and instruction fields on every iteration.
// The kernels therefore take the loader and hoisted scalar operands by
// value and a restrict-qualified output (the tri stack never overlaps row
// memory).
#define IDF_RESTRICT __restrict__

template <CompareOp op, bool narrow, typename Lanes>
void CmpIntLanes(Lanes in, size_t n, int64_t imm, uint8_t* IDF_RESTRICT out) {
  for (size_t i = 0; i < n; ++i) {
    const bool c = CmpLane<op>(SlotAsInt64<narrow>(in.Slot(i)), imm);
    out[i] = in.Null(i) ? kN : (c ? kT : kF);
  }
}

template <CompareOp op, bool narrow, typename Lanes>
void CmpIntAsDoubleLanes(Lanes in, size_t n, double imm,
                         uint8_t* IDF_RESTRICT out) {
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(SlotAsInt64<narrow>(in.Slot(i)));
    out[i] = in.Null(i) ? kN : (CmpLane<op>(v, imm) ? kT : kF);
  }
}

template <CompareOp op, typename Lanes>
void CmpDoubleLanes(Lanes in, size_t n, double imm, uint8_t* IDF_RESTRICT out) {
  for (size_t i = 0; i < n; ++i) {
    const double v = std::bit_cast<double>(in.Slot(i));
    out[i] = in.Null(i) ? kN : (CmpLane<op>(v, imm) ? kT : kF);
  }
}

/// Strings live out of line, so they always gather.
template <CompareOp op>
void CmpStringLanes(GatherLanes in, size_t n, std::string_view want,
                    uint8_t* IDF_RESTRICT out) {
  for (size_t i = 0; i < n; ++i) {
    // The slot of a null lane is garbage; the view must not be formed for
    // it (the ternary short-circuits the deref).
    out[i] = in.Null(i) ? kN
                        : (CmpLane<op>(RawColumnString(in.Payload(i), in.Slot(i)),
                                       want)
                               ? kT
                               : kF);
  }
}

template <typename Lanes>
void BoolColLanes(Lanes in, size_t n, uint8_t* IDF_RESTRICT out) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t t = in.Slot(i) != 0 ? kT : kF;
    out[i] = in.Null(i) ? kN : t;
  }
}

template <typename Lanes>
void IsNullLanes(Lanes in, size_t n, bool negated, uint8_t* IDF_RESTRICT out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (in.Null(i) != negated) ? kT : kF;
  }
}

/// Calls `fn(lanes)` with the loader for rows [base, ...) of column
/// instruction `inst`: its dense image when `rows` carries one, else the
/// payload gather.
template <typename Inst, typename Fn>
void WithLanes(const RowRun& rows, size_t base, const Inst& inst, Fn&& fn) {
  const ColumnSlice image = rows.Column(static_cast<int>(inst.col));
  if (image.slots != nullptr) {
    fn(DenseLanes{image.slots + base, image.nulls + base});
  } else {
    fn(GatherLanes{rows.payloads + base, inst.slot_off, inst.null_byte,
                   inst.null_mask});
  }
}

// ---------------------------------------------------------------------------
// Branch-free Kleene combinators over TriBool byte lanes: AND = min,
// OR = max, NOT = 2 - x. The SIMD and scalar forms are bit-identical
// (unsigned byte min/max and subtraction are exact either way); the scalar
// loops are written to auto-vectorize when the intrinsics are disabled.
// ---------------------------------------------------------------------------

void LaneAnd(uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
#if IDF_SIMD
#if defined(__AVX2__)
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        _mm256_min_epu8(x, y));
  }
#endif
  for (; i + 16 <= n; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i), _mm_min_epu8(x, y));
  }
#endif
  for (; i < n; ++i) a[i] = std::min(a[i], b[i]);
}

void LaneOr(uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
#if IDF_SIMD
#if defined(__AVX2__)
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        _mm256_max_epu8(x, y));
  }
#endif
  for (; i + 16 <= n; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i), _mm_max_epu8(x, y));
  }
#endif
  for (; i < n; ++i) a[i] = std::max(a[i], b[i]);
}

void LaneNot(uint8_t* a, size_t n) {
  size_t i = 0;
#if IDF_SIMD
#if defined(__AVX2__)
  const __m256i two256 = _mm256_set1_epi8(2);
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        _mm256_sub_epi8(two256, x));
  }
#endif
  const __m128i two = _mm_set1_epi8(2);
  for (; i + 16 <= n; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i), _mm_sub_epi8(two, x));
  }
#endif
  for (; i < n; ++i) a[i] = static_cast<uint8_t>(kT - a[i]);
}

}  // namespace

VectorizedPredicate::VectorizedPredicate(const CompiledPredicate& program)
    : program_(&program) {
  // Simulate the stack effects to size the lane stack: every value
  // producer pushes one, AND/OR pop two and push one, NOT is neutral.
  size_t sp = 0;
  for (const CompiledPredicate::Inst& inst : program.insts_) {
    switch (inst.op) {
      case CompiledPredicate::OpCode::kAnd:
      case CompiledPredicate::OpCode::kOr:
        --sp;
        break;
      case CompiledPredicate::OpCode::kNot:
        break;
      default:
        ++sp;
        break;
    }
    depth_ = std::max(depth_, sp);
  }
}

void VectorizedPredicate::EvalOneBatch(const RowRun& rows, size_t base,
                                       size_t n, VectorScratch* scratch) const {
  if (scratch->tri.size() < depth_ * kBatchRows) {
    scratch->tri.resize(depth_ * kBatchRows);
  }
  uint8_t* stack = scratch->tri.data();
  size_t sp = 0;
  for (const CompiledPredicate::Inst& inst : program_->insts_) {
    uint8_t* top = stack + sp * kBatchRows;  // lane vector this inst writes
    switch (inst.op) {
      case CompiledPredicate::OpCode::kConst:
        std::memset(top, inst.imm_tri, n);
        ++sp;
        break;
      case CompiledPredicate::OpCode::kBoolCol:
        WithLanes(rows, base, inst, [&](auto lanes) { BoolColLanes(lanes, n, top); });
        ++sp;
        break;
      case CompiledPredicate::OpCode::kIsNull:
        WithLanes(rows, base, inst, [&](auto lanes) {
          IsNullLanes(lanes, n, inst.imm_tri != 0, top);
        });
        ++sp;
        break;
      case CompiledPredicate::OpCode::kCmpInt64:
      case CompiledPredicate::OpCode::kCmpInt32:
        WithLanes(rows, base, inst, [&](auto lanes) {
          DispatchCmp(inst.cmp, [&](auto opc) {
            if (inst.op == CompiledPredicate::OpCode::kCmpInt32) {
              CmpIntLanes<opc.value, true>(lanes, n, inst.imm_i64, top);
            } else {
              CmpIntLanes<opc.value, false>(lanes, n, inst.imm_i64, top);
            }
          });
        });
        ++sp;
        break;
      case CompiledPredicate::OpCode::kCmpIntAsDouble:
        WithLanes(rows, base, inst, [&](auto lanes) {
          DispatchCmp(inst.cmp, [&](auto opc) {
            if (inst.imm_tri != 0) {  // int32 column: sign-extend the low word
              CmpIntAsDoubleLanes<opc.value, true>(lanes, n, inst.imm_f64, top);
            } else {
              CmpIntAsDoubleLanes<opc.value, false>(lanes, n, inst.imm_f64, top);
            }
          });
        });
        ++sp;
        break;
      case CompiledPredicate::OpCode::kCmpDouble:
        WithLanes(rows, base, inst, [&](auto lanes) {
          DispatchCmp(inst.cmp, [&](auto opc) {
            CmpDoubleLanes<opc.value>(lanes, n, inst.imm_f64, top);
          });
        });
        ++sp;
        break;
      case CompiledPredicate::OpCode::kCmpString:
        DispatchCmp(inst.cmp, [&](auto opc) {
          CmpStringLanes<opc.value>(
              GatherLanes{rows.payloads + base, inst.slot_off, inst.null_byte,
                          inst.null_mask},
              n, program_->strings_[inst.imm_str], top);
        });
        ++sp;
        break;
      case CompiledPredicate::OpCode::kAnd:
        LaneAnd(stack + (sp - 2) * kBatchRows, stack + (sp - 1) * kBatchRows, n);
        --sp;
        break;
      case CompiledPredicate::OpCode::kOr:
        LaneOr(stack + (sp - 2) * kBatchRows, stack + (sp - 1) * kBatchRows, n);
        --sp;
        break;
      case CompiledPredicate::OpCode::kNot:
        LaneNot(stack + (sp - 1) * kBatchRows, n);
        break;
    }
  }
  // Result lanes are at the bottom of the stack (stack[0..n)).
}

void VectorizedPredicate::EvalBatch(const RowRun& rows, uint8_t* out_tri,
                                    VectorScratch* scratch) const {
  for (size_t base = 0; base < rows.count; base += kBatchRows) {
    const size_t bn = std::min(kBatchRows, rows.count - base);
    EvalOneBatch(rows, base, bn, scratch);
    std::memcpy(out_tri + base, scratch->tri.data(), bn);
  }
}

size_t VectorizedPredicate::FilterBatch(const RowRun& rows, uint32_t* sel,
                                        VectorScratch* scratch) const {
  size_t count = 0;
  for (size_t base = 0; base < rows.count; base += kBatchRows) {
    const size_t bn = std::min(kBatchRows, rows.count - base);
    EvalOneBatch(rows, base, bn, scratch);
    const uint8_t* tri = scratch->tri.data();
    for (size_t i = 0; i < bn; ++i) {
      // Branch-free append: the write always happens, the cursor only
      // advances for TRUE lanes.
      sel[count] = static_cast<uint32_t>(base + i);
      count += tri[i] == kT ? 1 : 0;
    }
  }
  return count;
}

}  // namespace idf
