// Compiled predicates over encoded rows: a bound filter Expr is compiled
// at plan time into a flat, branch-light postfix program of typed
// comparisons that read column values straight from an encoded payload
// pointer (the fixed-prefix layout of storage/row_batch.h) using
// precomputed slot offsets — no Value boxing and no virtual Eval per row.
// The offset machinery lives in sql/compiled_accessor.h (CompiledAccessor),
// shared with the fused aggregation operator's group-key and
// aggregate-input reads.
//
// Compilable subset: bound column-vs-literal comparisons (int/double/bool/
// timestamp compare on raw bytes, strings via length-prefixed views),
// IS [NOT] NULL of a bound column, boolean columns and literals used as
// predicates, and AND/OR/NOT with SQL three-valued (Kleene) semantics.
// LIKE, arithmetic, column-vs-column and mixed string/numeric comparisons
// stay on the interpreter. SplitForCompilation() splits a conjunction into
// a compiled part and an interpreted residual, so one non-compilable
// conjunct falls back alone instead of forcing the whole filter off the
// encoded fast path. Compiled evaluation matches Expr::Eval bit-for-bit
// (the differential fuzzer in tests/test_property_fuzz.cc enforces this).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sql/expression.h"
#include "types/schema.h"

namespace idf {

/// SQL three-valued truth value. The numeric ordering makes Kleene logic
/// branch-light: AND = min, OR = max, NOT = kTrue - x.
enum class TriBool : uint8_t { kFalse = 0, kNull = 1, kTrue = 2 };

/// A flat program evaluating one predicate against an encoded payload.
class CompiledPredicate {
 public:
  /// Compiles a bound predicate over `schema`; nullopt when any part of it
  /// is outside the compilable subset (callers fall back to Expr::Eval).
  static std::optional<CompiledPredicate> Compile(const ExprPtr& expr,
                                                  const Schema& schema);

  /// Three-valued evaluation directly against an encoded payload.
  /// Programs with unbound parameter slots must be BindParams()ed first.
  TriBool EvalEncoded(const uint8_t* payload) const;

  /// True when the program contains parameter slots (comparisons against
  /// prepared-statement placeholders) that must be patched before
  /// evaluation.
  bool has_params() const { return has_params_; }

  /// Returns a copy of the program with every parameter slot patched to
  /// the corresponding value (already coerced to the parameter's declared
  /// type). A null binding turns its comparison into a constant NULL,
  /// matching the interpreter's `col <op> NULL` semantics. This is the
  /// re-bind path of the prepared-statement cache: patching immediates is
  /// O(#insts) and never recompiles the expression.
  Result<CompiledPredicate> BindParams(const std::vector<Value>& params) const;

  /// Filter semantics: keep the row iff the predicate is TRUE (not NULL).
  bool Matches(const uint8_t* payload) const {
    return EvalEncoded(payload) == TriBool::kTrue;
  }

  size_t num_instructions() const { return insts_.size(); }

 private:
  friend class PredicateCompiler;
  // The batch evaluator (sql/vectorized_eval.h) re-runs the same program
  // column-at-a-time and must read the instruction stream directly.
  friend class VectorizedPredicate;

  enum class OpCode : uint8_t {
    kConst,           // push imm_tri
    kBoolCol,         // push a bool column as a truth value
    kIsNull,          // push IS [NOT] NULL of a column (imm_tri = negated)
    kCmpInt64,        // int64/timestamp/bool column vs int64 immediate
    kCmpInt32,        // int32 column vs int64 immediate
    kCmpIntAsDouble,  // integer-backed column widened vs double immediate
    kCmpDouble,       // float64 column vs double immediate
    kCmpString,       // string column vs pooled string immediate
    kAnd,
    kOr,
    kNot,
  };

  struct Inst {
    OpCode op;
    CompareOp cmp = CompareOp::kEq;  // comparison opcodes only
    uint32_t col = 0;                // schema column (its dense image)
    uint32_t slot_off = 0;           // precomputed bitmap_bytes + col * 8
    uint32_t null_byte = 0;          // byte offset of the column's null bit
    uint8_t null_mask = 0;
    uint8_t imm_tri = 0;   // kConst value / kIsNull negation / int32 flag
    int16_t param = -1;    // parameter ordinal feeding the immediate, or -1
    int64_t imm_i64 = 0;
    double imm_f64 = 0;
    uint32_t imm_str = 0;  // index into strings_
  };

  static constexpr size_t kMaxStack = 64;

  std::vector<Inst> insts_;
  std::vector<std::string> strings_;
  bool has_params_ = false;
};

/// A filter predicate split into a compiled conjunction and an interpreter
/// residual. A row passes the original predicate iff the compiled part
/// Matches() AND the residual evaluates to TRUE (each may be absent).
struct PredicateSplit {
  std::optional<CompiledPredicate> compiled;
  ExprPtr compiled_expr;  // the conjunction that was compiled (diagnostics)
  ExprPtr residual;       // nullptr when every conjunct compiled
};

/// Splits the AND tree of `predicate` into compilable and interpreter-only
/// conjuncts and compiles the former. Always safe: when nothing compiles,
/// `compiled` is empty and `residual` is the whole predicate (transparent
/// fallback); when everything compiles, `residual` is null.
PredicateSplit SplitForCompilation(const ExprPtr& predicate,
                                   const Schema& schema);

}  // namespace idf
