#include "sql/predicate_compiler.h"

#include <string_view>

#include "sql/compiled_accessor.h"
#include "storage/row_batch.h"

namespace idf {

namespace {

constexpr uint8_t kF = static_cast<uint8_t>(TriBool::kFalse);
constexpr uint8_t kN = static_cast<uint8_t>(TriBool::kNull);
constexpr uint8_t kT = static_cast<uint8_t>(TriBool::kTrue);

/// Mirrors a comparison so it reads `column <op> literal` when the literal
/// was on the left.
CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      return op;
  }
  return op;
}

/// Comparison kernels written in terms of == and < exactly like
/// Value::CompareValues (kLe = !(b < a), kNe = !(a == b), ...) so NaN
/// operands produce bit-identical results to the interpreter.
template <typename T>
bool CmpWith(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return !(a == b);
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return !(b < a);
    case CompareOp::kGt:
      return b < a;
    case CompareOp::kGe:
      return !(a < b);
  }
  return false;
}

void CollectAndConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kLogical &&
      static_cast<const LogicalExpr*>(expr.get())->op() == LogicalOp::kAnd) {
    CollectAndConjuncts(expr->children()[0], out);
    CollectAndConjuncts(expr->children()[1], out);
    return;
  }
  out->push_back(expr);
}

ExprPtr ConjoinConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) acc = And(acc, conjuncts[i]);
  return acc;
}

}  // namespace

/// Builds the postfix program; a friend of CompiledPredicate so the
/// instruction encoding stays private to this translation unit's API.
class PredicateCompiler {
 public:
  explicit PredicateCompiler(const Schema& schema) : schema_(schema) {}

  bool Emit(const ExprPtr& e, CompiledPredicate* out) {
    switch (e->kind()) {
      case ExprKind::kLiteral: {
        const Value& v = static_cast<const LiteralExpr*>(e.get())->value();
        if (v.is_null()) return Push(out, Const(kN));
        if (v.is_bool()) return Push(out, Const(v.bool_value() ? kT : kF));
        return false;  // a non-boolean literal is not a predicate
      }
      case ExprKind::kColumnRef: {
        const auto* ref = static_cast<const ColumnRefExpr*>(e.get());
        if (!ref->bound()) return false;
        if (schema_.field(ref->index()).type != TypeId::kBool) return false;
        CompiledPredicate::Inst inst = ColumnInst(ref->index());
        inst.op = CompiledPredicate::OpCode::kBoolCol;
        return Push(out, inst);
      }
      case ExprKind::kIsNull: {
        const ExprPtr& child = e->children()[0];
        if (child->kind() != ExprKind::kColumnRef) return false;
        const auto* ref = static_cast<const ColumnRefExpr*>(child.get());
        if (!ref->bound()) return false;
        CompiledPredicate::Inst inst = ColumnInst(ref->index());
        inst.op = CompiledPredicate::OpCode::kIsNull;
        inst.imm_tri = static_cast<const IsNullExpr*>(e.get())->negated() ? 1 : 0;
        return Push(out, inst);
      }
      case ExprKind::kNot: {
        if (!Emit(e->children()[0], out)) return false;
        CompiledPredicate::Inst inst{};
        inst.op = CompiledPredicate::OpCode::kNot;
        out->insts_.push_back(inst);  // stack effect 0
        return true;
      }
      case ExprKind::kLogical: {
        if (!Emit(e->children()[0], out)) return false;
        if (!Emit(e->children()[1], out)) return false;
        CompiledPredicate::Inst inst{};
        inst.op = static_cast<const LogicalExpr*>(e.get())->op() == LogicalOp::kAnd
                      ? CompiledPredicate::OpCode::kAnd
                      : CompiledPredicate::OpCode::kOr;
        out->insts_.push_back(inst);
        --depth_;  // pops two, pushes one
        return true;
      }
      case ExprKind::kComparison:
        return EmitComparison(static_cast<const ComparisonExpr*>(e.get()), out);
      case ExprKind::kArithmetic:
      case ExprKind::kLike:
      case ExprKind::kParameterRef:  // a bare parameter as a predicate
        return false;  // interpreter-only
    }
    return false;
  }

 private:
  CompiledPredicate::Inst ColumnInst(int col) const {
    const CompiledAccessor acc = CompiledAccessor::ForColumn(schema_, col);
    CompiledPredicate::Inst inst{};
    inst.col = static_cast<uint32_t>(col);
    inst.slot_off = acc.slot_offset();
    inst.null_byte = acc.null_byte();
    inst.null_mask = acc.null_mask();
    return inst;
  }

  bool EmitComparison(const ComparisonExpr* cmp, CompiledPredicate* out) {
    const ExprPtr& lhs = cmp->left();
    const ExprPtr& rhs = cmp->right();
    CompareOp op = cmp->op();
    const ColumnRefExpr* ref = nullptr;
    const Value* lit = nullptr;
    const ParameterRefExpr* param = nullptr;
    // Accepts `column <op> immediate` where the immediate is a literal or
    // a typed prepared-statement parameter (a patchable slot).
    auto classify = [&](const ExprPtr& col_side, const ExprPtr& imm_side) {
      if (col_side->kind() != ExprKind::kColumnRef) return false;
      if (imm_side->kind() == ExprKind::kLiteral) {
        ref = static_cast<const ColumnRefExpr*>(col_side.get());
        lit = &static_cast<const LiteralExpr*>(imm_side.get())->value();
        return true;
      }
      if (imm_side->kind() == ExprKind::kParameterRef) {
        const auto* p = static_cast<const ParameterRefExpr*>(imm_side.get());
        // Untyped or absurdly-numbered parameters stay on the interpreter
        // (Inst.param is 16-bit).
        if (!p->type().has_value() || p->ordinal() < 0 ||
            p->ordinal() > INT16_MAX) {
          return false;
        }
        ref = static_cast<const ColumnRefExpr*>(col_side.get());
        param = p;
        return true;
      }
      return false;
    };
    if (classify(lhs, rhs)) {
    } else if (classify(rhs, lhs)) {
      op = MirrorOp(op);
    } else {
      return false;  // column-vs-column etc.: interpreter
    }
    if (!ref->bound()) return false;
    // Comparing anything with a null literal is NULL without reading the
    // column at all. (A null *parameter* takes the same shape at bind
    // time: BindParams rewrites its slot to a constant NULL.)
    if (lit != nullptr && lit->is_null()) return Push(out, Const(kN));

    CompiledPredicate::Inst inst = ColumnInst(ref->index());
    inst.cmp = op;
    const TypeId col_type = schema_.field(ref->index()).type;
    // The immediate's static type: parameters compare under their declared
    // type (bindings are coerced to it before patching).
    const bool imm_is_string =
        lit != nullptr ? lit->is_string() : *param->type() == TypeId::kString;
    const bool imm_is_double =
        lit != nullptr ? lit->is_double() : *param->type() == TypeId::kFloat64;
    switch (col_type) {
      case TypeId::kString:
        if (!imm_is_string) return false;  // mixed-type: interpreter
        inst.op = CompiledPredicate::OpCode::kCmpString;
        inst.imm_str = static_cast<uint32_t>(out->strings_.size());
        out->strings_.push_back(lit != nullptr ? lit->string_value()
                                               : std::string());
        return PushImm(out, inst, param);
      case TypeId::kFloat64:
        if (imm_is_string) return false;
        inst.op = CompiledPredicate::OpCode::kCmpDouble;
        if (lit != nullptr) inst.imm_f64 = lit->AsDouble();
        return PushImm(out, inst, param);
      case TypeId::kBool:
      case TypeId::kInt32:
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        if (imm_is_string) return false;
        if (imm_is_double) {
          // The interpreter widens either-double comparisons to double.
          inst.op = CompiledPredicate::OpCode::kCmpIntAsDouble;
          inst.imm_tri = col_type == TypeId::kInt32 ? 1 : 0;
          if (lit != nullptr) inst.imm_f64 = lit->double_value();
        } else {
          inst.op = col_type == TypeId::kInt32
                        ? CompiledPredicate::OpCode::kCmpInt32
                        : CompiledPredicate::OpCode::kCmpInt64;
          if (lit != nullptr) inst.imm_i64 = lit->AsInt64();
        }
        return PushImm(out, inst, param);
    }
    return false;
  }

  static CompiledPredicate::Inst Const(uint8_t tri) {
    CompiledPredicate::Inst inst{};
    inst.op = CompiledPredicate::OpCode::kConst;
    inst.imm_tri = tri;
    return inst;
  }

  /// Appends a value-producing instruction, tracking stack depth.
  bool Push(CompiledPredicate* out, CompiledPredicate::Inst inst) {
    if (++depth_ > CompiledPredicate::kMaxStack) return false;
    out->insts_.push_back(inst);
    return true;
  }

  /// Push for comparison instructions whose immediate may come from a
  /// parameter slot; marks the slot when `param` is set.
  bool PushImm(CompiledPredicate* out, CompiledPredicate::Inst inst,
               const ParameterRefExpr* param) {
    if (param != nullptr) {
      inst.param = static_cast<int16_t>(param->ordinal());
      out->has_params_ = true;
    }
    return Push(out, inst);
  }

  const Schema& schema_;
  size_t depth_ = 0;
};

std::optional<CompiledPredicate> CompiledPredicate::Compile(
    const ExprPtr& expr, const Schema& schema) {
  CompiledPredicate program;
  PredicateCompiler compiler(schema);
  if (!compiler.Emit(expr, &program)) return std::nullopt;
  return program;
}

TriBool CompiledPredicate::EvalEncoded(const uint8_t* payload) const {
  uint8_t stack[kMaxStack];
  size_t sp = 0;
  for (const Inst& inst : insts_) {
    switch (inst.op) {
      case OpCode::kConst:
        stack[sp++] = inst.imm_tri;
        break;
      case OpCode::kBoolCol: {
        if (payload[inst.null_byte] & inst.null_mask) {
          stack[sp++] = kN;
          break;
        }
        uint64_t slot;
        std::memcpy(&slot, payload + inst.slot_off, 8);
        stack[sp++] = slot != 0 ? kT : kF;
        break;
      }
      case OpCode::kIsNull: {
        const bool is_null = payload[inst.null_byte] & inst.null_mask;
        stack[sp++] = (is_null != (inst.imm_tri != 0)) ? kT : kF;
        break;
      }
      case OpCode::kCmpInt64: {
        if (payload[inst.null_byte] & inst.null_mask) {
          stack[sp++] = kN;
          break;
        }
        int64_t v;
        std::memcpy(&v, payload + inst.slot_off, 8);
        stack[sp++] = CmpWith(inst.cmp, v, inst.imm_i64) ? kT : kF;
        break;
      }
      case OpCode::kCmpInt32: {
        if (payload[inst.null_byte] & inst.null_mask) {
          stack[sp++] = kN;
          break;
        }
        int32_t v;
        std::memcpy(&v, payload + inst.slot_off, 4);
        stack[sp++] =
            CmpWith(inst.cmp, static_cast<int64_t>(v), inst.imm_i64) ? kT : kF;
        break;
      }
      case OpCode::kCmpIntAsDouble: {
        if (payload[inst.null_byte] & inst.null_mask) {
          stack[sp++] = kN;
          break;
        }
        int64_t v;
        if (inst.imm_tri) {  // int32 column: sign-extend the low word
          int32_t x;
          std::memcpy(&x, payload + inst.slot_off, 4);
          v = x;
        } else {
          std::memcpy(&v, payload + inst.slot_off, 8);
        }
        stack[sp++] =
            CmpWith(inst.cmp, static_cast<double>(v), inst.imm_f64) ? kT : kF;
        break;
      }
      case OpCode::kCmpDouble: {
        if (payload[inst.null_byte] & inst.null_mask) {
          stack[sp++] = kN;
          break;
        }
        double v;
        std::memcpy(&v, payload + inst.slot_off, 8);
        stack[sp++] = CmpWith(inst.cmp, v, inst.imm_f64) ? kT : kF;
        break;
      }
      case OpCode::kCmpString: {
        if (payload[inst.null_byte] & inst.null_mask) {
          stack[sp++] = kN;
          break;
        }
        uint64_t slot;
        std::memcpy(&slot, payload + inst.slot_off, 8);
        const std::string_view v = RawColumnString(payload, slot);
        const std::string_view want = strings_[inst.imm_str];
        stack[sp++] = CmpWith(inst.cmp, v, want) ? kT : kF;
        break;
      }
      case OpCode::kAnd: {  // Kleene AND = min
        const uint8_t b = stack[--sp];
        if (b < stack[sp - 1]) stack[sp - 1] = b;
        break;
      }
      case OpCode::kOr: {  // Kleene OR = max
        const uint8_t b = stack[--sp];
        if (b > stack[sp - 1]) stack[sp - 1] = b;
        break;
      }
      case OpCode::kNot:
        stack[sp - 1] = static_cast<uint8_t>(kT - stack[sp - 1]);
        break;
    }
  }
  return static_cast<TriBool>(stack[0]);
}

Result<CompiledPredicate> CompiledPredicate::BindParams(
    const std::vector<Value>& params) const {
  CompiledPredicate bound = *this;
  bound.has_params_ = false;
  for (Inst& inst : bound.insts_) {
    if (inst.param < 0) continue;
    if (static_cast<size_t>(inst.param) >= params.size()) {
      return Status::Internal(
          "compiled predicate references parameter $" +
          std::to_string(inst.param + 1) + " but only " +
          std::to_string(params.size()) + " bindings were supplied");
    }
    const Value& v = params[static_cast<size_t>(inst.param)];
    if (v.is_null()) {
      // `col <op> NULL` is NULL without reading the column, exactly like
      // a null literal at compile time. The rewrite keeps the program's
      // stack effect (both push one value).
      Inst null_const{};
      null_const.op = OpCode::kConst;
      null_const.imm_tri = static_cast<uint8_t>(TriBool::kNull);
      inst = null_const;
      continue;
    }
    switch (inst.op) {
      case OpCode::kCmpInt64:
      case OpCode::kCmpInt32:
        inst.imm_i64 = v.AsInt64();
        break;
      case OpCode::kCmpIntAsDouble:
      case OpCode::kCmpDouble:
        inst.imm_f64 = v.AsDouble();
        break;
      case OpCode::kCmpString:
        if (!v.is_string()) {
          return Status::Internal("string parameter slot bound to " +
                                  v.ToString());
        }
        bound.strings_[inst.imm_str] = v.string_value();
        break;
      default:
        return Status::Internal(
            "parameter slot on a non-comparison instruction");
    }
    inst.param = -1;
  }
  return bound;
}

PredicateSplit SplitForCompilation(const ExprPtr& predicate,
                                   const Schema& schema) {
  PredicateSplit out;
  std::vector<ExprPtr> conjuncts;
  CollectAndConjuncts(predicate, &conjuncts);
  std::vector<ExprPtr> compilable;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    if (CompiledPredicate::Compile(c, schema).has_value()) {
      compilable.push_back(c);
    } else {
      residual.push_back(c);
    }
  }
  if (!compilable.empty()) {
    ExprPtr conj = ConjoinConjuncts(compilable);
    out.compiled = CompiledPredicate::Compile(conj, schema);
    if (out.compiled.has_value()) {
      out.compiled_expr = std::move(conj);
    } else {
      // The conjunction overflowed the evaluation stack: fall back whole.
      residual = conjuncts;
    }
  }
  if (!residual.empty()) out.residual = ConjoinConjuncts(residual);
  return out;
}

}  // namespace idf
