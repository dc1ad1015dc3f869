#include "frontend/compile.hpp"

#include <unordered_map>

#include "frontend/parser.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ilp::dsl {

namespace {

// The conditional branch taken when `lhs cmp rhs` holds.
Opcode branch_opcode(CmpOp cmp, bool fp) {
  switch (cmp) {
    case CmpOp::Lt: return fp ? Opcode::FBLT : Opcode::BLT;
    case CmpOp::Le: return fp ? Opcode::FBLE : Opcode::BLE;
    case CmpOp::Gt: return fp ? Opcode::FBGT : Opcode::BGT;
    case CmpOp::Ge: return fp ? Opcode::FBGE : Opcode::BGE;
    case CmpOp::Eq: return fp ? Opcode::FBEQ : Opcode::BEQ;
    case CmpOp::Ne: return fp ? Opcode::FBNE : Opcode::BNE;
  }
  ILP_UNREACHABLE("bad comparison");
}

struct ArraySym {
  std::int32_t id = -1;
  const ArrayDecl* decl = nullptr;
};

struct PendingBranch {
  BlockId block;
  std::size_t index;
};

class Lowerer {
 public:
  Lowerer(const Program& p, DiagnosticEngine& diags)
      : prog_(p), diags_(&diags), result_{Function(p.name), {}}, b_(result_.fn) {}

  std::optional<CompileResult> run() {
    declare();
    if (diags_->has_errors()) return std::nullopt;

    const BlockId entry = b_.create_block("entry");
    b_.set_block(entry);
    emit_scalar_inits();
    for (const auto& s : prog_.stmts) {
      lower_stmt(*s);
      if (diags_->has_errors()) return std::nullopt;
    }
    b_.ret();
    result_.fn.renumber();
    const VerifyResult v = verify(result_.fn);
    if (!v.ok) {
      diags_->error({}, "internal: lowered IR failed verification: " + v.message);
      return std::nullopt;
    }
    return std::move(result_);
  }

 private:
  void declare() {
    std::int64_t next_base = 0x10000;
    for (const auto& a : prog_.arrays) {
      if (arrays_.count(a.name) || scalars_.count(a.name)) {
        diags_->error(a.loc, "duplicate symbol '" + a.name + "'");
        continue;
      }
      if (a.dim0 <= 0 || (a.dim1 < 0)) {
        diags_->error(a.loc, "array dimensions must be positive");
        continue;
      }
      ArrayInfo info;
      info.name = a.name;
      info.base = next_base;
      info.elem_size = 4;
      info.length = a.elements();
      info.is_fp = a.type == Type::Fp;
      next_base += info.length * info.elem_size + 256;  // padding between arrays
      arrays_[a.name] = ArraySym{result_.fn.add_array(info), &a};
    }
    for (const auto& s : prog_.scalars) {
      if (arrays_.count(s.name) || scalars_.count(s.name)) {
        diags_->error(s.loc, "duplicate symbol '" + s.name + "'");
        continue;
      }
      const Reg r = result_.fn.new_reg(s.type == Type::Fp ? RegClass::Fp : RegClass::Int);
      scalars_[s.name] = r;
      scalar_types_[s.name] = s.type;
      result_.scalar_regs.emplace_back(s.name, r);
      if (s.is_out) result_.fn.add_live_out(r);
    }
  }

  void emit_scalar_inits() {
    for (const auto& s : prog_.scalars) {
      const auto it = scalars_.find(s.name);
      if (it == scalars_.end()) continue;
      if (s.type == Type::Fp)
        b_.fldi_to(it->second, s.has_init ? s.finit : 0.0);
      else
        b_.ldi_to(it->second, s.has_init ? s.iinit : 0);
    }
  }

  // ---- Statements -----------------------------------------------------------

  struct LoopCtx {
    std::vector<PendingBranch> breaks;
  };

  void lower_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Assign: lower_assign(s); break;
      case StmtKind::Loop: lower_loop(s); break;
      case StmtKind::IfBreak: lower_ifbreak(s); break;
    }
  }

  void lower_loop(const Stmt& s) {
    if (scalars_.count(s.loop_var) || arrays_.count(s.loop_var) ||
        loop_vars_.count(s.loop_var)) {
      diags_->error(s.loc, "loop variable '" + s.loop_var + "' shadows another symbol");
      return;
    }
    const Reg var = result_.fn.new_int_reg();
    loop_vars_[s.loop_var] = var;

    // Preheader part: var = lo; hi into a register; zero-trip guard.
    const Reg lo = eval_int(*s.lo);
    if (diags_->has_errors()) return;
    b_.imov_to(var, lo);
    const Reg hi = eval_int(*s.hi);
    if (diags_->has_errors()) return;
    const Opcode guard_op = s.step > 0 ? Opcode::BGT : Opcode::BLT;
    b_.br(guard_op, var, hi, BlockId{0});  // target patched to the exit below
    const PendingBranch guard{b_.current_block(),
                              result_.fn.block(b_.current_block()).insts.size() - 1};

    const BlockId body = b_.create_block(strformat("loop.%s", s.loop_var.c_str()));
    b_.set_block(body);
    LoopCtx ctx;
    loop_stack_.push_back(&ctx);
    for (const auto& inner : s.body) {
      lower_stmt(*inner);
      if (diags_->has_errors()) {
        loop_stack_.pop_back();
        return;
      }
    }
    loop_stack_.pop_back();

    // Latch: var += step; branch back while in range.
    b_.iaddi_to(var, var, s.step);
    const Opcode latch_op = s.step > 0 ? Opcode::BLE : Opcode::BGE;
    b_.br(latch_op, var, hi, body);

    const BlockId exit = b_.create_block(strformat("exit.%s", s.loop_var.c_str()));
    result_.fn.block(guard.block).insts[guard.index].target = exit;
    for (const PendingBranch& br : ctx.breaks)
      result_.fn.block(br.block).insts[br.index].target = exit;
    b_.set_block(exit);
    loop_vars_.erase(s.loop_var);
  }

  void lower_ifbreak(const Stmt& s) {
    if (loop_stack_.empty()) {
      diags_->error(s.loc, "'if (...) break' outside of a loop");
      return;
    }
    const Type lt = type_of(*s.cmp_lhs);
    const Type rt = type_of(*s.cmp_rhs);
    if (diags_->has_errors()) return;
    const bool fp = lt == Type::Fp || rt == Type::Fp;
    Reg a = fp ? eval_fp(*s.cmp_lhs) : eval_int(*s.cmp_lhs);
    Reg c = fp ? eval_fp(*s.cmp_rhs) : eval_int(*s.cmp_rhs);
    if (diags_->has_errors()) return;
    // The target is patched when the loop exit exists.
    b_.br(branch_opcode(s.cmp, fp), a, c, BlockId{0});
    loop_stack_.back()->breaks.push_back(PendingBranch{
        b_.current_block(), result_.fn.block(b_.current_block()).insts.size() - 1});
  }

  void lower_assign(const Stmt& s) {
    if (!s.lhs_subscripts.empty()) {
      // Array element store.
      const auto it = arrays_.find(s.lhs_name);
      if (it == arrays_.end()) {
        diags_->error(s.loc, "unknown array '" + s.lhs_name + "'");
        return;
      }
      const ArraySym& sym = it->second;
      if (s.lhs_subscripts.size() != (sym.decl->dim1 > 0 ? 2u : 1u)) {
        diags_->error(s.loc, "wrong number of subscripts for '" + s.lhs_name + "'");
        return;
      }
      const Reg addr = eval_address(sym, s.lhs_subscripts, s.loc);
      if (diags_->has_errors()) return;
      if (sym.decl->type == Type::Fp) {
        const Reg v = eval_fp(*s.rhs);
        if (diags_->has_errors()) return;
        b_.fst(addr, result_.fn.array(sym.id)->base, v, sym.id);
      } else {
        const Reg v = eval_int(*s.rhs);
        if (diags_->has_errors()) return;
        b_.st(addr, result_.fn.array(sym.id)->base, v, sym.id);
      }
      return;
    }
    // Scalar assignment.
    if (loop_vars_.count(s.lhs_name)) {
      diags_->error(s.loc, "cannot assign to loop variable '" + s.lhs_name + "'");
      return;
    }
    const auto it = scalars_.find(s.lhs_name);
    if (it == scalars_.end()) {
      diags_->error(s.loc, "unknown scalar '" + s.lhs_name + "'");
      return;
    }
    eval_into(it->second, scalar_types_[s.lhs_name], *s.rhs);
  }

  // ---- Expressions ----------------------------------------------------------

  Type type_of(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntConst: return Type::Int;
      case ExprKind::FpConst: return Type::Fp;
      case ExprKind::ScalarRef: {
        if (loop_vars_.count(e.name)) return Type::Int;
        const auto it = scalar_types_.find(e.name);
        if (it == scalar_types_.end()) {
          diags_->error(e.loc, "unknown scalar '" + e.name + "'");
          return Type::Int;
        }
        return it->second;
      }
      case ExprKind::ArrayRef: {
        const auto it = arrays_.find(e.name);
        if (it == arrays_.end()) {
          diags_->error(e.loc, "unknown array '" + e.name + "'");
          return Type::Fp;
        }
        return it->second.decl->type;
      }
      case ExprKind::Neg:
        return type_of(*e.lhs);
      case ExprKind::MinMax:
      case ExprKind::Binary: {
        const Type a = type_of(*e.lhs);
        const Type c = type_of(*e.rhs);
        if (e.kind == ExprKind::Binary && e.op == BinOp::Rem &&
            (a == Type::Fp || c == Type::Fp))
          diags_->error(e.loc, "'%' requires integer operands");
        return (a == Type::Fp || c == Type::Fp) ? Type::Fp : Type::Int;
      }
    }
    return Type::Int;
  }

  Reg eval_int(const Expr& e) {
    if (type_of(e) != Type::Int) {
      diags_->error(e.loc, "expected integer expression");
      return result_.fn.new_int_reg();
    }
    return eval(e, Type::Int);
  }

  Reg eval_fp(const Expr& e) {
    const Reg r = eval(e, type_of(e));
    if (r.is_fp()) return r;
    return b_.itof(r);  // implicit int -> fp promotion
  }

  Reg eval(const Expr& e, Type want) {
    switch (e.kind) {
      case ExprKind::IntConst: return b_.ldi(e.ival);
      case ExprKind::FpConst: return b_.fldi(e.fval);
      case ExprKind::ScalarRef: {
        const auto lv = loop_vars_.find(e.name);
        if (lv != loop_vars_.end()) return lv->second;
        const auto it = scalars_.find(e.name);
        if (it == scalars_.end()) {
          diags_->error(e.loc, "unknown scalar '" + e.name + "'");
          return result_.fn.new_int_reg();
        }
        return it->second;
      }
      case ExprKind::ArrayRef: {
        const auto it = arrays_.find(e.name);
        if (it == arrays_.end()) {
          diags_->error(e.loc, "unknown array '" + e.name + "'");
          return result_.fn.new_fp_reg();
        }
        const ArraySym& sym = it->second;
        if (e.subscripts.size() != (sym.decl->dim1 > 0 ? 2u : 1u)) {
          diags_->error(e.loc, "wrong number of subscripts for '" + e.name + "'");
          return result_.fn.new_fp_reg();
        }
        const Reg addr = eval_address(sym, e.subscripts, e.loc);
        const std::int64_t base = result_.fn.array(sym.id)->base;
        return sym.decl->type == Type::Fp ? b_.fld(addr, base, sym.id)
                                          : b_.ld(addr, base, sym.id);
      }
      case ExprKind::Neg: {
        const Reg v = eval(*e.lhs, type_of(*e.lhs));
        if (v.is_fp()) return b_.fneg(v);
        const Reg d = result_.fn.new_int_reg();
        b_.append(make_unary(Opcode::INEG, d, v));
        return d;
      }
      case ExprKind::MinMax:
      case ExprKind::Binary: {
        const Type t = type_of(e);
        (void)want;
        Reg a = t == Type::Fp ? eval_fp(*e.lhs) : eval_int(*e.lhs);
        Reg c = t == Type::Fp ? eval_fp(*e.rhs) : eval_int(*e.rhs);
        return emit_binop(e, t, a, c, kNoReg);
      }
    }
    return result_.fn.new_int_reg();
  }

  // Emits the binary/minmax op; if `dst` is valid the result is written there,
  // else into a fresh register (returned).
  Reg emit_binop(const Expr& e, Type t, Reg a, Reg c, Reg dst) {
    Opcode op;
    if (e.kind == ExprKind::MinMax) {
      op = t == Type::Fp ? (e.is_max ? Opcode::FMAX : Opcode::FMIN)
                         : (e.is_max ? Opcode::IMAX : Opcode::IMIN);
    } else {
      switch (e.op) {
        case BinOp::Add: op = t == Type::Fp ? Opcode::FADD : Opcode::IADD; break;
        case BinOp::Sub: op = t == Type::Fp ? Opcode::FSUB : Opcode::ISUB; break;
        case BinOp::Mul: op = t == Type::Fp ? Opcode::FMUL : Opcode::IMUL; break;
        case BinOp::Div: op = t == Type::Fp ? Opcode::FDIV : Opcode::IDIV; break;
        case BinOp::Rem: op = Opcode::IREM; break;
      }
    }
    if (!dst.valid())
      dst = result_.fn.new_reg(t == Type::Fp ? RegClass::Fp : RegClass::Int);
    b_.append(make_binary(op, dst, a, c));
    return dst;
  }

  // Evaluates `e` directly into scalar register `dst` (type `dt`), keeping
  // reductions in the canonical single-register shape.
  void eval_into(Reg dst, Type dt, const Expr& e) {
    const Type et = type_of(e);
    if (diags_->has_errors()) return;
    if (dt == Type::Int && et == Type::Fp) {
      diags_->error(e.loc, "cannot assign fp value to int scalar");
      return;
    }
    if ((e.kind == ExprKind::Binary || e.kind == ExprKind::MinMax) && et == dt) {
      Reg a = dt == Type::Fp ? eval_fp(*e.lhs) : eval_int(*e.lhs);
      Reg c = dt == Type::Fp ? eval_fp(*e.rhs) : eval_int(*e.rhs);
      if (diags_->has_errors()) return;
      emit_binop(e, dt, a, c, dst);
      return;
    }
    Reg v = dt == Type::Fp ? eval_fp(e) : eval_int(e);
    if (diags_->has_errors()) return;
    if (v == dst) return;  // s = s;
    if (dt == Type::Fp)
      b_.fmov_to(dst, v);
    else
      b_.imov_to(dst, v);
  }

  // Computes the byte-offset register for an array reference.
  Reg eval_address(const ArraySym& sym, const std::vector<ExprPtr>& subs, SourceLoc loc) {
    (void)loc;
    Reg idx = eval_int(*subs[0]);
    if (diags_->has_errors()) return idx;
    if (sym.decl->dim1 > 0) {
      const Reg scaled = b_.imuli(idx, sym.decl->dim1);
      const Reg col = eval_int(*subs[1]);
      if (diags_->has_errors()) return idx;
      idx = b_.iadd(scaled, col);
    }
    return b_.imuli(idx, result_.fn.array(sym.id)->elem_size);
  }

  const Program& prog_;
  DiagnosticEngine* diags_;
  CompileResult result_;
  IRBuilder b_;
  std::unordered_map<std::string, ArraySym> arrays_;
  std::unordered_map<std::string, Reg> scalars_;
  std::unordered_map<std::string, Type> scalar_types_;
  std::unordered_map<std::string, Reg> loop_vars_;
  std::vector<LoopCtx*> loop_stack_;
};

}  // namespace

std::optional<CompileResult> lower(const Program& program, DiagnosticEngine& diags) {
  Lowerer l(program, diags);
  return l.run();
}

std::optional<CompileResult> compile(std::string_view source, DiagnosticEngine& diags) {
  const auto ast = parse(source, diags);
  if (!ast) return std::nullopt;
  return lower(*ast, diags);
}

}  // namespace ilp::dsl
