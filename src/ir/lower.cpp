#include "ir/lower.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <stdexcept>

#include "asmb/assembler.hpp"
#include "ir/verify.hpp"
#include "softfloat/runtime.hpp"
#include "util/verify.hpp"

namespace sfrv::ir {

namespace {

using asmb::Assembler;
using isa::Op;
namespace reg = asmb::reg;

constexpr int log2_bytes(ScalarType t) {
  switch (width_bytes(t)) {
    case 1: return 0;
    case 2: return 1;
    default: return 2;
  }
}

/// Simple register pool with assert-on-exhaustion.
class Pool {
 public:
  explicit Pool(std::vector<std::uint8_t> regs) : free_(std::move(regs)) {}
  std::uint8_t alloc() {
    if (free_.empty()) throw std::runtime_error("register pool exhausted");
    const std::uint8_t r = free_.back();
    free_.pop_back();
    return r;
  }
  void release(std::uint8_t r) { free_.push_back(r); }

 private:
  std::vector<std::uint8_t> free_;
};

/// Type of an expression ignoring contextless constants.
std::optional<ScalarType> type_opt(const Expr& e, const Kernel& k) {
  switch (e.kind) {
    case Expr::Kind::Load:
      return k.arrays[static_cast<std::size_t>(e.ref.array)].type;
    case Expr::Kind::Var:
      return k.vars[static_cast<std::size_t>(e.var)].type;
    case Expr::Kind::Const:
      return std::nullopt;
    default: {
      const auto l = type_opt(*e.lhs, k);
      const auto r = type_opt(*e.rhs, k);
      if (l && r) {
        if (is_wider_or_equal(*l, *r)) return *l;
        if (is_wider_or_equal(*r, *l)) return *r;
        throw std::runtime_error("incomparable operand types in kernel expr");
      }
      if (l) return l;
      if (r) return r;
      return std::nullopt;
    }
  }
}

ScalarType promote(ScalarType a, ScalarType b) {
  if (is_wider_or_equal(a, b)) return a;
  if (is_wider_or_equal(b, a)) return b;
  throw std::runtime_error("incomparable types");
}

struct PtrPattern {
  int array;
  int row_var;
  int row_off;
  friend bool operator==(const PtrPattern&, const PtrPattern&) = default;
};

struct ConstKey {
  std::uint64_t bits;
  ScalarType type;
  friend bool operator==(const ConstKey&, const ConstKey&) = default;
};

class Lowerer {
 public:
  Lowerer(const Kernel& k, CodegenMode mode, const OptConfig& opt)
      : k_(k),
        mode_(mode),
        opt_(opt),
        int_pool_({reg::t0, reg::t1, reg::t2, reg::t3, reg::t4, reg::t5,
                   reg::t6, reg::a0, reg::a1, reg::a2, reg::a3, reg::a4,
                   reg::a5, reg::a6, reg::a7}),
        fp_pool_({reg::ft0, reg::ft1, reg::ft2, reg::ft3, reg::ft4, reg::ft5,
                  reg::ft6, reg::ft7, reg::fa0, reg::fa1, reg::fa2, reg::fa3,
                  reg::fa4, reg::fa5, reg::fa6, reg::fa7, reg::ft8, reg::ft9,
                  reg::ft10, reg::ft11, reg::fs0, reg::fs1, reg::fs2, reg::fs3,
                  reg::fs4, reg::fs5, reg::fs6, reg::fs7, reg::fs8, reg::fs9,
                  reg::fs10, reg::fs11}) {}

  LoweredKernel run(const ArrayImages& images) {
    // --- data segment: arrays (encoded images) and FP constants ---
    if (k_.arrays.size() > 12) throw std::runtime_error(">12 arrays");
    for (std::size_t ai = 0; ai < k_.arrays.size(); ++ai) {
      const auto& arr = k_.arrays[ai];
      const auto addr =
          asm_.data_bytes(images[ai].data(), images[ai].size(), 4);
      asm_.set_symbol(arr.name, addr);
      array_addr_[arr.name] = addr;
    }

    // --- prologue: array bases and FP constants ---
    static constexpr std::uint8_t kBaseRegs[] = {
        reg::s0, reg::s1, reg::s2, reg::s3, reg::s4,  reg::s5,
        reg::s6, reg::s7, reg::s8, reg::s9, reg::s10, reg::s11};
    for (std::size_t ai = 0; ai < k_.arrays.size(); ++ai) {
      base_reg_.push_back(kBaseRegs[ai]);
      asm_.la(kBaseRegs[ai], array_addr_[k_.arrays[ai].name]);
    }
    for (const auto& v : k_.vars) {
      (void)v;
      const std::uint8_t r = fp_pool_.alloc();
      var_reg_.push_back(r);
      // Scalar vars start at +0.0 by contract. Zero the home register
      // explicitly instead of relying on the simulator's reset state — an
      // accumulating var (acc += ...) reads it before any other write.
      asm_.emit(isa::Inst{.op = Op::FMV_S_X, .rd = r, .rs1 = reg::zero});
    }
    preload_consts();

    lower_nodes(k_.body);
    asm_.ebreak();

    LoweredKernel out;
    out.program = asm_.finish();
    out.array_addr = array_addr_;
    out.inner_ranges = normalized_ranges();
    out.opt = opt_;
    // Provenance for the dead-glue alias rules and the verifier: per-text-
    // index array id (distinct arrays and the constant pool are guaranteed-
    // disjoint objects). The dead-glue pass — run by the free lower() so the
    // verifier can bracket it — compacts this in sync with the text.
    out.mem_array.assign(out.program.text.size(), -1);
    for (const auto& [idx, arr] : mem_notes_) {
      if (idx < out.mem_array.size()) out.mem_array[idx] = arr;
    }
    return out;
  }

  /// Innermost ranges sorted, empties dropped, overlaps merged — the
  /// attribution contract RunResult::ideal_cycles depends on.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> normalized_ranges() {
    auto r = inner_ranges_;
    std::sort(r.begin(), r.end());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    for (const auto& [b, e] : r) {
      if (b >= e) continue;
      if (!out.empty() && b < out.back().second) {
        out.back().second = std::max(out.back().second, e);
      } else {
        out.emplace_back(b, e);
      }
    }
    return out;
  }

 private:
  // ---------------------------------------------------------------- consts --
  ScalarType child_ctx(const Expr& parent, const Expr& child,
                       ScalarType ctx) const {
    const Expr& other = (&child == parent.lhs.get()) ? *parent.rhs : *parent.lhs;
    const auto t = type_opt(other, k_);
    return t ? *t : ctx;
  }

  void collect_consts(const Expr& e, ScalarType ctx) {
    switch (e.kind) {
      case Expr::Kind::Const: {
        fp::Flags fl;
        const auto bits =
            fp::rt_from_double(fp_format(ctx), e.cval, fp::RoundingMode::RNE, fl);
        const ConstKey key{bits, ctx};
        if (std::find(const_keys_.begin(), const_keys_.end(), key) ==
            const_keys_.end()) {
          const_keys_.push_back(key);
        }
        return;
      }
      case Expr::Kind::Load:
      case Expr::Kind::Var:
        return;
      default:
        collect_consts(*e.lhs, child_ctx(e, *e.lhs, ctx));
        collect_consts(*e.rhs, child_ctx(e, *e.rhs, ctx));
    }
  }

  void collect_consts_nodes(const std::vector<Node>& nodes) {
    for (const auto& n : nodes) {
      if (std::holds_alternative<Loop>(n)) {
        collect_consts_nodes(std::get<Loop>(n).body);
      } else {
        const Stmt& s = std::get<Stmt>(n);
        collect_consts(*s.value, stmt_dst_type(s));
      }
    }
  }

  ScalarType stmt_dst_type(const Stmt& s) const {
    if (s.kind == Stmt::Kind::AssignScalar || s.kind == Stmt::Kind::AccumScalar) {
      return k_.vars[static_cast<std::size_t>(s.dst_var)].type;
    }
    return k_.arrays[static_cast<std::size_t>(s.dst.array)].type;
  }

  void preload_consts() {
    collect_consts_nodes(k_.body);
    for (const auto& key : const_keys_) {
      const int esize = width_bits(key.type) / 8;
      const auto addr = asm_.data_bytes(&key.bits, static_cast<std::size_t>(esize), 4);
      const std::uint8_t f = fp_pool_.alloc();
      const std::uint8_t t = int_pool_.alloc();
      asm_.la(t, addr);
      note_mem(const_region_id());
      asm_.emit({.op = scalar_ops(key.type).load, .rd = f, .rs1 = t, .imm = 0});
      int_pool_.release(t);
      const_regs_.push_back(f);
    }
  }

  std::uint8_t const_reg(double v, ScalarType t) {
    fp::Flags fl;
    const auto bits = fp::rt_from_double(fp_format(t), v, fp::RoundingMode::RNE, fl);
    for (std::size_t i = 0; i < const_keys_.size(); ++i) {
      if (const_keys_[i] == ConstKey{bits, t}) return const_regs_[i];
    }
    throw std::runtime_error("constant not preloaded");
  }

  // ------------------------------------------------------------ addressing --
  std::uint8_t loop_var_reg(int var) const {
    const auto it = loop_reg_.find(var);
    assert(it != loop_reg_.end());
    return it->second;
  }

  /// Generic element address -> (reg, imm); reg may be a base register
  /// (not owned) when everything folds into the immediate.
  struct Addr {
    std::uint8_t reg;
    std::int32_t imm;
    bool owned;
  };

  Addr address_of(const ArrayRef& r) {
    const auto& arr = k_.arrays[static_cast<std::size_t>(r.array)];
    const int esize = width_bytes(arr.type);
    std::int32_t imm = 0;
    std::uint8_t cur = base_reg_[static_cast<std::size_t>(r.array)];
    bool owned = false;
    if (r.row.var >= 0) {
      const std::uint8_t t = int_pool_.alloc();
      const std::uint8_t c = int_pool_.alloc();
      if (r.row.offset != 0) {
        asm_.addi(t, loop_var_reg(r.row.var), r.row.offset);
        asm_.li(c, arr.cols * esize);
        asm_.mul(t, t, c);
      } else {
        asm_.li(c, arr.cols * esize);
        asm_.mul(t, loop_var_reg(r.row.var), c);
      }
      asm_.add(t, cur, t);
      int_pool_.release(c);
      cur = t;
      owned = true;
    } else {
      imm += r.row.offset * arr.cols * esize;
    }
    if (r.col.var >= 0) {
      const std::uint8_t t2 = owned ? cur : int_pool_.alloc();
      const std::uint8_t sh = int_pool_.alloc();
      asm_.slli(sh, loop_var_reg(r.col.var), log2_bytes(arr.type));
      asm_.add(t2, cur, sh);
      int_pool_.release(sh);
      cur = t2;
      owned = true;
      imm += r.col.offset * esize;
    } else {
      imm += r.col.offset * esize;
    }
    return {cur, imm, owned};
  }

  void release_addr(const Addr& a) {
    if (a.owned) int_pool_.release(a.reg);
  }

  // ------------------------------------------------------- scalar codegen --
  struct Val {
    std::uint8_t reg;
    ScalarType type;
    bool owned;
  };

  void free_val(const Val& v) {
    if (v.owned) fp_pool_.release(v.reg);
  }

  Val convert_to(Val v, ScalarType want) {
    if (v.type == want) return v;
    const std::uint8_t d = fp_pool_.alloc();
    asm_.fp_rr(convert_op(want, v.type), d, v.reg);
    free_val(v);
    return {d, want, true};
  }

  /// Innermost-loop pointer map: pattern -> (xreg, valid-in-scalar-loop).
  struct InnerCtx {
    int var = -1;
    std::vector<PtrPattern> patterns;
    std::vector<std::uint8_t> ptr_regs;      // valid when pointer mode active
    bool pointers_active = false;            // scalar/manual pointer bumping
    // auto-vec indexed mode: row-base registers per pattern
    std::vector<std::uint8_t> rowbase_regs;
    bool indexed_active = false;
    // invariant loads hoisted out of the loop: (array,row,col) exact refs
    std::vector<ArrayRef> inv_refs;
    std::vector<Val> inv_vals;
  };

  InnerCtx* inner_ = nullptr;

  int find_pattern(const InnerCtx& ic, const ArrayRef& r) const {
    const PtrPattern p{r.array, r.row.var, r.row.offset};
    for (std::size_t i = 0; i < ic.patterns.size(); ++i) {
      if (ic.patterns[i] == p) return static_cast<int>(i);
    }
    return -1;
  }

  std::optional<Val> find_invariant(const ArrayRef& r) const {
    if (inner_ == nullptr) return std::nullopt;
    for (std::size_t i = 0; i < inner_->inv_refs.size(); ++i) {
      const auto& ir = inner_->inv_refs[i];
      if (ir.array == r.array && ir.row.var == r.row.var &&
          ir.row.offset == r.row.offset && ir.col.var == r.col.var &&
          ir.col.offset == r.col.offset) {
        return inner_->inv_vals[i];
      }
    }
    return std::nullopt;
  }

  /// Load/store through the innermost pointer context if possible.
  Addr stream_addr(const ArrayRef& r) {
    if (inner_ != nullptr && r.col.var == inner_->var) {
      const int esize =
          width_bytes(k_.arrays[static_cast<std::size_t>(r.array)].type);
      const int pi = find_pattern(*inner_, r);
      assert(pi >= 0);
      if (inner_->pointers_active) {
        // Unrolled bodies fold the lane offset into the displacement; the
        // pointers themselves bump once per unrolled group.
        return {inner_->ptr_regs[static_cast<std::size_t>(pi)],
                (r.col.offset + unroll_off_) * esize, false};
      }
      if (inner_->indexed_active) {
        // Indexed addressing (auto-vectorizer style): recompute per access.
        const std::uint8_t t = int_pool_.alloc();
        asm_.slli(t, loop_var_reg(inner_->var),
                  log2_bytes(k_.arrays[static_cast<std::size_t>(r.array)].type));
        asm_.add(t, inner_->rowbase_regs[static_cast<std::size_t>(pi)], t);
        return {t, (r.col.offset + unroll_off_) * esize, true};
      }
    }
    return address_of(r);
  }

  Val eval(const Expr& e, ScalarType ctx) {
    switch (e.kind) {
      case Expr::Kind::Load: {
        if (auto inv = find_invariant(e.ref)) return {inv->reg, inv->type, false};
        const auto& arr = k_.arrays[static_cast<std::size_t>(e.ref.array)];
        const Addr a = stream_addr(e.ref);
        const std::uint8_t d = fp_pool_.alloc();
        note_mem(e.ref.array);
        asm_.emit({.op = scalar_ops(arr.type).load, .rd = d, .rs1 = a.reg,
                   .imm = a.imm});
        release_addr(a);
        return {d, arr.type, true};
      }
      case Expr::Kind::Var:
        return {var_reg_[static_cast<std::size_t>(e.var)],
                k_.vars[static_cast<std::size_t>(e.var)].type, false};
      case Expr::Kind::Const:
        return {const_reg(e.cval, ctx), ctx, false};
      default: {
        Val l = eval(*e.lhs, child_ctx(e, *e.lhs, ctx));
        Val r = eval(*e.rhs, child_ctx(e, *e.rhs, ctx));
        const ScalarType t = promote(l.type, r.type);
        l = convert_to(l, t);
        r = convert_to(r, t);
        const std::uint8_t d = fp_pool_.alloc();
        const auto ops = scalar_ops(t);
        Op op = ops.fadd;
        if (e.kind == Expr::Kind::Sub) op = ops.fsub;
        if (e.kind == Expr::Kind::Mul) op = ops.fmul;
        if (e.kind == Expr::Kind::Div) op = ops.fdiv;
        asm_.fp_rrr(op, d, l.reg, r.reg);
        free_val(l);
        free_val(r);
        return {d, t, true};
      }
    }
  }

  /// var += a * b with fusion: same-type fmadd, or widening via Xfaux
  /// fmacex (manual mode) / convert + fmadd (compiler-style).
  void emit_scalar_mac(std::uint8_t acc_reg, ScalarType acc_t, const Expr& mul) {
    Val l = eval(*mul.lhs, acc_t);
    Val r = eval(*mul.rhs, acc_t);
    const ScalarType t = promote(l.type, r.type);
    if (t == acc_t) {
      l = convert_to(l, t);
      r = convert_to(r, t);
      asm_.fp_r4(scalar_ops(t).fmadd, acc_reg, l.reg, r.reg, acc_reg);
    } else if (acc_t == ScalarType::F32 && l.type == r.type &&
               !is_posit(l.type) && is_manual_mode(mode_)) {
      // No posit fmacex exists; posit sources take the convert + fmadd path
      // below (exact widening, so the wide FMA still rounds once).
      asm_.fp_rrr(fmacex_op(l.type), acc_reg, l.reg, r.reg);
    } else {
      l = convert_to(l, acc_t);
      r = convert_to(r, acc_t);
      asm_.fp_r4(scalar_ops(acc_t).fmadd, acc_reg, l.reg, r.reg, acc_reg);
    }
    free_val(l);
    free_val(r);
  }

  void lower_stmt_scalar(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::AssignScalar: {
        const auto ut = k_.vars[static_cast<std::size_t>(s.dst_var)].type;
        const auto ureg = var_reg_[static_cast<std::size_t>(s.dst_var)];
        Val v = eval(*s.value, ut);
        if (v.type != ut) {
          asm_.fp_rr(convert_op(ut, v.type), ureg, v.reg);
        } else {
          asm_.fp_rrr(scalar_ops(ut).fsgnj, ureg, v.reg, v.reg);
        }
        free_val(v);
        return;
      }
      case Stmt::Kind::AccumScalar: {
        const auto ut = k_.vars[static_cast<std::size_t>(s.dst_var)].type;
        const auto ureg = var_reg_[static_cast<std::size_t>(s.dst_var)];
        if (s.value->kind == Expr::Kind::Mul) {
          emit_scalar_mac(ureg, ut, *s.value);
          return;
        }
        Val v = eval(*s.value, ut);
        v = convert_to(v, ut);
        asm_.fp_rrr(scalar_ops(ut).fadd, ureg, ureg, v.reg);
        free_val(v);
        return;
      }
      case Stmt::Kind::StoreArray: {
        const auto& arr = k_.arrays[static_cast<std::size_t>(s.dst.array)];
        Val v = eval(*s.value, arr.type);
        v = convert_to(v, arr.type);
        const Addr a = stream_addr(s.dst);
        note_mem(s.dst.array);
        asm_.emit({.op = scalar_ops(arr.type).store, .rs1 = a.reg, .rs2 = v.reg,
                   .imm = a.imm});
        release_addr(a);
        free_val(v);
        return;
      }
      case Stmt::Kind::AccumArray: {
        const auto& arr = k_.arrays[static_cast<std::size_t>(s.dst.array)];
        const Addr a = stream_addr(s.dst);
        const std::uint8_t d = fp_pool_.alloc();
        note_mem(s.dst.array);
        asm_.emit({.op = scalar_ops(arr.type).load, .rd = d, .rs1 = a.reg,
                   .imm = a.imm});
        if (s.value->kind == Expr::Kind::Mul) {
          emit_scalar_mac(d, arr.type, *s.value);
        } else if (s.value->kind == Expr::Kind::Add &&
                   s.value->lhs->kind == Expr::Kind::Mul &&
                   s.value->rhs->kind == Expr::Kind::Mul) {
          emit_scalar_mac(d, arr.type, *s.value->lhs);
          emit_scalar_mac(d, arr.type, *s.value->rhs);
        } else {
          Val v = eval(*s.value, arr.type);
          v = convert_to(v, arr.type);
          asm_.fp_rrr(scalar_ops(arr.type).fadd, d, d, v.reg);
          free_val(v);
        }
        note_mem(s.dst.array);
        asm_.emit({.op = scalar_ops(arr.type).store, .rs1 = a.reg, .rs2 = d,
                   .imm = a.imm});
        release_addr(a);
        fp_pool_.release(d);
        return;
      }
    }
  }

  // ------------------------------------------------------------- loop nest --
  void lower_nodes(const std::vector<Node>& nodes) {
    for (const auto& n : nodes) {
      if (std::holds_alternative<Loop>(n)) {
        lower_loop(std::get<Loop>(n));
      } else {
        lower_stmt_scalar(std::get<Stmt>(n));
      }
    }
  }

  static bool is_innermost(const Loop& lp) {
    if (lp.body.empty()) return false;
    return std::all_of(lp.body.begin(), lp.body.end(), [](const Node& n) {
      return std::holds_alternative<Stmt>(n);
    });
  }

  /// Upper-bound register (caller releases).
  std::uint8_t bound_reg(const Loop& lp) {
    const std::uint8_t b = int_pool_.alloc();
    if (lp.upper.is_constant()) {
      asm_.li(b, lp.upper.constant);
    } else {
      asm_.addi(b, loop_var_reg(lp.upper.var), lp.upper.offset);
    }
    return b;
  }

  void lower_loop(const Loop& lp) {
    if (is_innermost(lp)) {
      if (mode_ != CodegenMode::Scalar && vectorizable(lp)) {
        lower_vector_loop(lp);
      } else {
        lower_scalar_innermost(lp);
      }
      return;
    }
    // Outer loop: plain counted loop, statements lowered generically.
    const std::uint8_t v = int_pool_.alloc();
    loop_reg_[lp.var] = v;
    asm_.li(v, lp.lower);
    const std::uint8_t b = bound_reg(lp);
    const auto lend = asm_.make_label();
    const auto ltop = asm_.make_label();
    asm_.bge(v, b, lend);
    asm_.bind(ltop);
    lower_nodes(lp.body);
    asm_.addi(v, v, 1);
    asm_.blt(v, b, ltop);
    asm_.bind(lend);
    int_pool_.release(b);
    int_pool_.release(v);
    loop_reg_.erase(lp.var);
  }

  // -------------------------------------------------- innermost (scalar) ---
  /// Collect streaming patterns and invariant load refs for an innermost loop.
  void analyze_inner(const Loop& lp, InnerCtx& ic) {
    ic.var = lp.var;
    auto add_ref = [&](const ArrayRef& r, bool is_load) {
      assert(r.row.var != lp.var && "row index may not use the inner var");
      if (r.col.var == lp.var) {
        if (find_pattern(ic, r) < 0) {
          ic.patterns.push_back({r.array, r.row.var, r.row.offset});
        }
      } else if (is_load) {
        // Loop-invariant load: hoisted to the preheader.
        for (const auto& ir : ic.inv_refs) {
          if (ir.array == r.array && ir.row.var == r.row.var &&
              ir.row.offset == r.row.offset && ir.col.var == r.col.var &&
              ir.col.offset == r.col.offset) {
            return;
          }
        }
        ic.inv_refs.push_back(r);
      }
    };
    auto walk = [&](const Expr& e, auto&& self) -> void {
      if (e.kind == Expr::Kind::Load) {
        add_ref(e.ref, true);
      } else if (e.lhs) {
        self(*e.lhs, self);
        self(*e.rhs, self);
      }
    };
    for (const auto& n : lp.body) {
      const Stmt& s = std::get<Stmt>(n);
      if (s.kind == Stmt::Kind::StoreArray || s.kind == Stmt::Kind::AccumArray) {
        add_ref(s.dst, false);
      }
      walk(*s.value, walk);
    }
  }

  /// Set up pointer registers: ptr = base + (row*cols + lower)*esize.
  void setup_pointers(const Loop& lp, InnerCtx& ic) {
    for (const auto& p : ic.patterns) {
      const auto& arr = k_.arrays[static_cast<std::size_t>(p.array)];
      const int esize = width_bytes(arr.type);
      const std::uint8_t ptr = int_pool_.alloc();
      if (p.row_var >= 0) {
        const std::uint8_t c = int_pool_.alloc();
        if (p.row_off != 0) {
          asm_.addi(ptr, loop_var_reg(p.row_var), p.row_off);
          asm_.li(c, arr.cols * esize);
          asm_.mul(ptr, ptr, c);
        } else {
          asm_.li(c, arr.cols * esize);
          asm_.mul(ptr, loop_var_reg(p.row_var), c);
        }
        asm_.add(ptr, base_reg_[static_cast<std::size_t>(p.array)], ptr);
        int_pool_.release(c);
        if (lp.lower != 0) asm_.addi(ptr, ptr, lp.lower * esize);
      } else {
        const std::int32_t off = (p.row_off * arr.cols + lp.lower) * esize;
        if (off >= -2048 && off < 2048) {
          asm_.addi(ptr, base_reg_[static_cast<std::size_t>(p.array)], off);
        } else {
          asm_.li(ptr, off);
          asm_.add(ptr, base_reg_[static_cast<std::size_t>(p.array)], ptr);
        }
      }
      ic.ptr_regs.push_back(ptr);
    }
  }

  /// Auto-vectorizer style: row-base registers only; accesses recompute
  /// base + (v << log2esize) every iteration.
  void setup_rowbases(InnerCtx& ic) {
    for (const auto& p : ic.patterns) {
      const auto& arr = k_.arrays[static_cast<std::size_t>(p.array)];
      const int esize = width_bytes(arr.type);
      const std::uint8_t rb = int_pool_.alloc();
      if (p.row_var >= 0) {
        const std::uint8_t c = int_pool_.alloc();
        if (p.row_off != 0) {
          asm_.addi(rb, loop_var_reg(p.row_var), p.row_off);
          asm_.li(c, arr.cols * esize);
          asm_.mul(rb, rb, c);
        } else {
          asm_.li(c, arr.cols * esize);
          asm_.mul(rb, loop_var_reg(p.row_var), c);
        }
        asm_.add(rb, base_reg_[static_cast<std::size_t>(p.array)], rb);
        int_pool_.release(c);
      } else if (p.row_off != 0) {
        const std::int32_t off = p.row_off * arr.cols * esize;
        asm_.li(rb, off);
        asm_.add(rb, base_reg_[static_cast<std::size_t>(p.array)], rb);
      } else {
        asm_.mv(rb, base_reg_[static_cast<std::size_t>(p.array)]);
      }
      ic.rowbase_regs.push_back(rb);
    }
  }

  void load_invariants(InnerCtx& ic) {
    for (const auto& r : ic.inv_refs) {
      const auto& arr = k_.arrays[static_cast<std::size_t>(r.array)];
      const Addr a = address_of(r);
      const std::uint8_t d = fp_pool_.alloc();
      note_mem(r.array);
      asm_.emit({.op = scalar_ops(arr.type).load, .rd = d, .rs1 = a.reg,
                 .imm = a.imm});
      release_addr(a);
      ic.inv_vals.push_back({d, arr.type, true});
    }
  }

  void release_inner(InnerCtx& ic) {
    for (auto& v : ic.inv_vals) fp_pool_.release(v.reg);
    for (auto r : ic.ptr_regs) int_pool_.release(r);
    for (auto r : ic.rowbase_regs) int_pool_.release(r);
    ic.inv_vals.clear();
    ic.ptr_regs.clear();
    ic.rowbase_regs.clear();
  }

  void bump_pointers(const InnerCtx& ic, int elems) {
    for (std::size_t i = 0; i < ic.patterns.size(); ++i) {
      const auto& arr =
          k_.arrays[static_cast<std::size_t>(ic.patterns[i].array)];
      asm_.addi(ic.ptr_regs[i], ic.ptr_regs[i], elems * width_bytes(arr.type));
    }
  }

  void lower_scalar_innermost(const Loop& lp) {
    InnerCtx ic;
    analyze_inner(lp, ic);
    const std::uint8_t v = int_pool_.alloc();
    loop_reg_[lp.var] = v;
    asm_.li(v, lp.lower);
    const std::uint8_t b = bound_reg(lp);
    load_invariants(ic);
    setup_pointers(lp, ic);
    ic.pointers_active = true;
    inner_ = &ic;

    const int U = opt_.unroll_factor;
    const bool scalar_const_trip = lp.upper.is_constant();
    const int scalar_trip =
        scalar_const_trip ? lp.upper.constant - lp.lower : -1;
    // A statically-known trip count that cannot fill one unrolled group
    // makes the unrolled loop pure overhead: fall back to the O0 shape.
    const bool do_unroll = U > 1 && !(scalar_const_trip && scalar_trip < U);
    if (do_unroll) {
      // Unrolled main loop: U bodies per back-edge, lane offsets folded into
      // the load/store displacements, one pointer bump and one induction
      // update per group. Covers lower + floor(trip / U) * U iterations.
      const bool const_trip = scalar_const_trip;
      const int trip_const = scalar_trip;
      const std::uint8_t uend = int_pool_.alloc();
      if (const_trip) {
        asm_.li(uend,
                lp.lower + (trip_const > 0 ? (trip_const / U) * U : 0));
      } else {
        // uend = v + (trip & -U); a negative trip stays negative, so the
        // guard below skips the loop exactly as the O0 guard would.
        const std::uint8_t trip = int_pool_.alloc();
        asm_.sub(trip, b, v);
        asm_.emit({.op = Op::ANDI, .rd = trip, .rs1 = trip, .imm = -U});
        asm_.add(uend, v, trip);
        int_pool_.release(trip);
      }
      const auto luend = asm_.make_label();
      const auto lutop = asm_.make_label();
      const std::uint32_t range_begin = asm_.pc();
      asm_.bge(v, uend, luend);
      asm_.bind(lutop);
      for (int u = 0; u < U; ++u) {
        unroll_off_ = u;
        for (const auto& n : lp.body) lower_stmt_scalar(std::get<Stmt>(n));
      }
      unroll_off_ = 0;
      bump_pointers(ic, U);
      asm_.addi(v, v, U);
      asm_.blt(v, uend, lutop);
      asm_.bind(luend);
      int_pool_.release(uend);
      // Step-1 epilogue, body identical to O0 (bit-identical remainder);
      // skipped when the trip count is statically divisible by U.
      if (!(const_trip && trip_const >= 0 && trip_const % U == 0)) {
        const auto lend = asm_.make_label();
        const auto ltop = asm_.make_label();
        asm_.bge(v, b, lend);
        asm_.bind(ltop);
        for (const auto& n : lp.body) lower_stmt_scalar(std::get<Stmt>(n));
        bump_pointers(ic, 1);
        asm_.addi(v, v, 1);
        asm_.blt(v, b, ltop);
        asm_.bind(lend);
      }
      inner_ranges_.emplace_back(range_begin, asm_.pc());
    } else {
      const auto lend = asm_.make_label();
      const auto ltop = asm_.make_label();
      asm_.bge(v, b, lend);
      const std::uint32_t range_begin = asm_.pc();
      asm_.bind(ltop);
      for (const auto& n : lp.body) lower_stmt_scalar(std::get<Stmt>(n));
      bump_pointers(ic, 1);
      asm_.addi(v, v, 1);
      asm_.blt(v, b, ltop);
      const std::uint32_t range_end = asm_.pc();
      asm_.bind(lend);
      inner_ranges_.emplace_back(range_begin, range_end);
    }

    inner_ = nullptr;
    release_inner(ic);
    int_pool_.release(b);
    int_pool_.release(v);
    loop_reg_.erase(lp.var);
  }

  // -------------------------------------------------- innermost (vector) ---
  /// Element type shared by all streaming accesses, if vectorizable.
  std::optional<ScalarType> vector_type(const Loop& lp) const {
    std::optional<ScalarType> t;
    bool ok = true;
    auto check_ref = [&](const ArrayRef& r, bool is_store) {
      if (r.row.var == lp.var) {
        ok = false;
        return;
      }
      if (r.col.var != lp.var) return;  // invariant
      const auto at = k_.arrays[static_cast<std::size_t>(r.array)].type;
      if (at == ScalarType::F32) ok = false;
      if (!t) {
        t = at;
      } else if (*t != at) {
        ok = false;
      }
      (void)is_store;
    };
    auto walk = [&](const Expr& e, auto&& self) -> void {
      if (e.kind == Expr::Kind::Load) {
        check_ref(e.ref, false);
      } else if (e.lhs) {
        self(*e.lhs, self);
        self(*e.rhs, self);
      }
    };
    for (const auto& n : lp.body) {
      const Stmt& s = std::get<Stmt>(n);
      switch (s.kind) {
        case Stmt::Kind::StoreArray:
        case Stmt::Kind::AccumArray:
          check_ref(s.dst, true);
          break;
        case Stmt::Kind::AccumScalar: {
          const auto ut = k_.vars[static_cast<std::size_t>(s.dst_var)].type;
          // Plain (same type) or expanding (f32 acc over Mul of loads).
          if (ut == ScalarType::F32) {
            if (s.value->kind != Expr::Kind::Mul ||
                s.value->lhs->kind != Expr::Kind::Load ||
                s.value->rhs->kind != Expr::Kind::Load) {
              ok = false;
            }
          }
          break;
        }
        case Stmt::Kind::AssignScalar:
          ok = false;
          break;
      }
      walk(*s.value, walk);
    }
    if (!ok || !t) return std::nullopt;
    // Reduction accumulators must be the vector type, f32 (expanding), or —
    // under the ExSdotp generator only — the one-step-wider format, which
    // additionally requires the exsdotp operand shape (a product of two
    // streaming loads feeding the packed wide accumulator).
    for (const auto& n : lp.body) {
      const Stmt& s = std::get<Stmt>(n);
      if (s.kind == Stmt::Kind::AccumScalar) {
        const auto ut = k_.vars[static_cast<std::size_t>(s.dst_var)].type;
        if (ut == *t || ut == ScalarType::F32) continue;
        const bool exs = mode_ == CodegenMode::ManualVecExs &&
                         exsdotp_wide(*t) == ut &&
                         s.value->kind == Expr::Kind::Mul &&
                         s.value->lhs->kind == Expr::Kind::Load &&
                         s.value->rhs->kind == Expr::Kind::Load;
        if (!exs) return std::nullopt;
      }
    }
    // Shapes the vector lowering can actually emit. Every reduction value
    // needs a streaming side to carry the lanes (an all-invariant value has
    // no packed register to accumulate from), the expanding dot product
    // needs two packed operands, and a variable accumulated in this loop
    // must not also be read as an operand (its lanes live in the packed
    // accumulator, not the home register). Violations fall back to scalar.
    auto streams = [&](const Expr& e) {
      auto rec = [&](const Expr& x, auto&& self) -> bool {
        if (x.kind == Expr::Kind::Load) return x.ref.col.var == lp.var;
        if (x.lhs) return self(*x.lhs, self) || self(*x.rhs, self);
        return false;
      };
      return rec(e, rec);
    };
    std::vector<int> acc_dsts;
    for (const auto& n : lp.body) {
      const Stmt& s = std::get<Stmt>(n);
      if (s.kind == Stmt::Kind::AccumScalar) acc_dsts.push_back(s.dst_var);
    }
    auto reads_acc_dst = [&](const Expr& e) {
      auto rec = [&](const Expr& x, auto&& self) -> bool {
        if (x.kind == Expr::Kind::Var) {
          return std::find(acc_dsts.begin(), acc_dsts.end(), x.var) !=
                 acc_dsts.end();
        }
        if (x.lhs) return self(*x.lhs, self) || self(*x.rhs, self);
        return false;
      };
      return rec(e, rec);
    };
    for (const auto& n : lp.body) {
      const Stmt& s = std::get<Stmt>(n);
      const Expr& v = *s.value;
      if (reads_acc_dst(v)) return std::nullopt;
      switch (s.kind) {
        case Stmt::Kind::StoreArray:
          break;  // invariant values are broadcast
        case Stmt::Kind::AccumArray:
          if (v.kind == Expr::Kind::Add &&
              v.lhs->kind == Expr::Kind::Mul &&
              v.rhs->kind == Expr::Kind::Mul) {
            if (!streams(*v.lhs) || !streams(*v.rhs)) return std::nullopt;
          } else if (!streams(v)) {
            return std::nullopt;
          }
          break;
        case Stmt::Kind::AccumScalar: {
          const auto ut = k_.vars[static_cast<std::size_t>(s.dst_var)].type;
          if (ut == *t) {
            if (!streams(v)) return std::nullopt;
          } else {  // expanding: vfdotpex needs two packed operands
            if (!streams(*v.lhs) || !streams(*v.rhs)) return std::nullopt;
          }
          break;
        }
        case Stmt::Kind::AssignScalar:
          break;  // already rejected above
      }
    }
    return t;
  }

  bool vectorizable(const Loop& lp) const {
    return vector_type(lp).has_value();
  }

  struct VVal {
    std::uint8_t reg;
    bool vec;
    ScalarType type;
    bool owned;
  };

  void free_vval(const VVal& v) {
    if (v.owned) fp_pool_.release(v.reg);
  }

  ScalarType vec_t_ = ScalarType::F16;  // active vector element type
  std::uint8_t zero_vec_ = 0;           // packed +0 lanes, when allocated
  bool zero_vec_valid_ = false;
  bool strip_ = false;  // emitting a VL strip-mined body (vl_cap != 0)

  /// Packed-register load for the vector body: a full-register flw in the
  /// legacy fixed-lane shape, or the VL-governed vflh/vflb (element count =
  /// granted vl, tail undisturbed) inside a strip-mined loop.
  void emit_vec_load(std::uint8_t d, std::int32_t imm, std::uint8_t base) {
    if (!strip_) {
      asm_.flw(d, imm, base);
    } else if (log2_bytes(vec_t_) == 1) {
      asm_.vflh(d, imm, base);
    } else {
      asm_.vflb(d, imm, base);
    }
  }
  void emit_vec_store(std::uint8_t r, std::int32_t imm, std::uint8_t base) {
    if (!strip_) {
      asm_.fsw(r, imm, base);
    } else if (log2_bytes(vec_t_) == 1) {
      asm_.vfsh(r, imm, base);
    } else {
      asm_.vfsb(r, imm, base);
    }
  }

  /// Vector load: packed load through pointer or indexed addressing.
  VVal vload(const ArrayRef& r) {
    const Addr a = stream_addr(r);
    const std::uint8_t d = fp_pool_.alloc();
    note_mem(r.array);
    emit_vec_load(d, a.imm, a.reg);
    release_addr(a);
    return {d, true, vec_t_, true};
  }

  std::uint8_t broadcast(std::uint8_t scalar_reg) {
    if (!zero_vec_valid_) throw std::runtime_error("broadcast without preheader");
    const std::uint8_t d = fp_pool_.alloc();
    asm_.fp_rrr(vector_ops(vec_t_).vfadd_r, d, zero_vec_, scalar_reg);
    return d;
  }

  VVal veval(const Expr& e, ScalarType ctx) {
    switch (e.kind) {
      case Expr::Kind::Load: {
        if (auto inv = find_invariant(e.ref)) {
          return {inv->reg, false, inv->type, false};
        }
        return vload(e.ref);
      }
      case Expr::Kind::Var:
        for (const auto& [vid, reg] : var_vec_regs_) {
          if (vid == e.var) return {reg, false, vec_t_, false};
        }
        return {var_reg_[static_cast<std::size_t>(e.var)], false,
                k_.vars[static_cast<std::size_t>(e.var)].type, false};
      case Expr::Kind::Const:
        return {const_reg(e.cval, ctx), false, ctx, false};
      default: {
        VVal l = veval(*e.lhs, child_ctx(e, *e.lhs, ctx));
        VVal r = veval(*e.rhs, child_ctx(e, *e.rhs, ctx));
        const auto vops = vector_ops(vec_t_);
        if (!l.vec && !r.vec) {
          // Invariant subtree: scalar computation in the vector type.
          Val sl{l.reg, l.type, l.owned};
          Val sr{r.reg, r.type, r.owned};
          const ScalarType t = promote(sl.type, sr.type);
          sl = convert_to(sl, t);
          sr = convert_to(sr, t);
          const std::uint8_t d = fp_pool_.alloc();
          const auto ops = scalar_ops(t);
          Op op = ops.fadd;
          if (e.kind == Expr::Kind::Sub) op = ops.fsub;
          if (e.kind == Expr::Kind::Mul) op = ops.fmul;
          if (e.kind == Expr::Kind::Div) op = ops.fdiv;
          asm_.fp_rrr(op, d, sl.reg, sr.reg);
          free_val(sl);
          free_val(sr);
          return {d, false, t, true};
        }
        // At least one vector side: scalars must already be the vector type.
        auto as_vec_ready = [&](VVal& s) {
          (void)s;
          assert(s.type == vec_t_ && "invariant operands are pre-converted");
        };
        if (l.vec && r.vec) {
          const std::uint8_t d = fp_pool_.alloc();
          Op op = vops.vfadd;
          if (e.kind == Expr::Kind::Sub) op = vops.vfsub;
          if (e.kind == Expr::Kind::Mul) op = vops.vfmul;
          if (e.kind == Expr::Kind::Div) op = vops.vfdiv;
          asm_.fp_rrr(op, d, l.reg, r.reg);
          free_vval(l);
          free_vval(r);
          return {d, true, vec_t_, true};
        }
        // Mixed vector/scalar.
        VVal& vecside = l.vec ? l : r;
        VVal& sclside = l.vec ? r : l;
        as_vec_ready(sclside);
        const bool scalar_is_rhs = !r.vec;
        if (e.kind == Expr::Kind::Add || e.kind == Expr::Kind::Mul ||
            scalar_is_rhs) {
          const std::uint8_t d = fp_pool_.alloc();
          Op op = vops.vfadd_r;
          if (e.kind == Expr::Kind::Sub) op = vops.vfsub_r;
          if (e.kind == Expr::Kind::Mul) op = vops.vfmul_r;
          if (e.kind == Expr::Kind::Div) op = vops.vfdiv_r;
          asm_.fp_rrr(op, d, vecside.reg, sclside.reg);
          free_vval(l);
          free_vval(r);
          return {d, true, vec_t_, true};
        }
        // scalar OP vector with non-commutative op: broadcast the scalar.
        const std::uint8_t bc = broadcast(sclside.reg);
        const std::uint8_t d = fp_pool_.alloc();
        Op op = (e.kind == Expr::Kind::Sub) ? vops.vfsub : vops.vfdiv;
        asm_.fp_rrr(op, d, bc, vecside.reg);
        fp_pool_.release(bc);
        free_vval(l);
        free_vval(r);
        return {d, true, vec_t_, true};
      }
    }
    return {0, false, vec_t_, false};  // unreachable
  }

  /// acc (vector reg) += a * b lane-wise, using vfmac / vfmac.r fusion.
  void emit_vec_mac(std::uint8_t acc, const Expr& mul, ScalarType ctx) {
    const auto vops = vector_ops(vec_t_);
    VVal l = veval(*mul.lhs, child_ctx(mul, *mul.lhs, ctx));
    VVal r = veval(*mul.rhs, child_ctx(mul, *mul.rhs, ctx));
    if (l.vec && r.vec) {
      asm_.fp_rrr(vops.vfmac, acc, l.reg, r.reg);
    } else {
      VVal& vecside = l.vec ? l : r;
      VVal& sclside = l.vec ? r : l;
      assert(vecside.vec);
      assert(sclside.type == vec_t_);
      asm_.fp_rrr(vops.vfmac_r, acc, vecside.reg, sclside.reg);
    }
    free_vval(l);
    free_vval(r);
  }

  /// Horizontal reduction of a packed register into a scalar of the vector
  /// type: extract lanes through the integer file (compiler-style epilogue).
  static Op fmv_from_x_op(ScalarType t) {
    switch (t) {
      case ScalarType::F16: return Op::FMV_H_X;
      case ScalarType::F16Alt: return Op::FMV_AH_X;
      case ScalarType::F8: return Op::FMV_B_X;
      case ScalarType::P8: return Op::FMV_P8_X;
      case ScalarType::P16: return Op::FMV_P16_X;
      default: return Op::FMV_S_X;
    }
  }

  std::uint8_t horizontal_sum(std::uint8_t vacc) {
    return horizontal_sum_typed(vacc, vec_t_, lanes32(vec_t_));
  }

  /// Lane-extraction sum of `lanes` packed elements of type `t` (also used
  /// for the ExSdotp epilogue, where the packed type is the one-step-wider
  /// format with half the element count).
  std::uint8_t horizontal_sum_typed(std::uint8_t vacc, ScalarType t,
                                    int lanes) {
    const int w = width_bits(t);
    const auto ops = scalar_ops(t);
    const Op fmv_to_x = Op::FMV_X_S;
    const Op fmv_from_x = fmv_from_x_op(t);
    const std::uint8_t x = int_pool_.alloc();
    asm_.fp_rr(fmv_to_x, x, vacc);
    const std::uint8_t sum = fp_pool_.alloc();
    asm_.fp_rr(fmv_from_x, sum, x);
    if (lanes > 1) {
      const std::uint8_t lane = fp_pool_.alloc();
      for (int l = 1; l < lanes; ++l) {
        asm_.srli(x, x, w);
        asm_.fp_rr(fmv_from_x, lane, x);
        asm_.fp_rrr(ops.fadd, sum, sum, lane);
      }
      fp_pool_.release(lane);
    }
    int_pool_.release(x);
    return sum;
  }

  /// Auto-vectorizer widening reduction (paper Fig. 5, left): unpack lanes,
  /// convert each to binary32, scalar fadd.s into the accumulator.
  void emit_auto_expanding_reduce(std::uint8_t acc_f32, std::uint8_t vprod) {
    const int w = width_bits(vec_t_);
    const int lanes = lanes32(vec_t_);
    const Op fmv_from_x = fmv_from_x_op(vec_t_);
    const Op cvt = convert_op(ScalarType::F32, vec_t_);
    const std::uint8_t t = int_pool_.alloc();
    const std::uint8_t lane = fp_pool_.alloc();
    const std::uint8_t wide = fp_pool_.alloc();
    asm_.fp_rr(Op::FMV_X_S, t, vprod);
    for (int l = 0; l < lanes; ++l) {
      if (l != 0) asm_.srli(t, t, w);
      asm_.fp_rr(fmv_from_x, lane, t);
      asm_.fp_rr(cvt, wide, lane);
      asm_.fp_rrr(Op::FADD_S, acc_f32, acc_f32, wide);
    }
    fp_pool_.release(wide);
    fp_pool_.release(lane);
    int_pool_.release(t);
  }

  void lower_vec_stmt(const Stmt& s) {
    const auto vops = vector_ops(vec_t_);
    switch (s.kind) {
      case Stmt::Kind::StoreArray: {
        VVal v = veval(*s.value, vec_t_);
        if (!v.vec) {
          const std::uint8_t bc = broadcast(v.reg);
          free_vval(v);
          v = {bc, true, vec_t_, true};
        }
        const Addr a = stream_addr(s.dst);
        note_mem(s.dst.array);
        emit_vec_store(v.reg, a.imm, a.reg);
        release_addr(a);
        free_vval(v);
        return;
      }
      case Stmt::Kind::AccumArray: {
        const Addr a = stream_addr(s.dst);
        const std::uint8_t d = fp_pool_.alloc();
        note_mem(s.dst.array);
        emit_vec_load(d, a.imm, a.reg);
        if (s.value->kind == Expr::Kind::Mul) {
          emit_vec_mac(d, *s.value, vec_t_);
        } else if (s.value->kind == Expr::Kind::Add &&
                   s.value->lhs->kind == Expr::Kind::Mul &&
                   s.value->rhs->kind == Expr::Kind::Mul) {
          emit_vec_mac(d, *s.value->lhs, vec_t_);
          emit_vec_mac(d, *s.value->rhs, vec_t_);
        } else {
          VVal v = veval(*s.value, vec_t_);
          assert(v.vec);
          asm_.fp_rrr(vops.vfadd, d, d, v.reg);
          free_vval(v);
        }
        note_mem(s.dst.array);
        emit_vec_store(d, a.imm, a.reg);
        release_addr(a);
        fp_pool_.release(d);
        return;
      }
      case Stmt::Kind::AccumScalar: {
        const auto ut = k_.vars[static_cast<std::size_t>(s.dst_var)].type;
        const auto ureg = var_reg_[static_cast<std::size_t>(s.dst_var)];
        if (ut == vec_t_) {
          // Plain reduction into the vector accumulator for this var.
          const std::uint8_t vacc = vec_acc_for(s.dst_var);
          if (s.value->kind == Expr::Kind::Mul) {
            emit_vec_mac(vacc, *s.value, vec_t_);
          } else {
            VVal v = veval(*s.value, vec_t_);
            assert(v.vec);
            asm_.fp_rrr(vops.vfadd, vacc, vacc, v.reg);
            free_vval(v);
          }
          return;
        }
        assert(s.value->kind == Expr::Kind::Mul);
        if (mode_ == CodegenMode::ManualVecExs && exsdotp_wide(vec_t_) == ut) {
          // ExSdotp reduction: the packed one-step-wider accumulator takes
          // two chained wide FMAs per wide lane; it is folded into the home
          // register by the wide horizontal sum in the loop epilogue.
          const std::uint8_t vacc = wide_acc_for(s.dst_var);
          VVal l = veval(*s.value->lhs, vec_t_);
          VVal r = veval(*s.value->rhs, vec_t_);
          assert(l.vec && r.vec);
          asm_.fp_rrr(exsdotp_op(vec_t_), vacc, l.reg, r.reg);
          free_vval(l);
          free_vval(r);
          return;
        }
        // Expanding reduction (f32 accumulator, smallFloat products).
        assert(ut == ScalarType::F32);
        if (is_manual_mode(mode_)) {
          VVal l = veval(*s.value->lhs, vec_t_);
          VVal r = veval(*s.value->rhs, vec_t_);
          assert(l.vec && r.vec);
          asm_.fp_rrr(vops.vfdotpex, ureg, l.reg, r.reg);
          free_vval(l);
          free_vval(r);
        } else {
          VVal l = veval(*s.value->lhs, vec_t_);
          VVal r = veval(*s.value->rhs, vec_t_);
          assert(l.vec && r.vec);
          const std::uint8_t prod = fp_pool_.alloc();
          asm_.fp_rrr(vops.vfmul, prod, l.reg, r.reg);
          free_vval(l);
          free_vval(r);
          emit_auto_expanding_reduce(ureg, prod);
          fp_pool_.release(prod);
        }
        return;
      }
      case Stmt::Kind::AssignScalar:
        assert(false && "scalar assignment inside vectorized loop");
        return;
    }
  }

  // Vector accumulators for same-type reductions: var id -> packed register.
  std::vector<std::pair<int, std::uint8_t>> vec_accs_;
  // ExSdotp accumulators: var id -> packed register of the one-step-wider
  // format (lanes32(vec_t_)/2 wide lanes). ManualVecExs only.
  std::vector<std::pair<int, std::uint8_t>> wide_accs_;
  std::uint8_t wide_acc_for(int var) {
    for (auto& [v, r] : wide_accs_) {
      if (v == var) return r;
    }
    throw std::runtime_error("missing exsdotp accumulator");
  }
  // Invariant scalar variables pre-converted to the element type for the
  // vector body: var id -> preheader register (see lower_vector_loop).
  std::vector<std::pair<int, std::uint8_t>> var_vec_regs_;
  std::uint8_t vec_acc_for(int var) {
    for (auto& [v, r] : vec_accs_) {
      if (v == var) return r;
    }
    throw std::runtime_error("missing vector accumulator");
  }

  void lower_vector_loop(const Loop& lp) {
    const ScalarType t = *vector_type(lp);
    vec_t_ = t;
    const int vl = lanes32(t);
    InnerCtx ic;
    analyze_inner(lp, ic);

    const std::uint8_t v = int_pool_.alloc();
    loop_reg_[lp.var] = v;
    asm_.li(v, lp.lower);
    const std::uint8_t b = bound_reg(lp);

    load_invariants(ic);
    // Invariant operands participating in vector lanes must be the vector
    // element type; pre-convert them in the preheader.
    for (auto& inv : ic.inv_vals) {
      if (inv.type != t) {
        const std::uint8_t d = fp_pool_.alloc();
        asm_.fp_rr(convert_op(t, inv.type), d, inv.reg);
        fp_pool_.release(inv.reg);
        inv.reg = d;
        inv.type = t;
      }
    }
    // Same for loop-invariant scalar variables read in the body (mixed
    // precision: e.g. atax's y[j] += A[i][j] * s with a float accumulator s
    // feeding a float16 lane operand). Reduction destinations are excluded —
    // the accumulator paths below own those. The home register stays
    // untouched so the scalar epilogue still reads the full-precision value.
    var_vec_regs_.clear();
    {
      std::vector<int> reads;
      std::vector<int> acc_dsts;
      auto note = [&](const Expr& e, auto&& self) -> void {
        if (e.kind == Expr::Kind::Var) {
          if (std::find(reads.begin(), reads.end(), e.var) == reads.end()) {
            reads.push_back(e.var);
          }
        } else if (e.lhs) {
          self(*e.lhs, self);
          self(*e.rhs, self);
        }
      };
      for (const auto& n : lp.body) {
        const Stmt& s = std::get<Stmt>(n);
        if (s.kind == Stmt::Kind::AccumScalar) acc_dsts.push_back(s.dst_var);
        note(*s.value, note);
      }
      for (const int vid : reads) {
        if (std::find(acc_dsts.begin(), acc_dsts.end(), vid) !=
            acc_dsts.end()) {
          continue;
        }
        const auto vt = k_.vars[static_cast<std::size_t>(vid)].type;
        if (vt == t) continue;
        const std::uint8_t d = fp_pool_.alloc();
        asm_.fp_rr(convert_op(t, vt), d,
                   var_reg_[static_cast<std::size_t>(vid)]);
        var_vec_regs_.emplace_back(vid, d);
      }
    }

    // Broadcast support (packed zero) if any store may need it.
    bool need_broadcast = false;
    for (const auto& n : lp.body) {
      const Stmt& s = std::get<Stmt>(n);
      if (s.kind == Stmt::Kind::StoreArray) {
        // Conservatively: stores of invariant expressions need broadcasts.
        bool has_stream_load = false;
        auto walk = [&](const Expr& e, auto&& self) -> void {
          if (e.kind == Expr::Kind::Load && e.ref.col.var == lp.var) {
            has_stream_load = true;
          } else if (e.lhs) {
            self(*e.lhs, self);
            self(*e.rhs, self);
          }
        };
        walk(*s.value, walk);
        if (!has_stream_load) need_broadcast = true;
      }
      if (s.value->kind == Expr::Kind::Sub || s.value->kind == Expr::Kind::Div) {
        need_broadcast = true;  // conservative: scalar-lhs corner
      }
    }
    if (need_broadcast) {
      zero_vec_ = fp_pool_.alloc();
      asm_.fp_rr(Op::FMV_S_X, zero_vec_, reg::zero);
      zero_vec_valid_ = true;
    }

    // Same-type reduction accumulators: zero-initialized packed registers.
    vec_accs_.clear();
    for (const auto& n : lp.body) {
      const Stmt& s = std::get<Stmt>(n);
      if (s.kind == Stmt::Kind::AccumScalar &&
          k_.vars[static_cast<std::size_t>(s.dst_var)].type == t) {
        const std::uint8_t r = fp_pool_.alloc();
        asm_.fp_rr(Op::FMV_S_X, r, reg::zero);
        vec_accs_.emplace_back(s.dst_var, r);
      }
    }
    // ExSdotp accumulators: packed registers of the one-step-wider format.
    // All-zero bits are packed +0 lanes in IEEE and packed zero in posits,
    // so the same fmv.s.x x0 idiom initializes both.
    wide_accs_.clear();
    if (mode_ == CodegenMode::ManualVecExs) {
      for (const auto& n : lp.body) {
        const Stmt& s = std::get<Stmt>(n);
        if (s.kind != Stmt::Kind::AccumScalar) continue;
        const auto ut = k_.vars[static_cast<std::size_t>(s.dst_var)].type;
        if (exsdotp_wide(t) != ut) continue;
        const std::uint8_t r = fp_pool_.alloc();
        asm_.fp_rr(Op::FMV_S_X, r, reg::zero);
        wide_accs_.emplace_back(s.dst_var, r);
      }
    }

    // Trip-count split: vector part covers floor(trip / vl) * vl iterations.
    // With unrolling the split is three-way — an unrolled loop stepping
    // U * vl, a vl-stepped loop for the remaining full-width chunks, and the
    // scalar epilogue — and every element keeps the exact O0 execution shape
    // (same chunk order, same instructions per chunk), so reductions stay
    // bit-identical.
    // Dynamic-VL strip mining replaces the whole three-way split: the loop
    // asks `setvl` for min(remaining, vl_cap) elements each iteration, and
    // the final short strip IS the tail — no vecend, no scalar epilogue.
    const bool strip = opt_.vl_cap != 0 && is_manual_mode(mode_);
    const bool const_trip = lp.upper.is_constant();
    const int trip_const = const_trip ? lp.upper.constant - lp.lower : -1;
    const bool exact = const_trip && trip_const % vl == 0;
    const int U = opt_.unroll_factor;
    const int step = U * vl;
    // A statically-known trip count that cannot fill one unrolled group
    // makes the unrolled loop pure overhead: fall back to the O0 shape.
    const bool do_unroll = !strip && U > 1 && !(const_trip && trip_const < step);
    // The vl-stepped loop is statically empty when the unrolled loop already
    // covers every full-width chunk.
    const bool mid_needed =
        !strip && (!do_unroll || !const_trip ||
                   (trip_const > 0 &&
                    (trip_const / vl) * vl != (trip_const / step) * step));
    std::uint8_t vecend = 0;
    if (mid_needed) {
      if (const_trip) {
        vecend = int_pool_.alloc();
        asm_.li(vecend, lp.lower + (trip_const / vl) * vl);
      } else {
        // vecend = lower + (trip & -vl)
        vecend = int_pool_.alloc();
        const std::uint8_t trip = int_pool_.alloc();
        asm_.sub(trip, b, v);
        asm_.emit({.op = Op::ANDI, .rd = trip, .rs1 = trip, .imm = -vl});
        asm_.add(vecend, v, trip);
        int_pool_.release(trip);
      }
    }

    const bool indexed =
        (mode_ == CodegenMode::AutoVec) && !opt_.ptr_strength_reduction;
    if (indexed) {
      setup_rowbases(ic);
      ic.indexed_active = true;
    } else {
      setup_pointers(lp, ic);
      ic.pointers_active = true;
    }
    inner_ = &ic;

    const std::uint32_t range_begin = asm_.pc();
    if (strip) {
      // VL-agnostic strip-mined loop:
      //   while (v < b) { U x [ avl = b - v; gvl = setvl(avl, ew, cap);
      //                         body; ptr += gvl << ew; v += gvl ] }
      // Unrolled copies past the exhausted point self-neutralize: with
      // AVL == 0, setvl grants 0, so the body's tail-undisturbed merges, the
      // VL-governed loads/stores, the pointer bumps, and the induction update
      // are all no-ops. That makes U > 1 element-for-element identical to
      // U = 1 (same strip sequence), which is the O2 == O0 contract.
      strip_ = true;
      const int ew = log2_bytes(t);
      const std::uint8_t avl = int_pool_.alloc();
      const std::uint8_t gvl = int_pool_.alloc();
      const std::uint8_t bump = int_pool_.alloc();
      const auto lsend = asm_.make_label();
      const auto lstop = asm_.make_label();
      asm_.bge(v, b, lsend);
      asm_.bind(lstop);
      // Replicate strips only when the static strip count divides evenly by
      // U: exhausted strips are architecturally no-ops but still retire
      // their glue and masked body, so a partial final group would make the
      // unrolled loop strictly slower than U = 1.
      int copies = 1;
      if (U > 1 && const_trip && trip_const > 0) {
        const int g = vl < opt_.vl_cap ? vl : opt_.vl_cap;
        const int strips = (trip_const + g - 1) / g;
        if (strips % U == 0) copies = U;
      }
      for (int u = 0; u < copies; ++u) {
        asm_.sub(avl, b, v);
        asm_.setvl(gvl, avl, ew, opt_.vl_cap);
        for (const auto& n : lp.body) lower_vec_stmt(std::get<Stmt>(n));
        asm_.slli(bump, gvl, ew);
        for (const std::uint8_t p : ic.ptr_regs) asm_.add(p, p, bump);
        asm_.add(v, v, gvl);
      }
      asm_.blt(v, b, lstop);
      asm_.bind(lsend);
      // Restore VL to VLMAX: the horizontal reductions below (and any later
      // vector loop's preheader) use packed operations, which are
      // VL-governed. Requesting a large AVL with no cap grants VLMAX.
      asm_.li(avl, 32);
      asm_.setvl(reg::zero, avl, 0, 0);
      strip_ = false;
      int_pool_.release(bump);
      int_pool_.release(gvl);
      int_pool_.release(avl);
    }
    if (do_unroll) {
      const std::uint8_t uvend = int_pool_.alloc();
      if (const_trip) {
        asm_.li(uvend,
                lp.lower + (trip_const > 0 ? (trip_const / step) * step : 0));
      } else {
        const std::uint8_t trip = int_pool_.alloc();
        asm_.sub(trip, b, v);
        asm_.emit({.op = Op::ANDI, .rd = trip, .rs1 = trip, .imm = -step});
        asm_.add(uvend, v, trip);
        int_pool_.release(trip);
      }
      const auto luend = asm_.make_label();
      const auto lutop = asm_.make_label();
      asm_.bge(v, uvend, luend);
      asm_.bind(lutop);
      for (int u = 0; u < U; ++u) {
        unroll_off_ = u * vl;
        for (const auto& n : lp.body) lower_vec_stmt(std::get<Stmt>(n));
      }
      unroll_off_ = 0;
      if (!indexed) bump_pointers(ic, step);
      asm_.addi(v, v, step);
      asm_.blt(v, uvend, lutop);
      asm_.bind(luend);
      int_pool_.release(uvend);
    }
    if (mid_needed) {
      const auto lvend = asm_.make_label();
      const auto lvtop = asm_.make_label();
      asm_.bge(v, vecend, lvend);
      asm_.bind(lvtop);
      for (const auto& n : lp.body) lower_vec_stmt(std::get<Stmt>(n));
      if (!indexed) bump_pointers(ic, vl);
      asm_.addi(v, v, vl);
      asm_.blt(v, vecend, lvtop);
      asm_.bind(lvend);
      int_pool_.release(vecend);
    }

    // Horizontal reductions for same-type accumulators.
    for (const auto& [varid, vacc] : vec_accs_) {
      const std::uint8_t h = horizontal_sum(vacc);
      const auto ureg = var_reg_[static_cast<std::size_t>(varid)];
      asm_.fp_rrr(scalar_ops(t).fadd, ureg, ureg, h);
      fp_pool_.release(h);
      fp_pool_.release(vacc);
    }
    vec_accs_.clear();
    // Wide horizontal reductions for ExSdotp accumulators: the sum runs in
    // the accumulator (one-step-wider) format, then folds into the home
    // register with one wide fadd — no narrowing anywhere.
    for (const auto& [varid, vacc] : wide_accs_) {
      const ScalarType wt = *exsdotp_wide(t);
      const std::uint8_t h = horizontal_sum_typed(vacc, wt, vl / 2);
      const auto ureg = var_reg_[static_cast<std::size_t>(varid)];
      asm_.fp_rrr(scalar_ops(wt).fadd, ureg, ureg, h);
      fp_pool_.release(h);
      fp_pool_.release(vacc);
    }
    wide_accs_.clear();

    // Scalar epilogue for the remainder (strip mining has none: the final
    // short strip already covered it).
    if (!strip && !exact) {
      if (indexed) {
        // Materialize pointers for the scalar tail from the row bases.
        ic.indexed_active = false;
        for (std::size_t i = 0; i < ic.patterns.size(); ++i) {
          const auto& arr =
              k_.arrays[static_cast<std::size_t>(ic.patterns[i].array)];
          const std::uint8_t ptr = int_pool_.alloc();
          asm_.slli(ptr, v, log2_bytes(arr.type));
          asm_.add(ptr, ic.rowbase_regs[i], ptr);
          ic.ptr_regs.push_back(ptr);
        }
        ic.pointers_active = true;
      }
      const auto lend = asm_.make_label();
      const auto ltop = asm_.make_label();
      asm_.bge(v, b, lend);
      asm_.bind(ltop);
      for (const auto& n : lp.body) lower_stmt_scalar(std::get<Stmt>(n));
      bump_pointers(ic, 1);
      asm_.addi(v, v, 1);
      asm_.blt(v, b, ltop);
      asm_.bind(lend);
    }
    const std::uint32_t range_end = asm_.pc();
    inner_ranges_.emplace_back(range_begin, range_end);

    inner_ = nullptr;
    if (zero_vec_valid_) {
      fp_pool_.release(zero_vec_);
      zero_vec_valid_ = false;
    }
    for (const auto& [vid, reg] : var_vec_regs_) fp_pool_.release(reg);
    var_vec_regs_.clear();
    release_inner(ic);
    int_pool_.release(b);
    int_pool_.release(v);
    loop_reg_.erase(lp.var);
  }

  // ------------------------------------------------------------- provenance --
  /// Record the array id of the load/store about to be emitted (text index =
  /// current pc slot). Distinct arrays and the constant pool are disjoint
  /// memory objects, which is what the dead-glue pass's alias rules consume.
  void note_mem(int array) {
    mem_notes_.emplace_back((asm_.pc() - text_base_) / 4, array);
  }
  [[nodiscard]] int const_region_id() const {
    return static_cast<int>(k_.arrays.size());
  }

  // ------------------------------------------------------------------ state --
  const Kernel& k_;
  CodegenMode mode_;
  OptConfig opt_;
  /// Element offset of the unrolled body currently being emitted (folded
  /// into streaming load/store displacements by stream_addr).
  int unroll_off_ = 0;
  std::vector<std::pair<std::uint32_t, int>> mem_notes_;
  Assembler asm_;
  /// The assembler's text base (its pc before anything is emitted), so
  /// provenance indices stay correct under any base address.
  std::uint32_t text_base_ = asm_.pc();
  Pool int_pool_;
  Pool fp_pool_;
  std::vector<std::uint8_t> base_reg_;  // per array
  std::vector<std::uint8_t> var_reg_;   // per scalar var
  std::map<int, std::uint8_t> loop_reg_;
  std::vector<ConstKey> const_keys_;
  std::vector<std::uint8_t> const_regs_;
  std::unordered_map<std::string, std::uint32_t> array_addr_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> inner_ranges_;
};

}  // namespace

namespace {

std::size_t image_bytes(const ArrayDecl& arr) {
  return static_cast<std::size_t>(arr.elems()) *
         static_cast<std::size_t>(width_bytes(arr.type));
}

/// Attribute a pre-DGE verifier failure to the emission stage that
/// introduced it: re-lower at reduced configurations (no unroll, no
/// strength reduction — both are fused into emission, so they are not
/// separately observable on the green path) and name the first stage whose
/// addition makes the diagnostics appear. Runs only on the error path.
[[noreturn]] void attribute_and_throw(const Kernel& kernel, CodegenMode mode,
                                      const ArrayImages& images,
                                      const OptConfig& opt,
                                      std::vector<verify::Diag> diags) {
  const Verifier v;
  const auto clean_under = [&](const OptConfig& reduced) {
    try {
      Lowerer lw(kernel, mode, reduced);
      return v.check(lw.run(images)).empty();
    } catch (const std::exception&) {
      return false;  // cannot re-lower: no attribution possible
    }
  };
  OptConfig base = opt;
  base.unroll_factor = 1;
  base.ptr_strength_reduction = false;
  base.dead_glue_elim = false;
  std::string pass = "lower";
  if (clean_under(base)) {
    OptConfig with_unroll = base;
    with_unroll.unroll_factor = opt.unroll_factor;
    pass = opt.unroll_factor > 1 && !clean_under(with_unroll)
               ? "unroll"
               : "strength-reduction";
  }
  throw verify::VerifyError(pass, std::move(diags));
}

}  // namespace

std::vector<std::uint8_t> encode_array(const Kernel& kernel, std::size_t ai,
                                       const std::vector<double>& init) {
  const auto& arr = kernel.arrays.at(ai);
  const auto elems = static_cast<std::size_t>(arr.elems());
  const auto esize = static_cast<std::size_t>(width_bytes(arr.type));
  std::vector<std::uint8_t> bytes(image_bytes(arr), 0);
  if (init.empty()) return bytes;
  if (init.size() != elems) {
    throw std::invalid_argument(
        "kernel " + kernel.name + ": init for array " + arr.name + " has " +
        std::to_string(init.size()) + " values, the array has " +
        std::to_string(elems) + " elements");
  }
  const fp::FpFormat format = fp_format(arr.type);
  fp::Flags fl;
  for (std::size_t e = 0; e < elems; ++e) {
    const std::uint64_t bits =
        fp::rt_from_double(format, init[e], fp::RoundingMode::RNE, fl);
    for (std::size_t b = 0; b < esize; ++b) {
      bytes[e * esize + b] = static_cast<std::uint8_t>(bits >> (8 * b));
    }
  }
  return bytes;
}

ArrayImages encode_init(const Kernel& kernel,
                        const std::vector<std::vector<double>>& array_init) {
  ArrayImages images(kernel.arrays.size());
  for (std::size_t ai = 0; ai < kernel.arrays.size(); ++ai) {
    images[ai] = ai < array_init.size()
                     ? encode_array(kernel, ai, array_init[ai])
                     : encode_array(kernel, ai, {});
  }
  return images;
}

LoweredKernel lower_encoded(const Kernel& kernel, CodegenMode mode,
                            const ArrayImages& images, const OptConfig& opt) {
  validate(opt);
  bool sized = images.size() == kernel.arrays.size();
  for (std::size_t ai = 0; sized && ai < images.size(); ++ai) {
    sized = images[ai].size() == image_bytes(kernel.arrays[ai]);
  }
  if (!sized) {
    throw std::invalid_argument("kernel " + kernel.name +
                                ": array images do not match its arrays");
  }
  Lowerer lw(kernel, mode, opt);
  LoweredKernel out = lw.run(images);
  if (verify::enabled()) {
    auto diags = Verifier().check(out);
    if (!diags.empty()) {
      attribute_and_throw(kernel, mode, images, opt, std::move(diags));
    }
  }
  if (opt.dead_glue_elim) {
    out.glue = dead_glue_elim(out.program, out.inner_ranges, &out.mem_array,
                              /*regs_dead_at_exit=*/true);
    if (verify::enabled()) verify_or_throw(out, "dead-glue-elim");
  }
  return out;
}

LoweredKernel lower(const Kernel& kernel, CodegenMode mode,
                    const std::vector<std::vector<double>>& array_init,
                    const OptConfig& opt) {
  return lower_encoded(kernel, mode, encode_init(kernel, array_init), opt);
}

}  // namespace sfrv::ir
