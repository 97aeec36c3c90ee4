#include "sim/core.hpp"

#include <stdexcept>
#include <utility>

#include "sim/verify.hpp"
#include "softfloat/runtime.hpp"
#include "util/verify.hpp"

namespace sfrv::sim {

using fp::Flags;
using fp::FpFormat;
using fp::RoundingMode;
using isa::Cls;
using isa::Inst;
using isa::Op;

namespace {

constexpr int fmt_width(FpFormat f) { return fp::format_width(f); }

/// Saturating conversion of one FP lane to a signed integer of `w` bits.
std::uint64_t lane_to_int(FpFormat fmt, std::uint64_t bits, int w,
                          RoundingMode rm, Flags& fl) {
  const std::int32_t v = fp::rt_to_int32(fmt, bits, rm, fl);
  const std::int32_t hi = static_cast<std::int32_t>(width_mask(w - 1));
  const std::int32_t lo = -hi - 1;
  std::int32_t r = v;
  if (v > hi) {
    r = hi;
    fl.raise(Flags::NV);
  } else if (v < lo) {
    r = lo;
    fl.raise(Flags::NV);
  }
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) & width_mask(w);
}

/// Sign-extend a `w`-bit lane and convert to FP.
std::uint64_t lane_from_int(FpFormat fmt, std::uint64_t bits, int w,
                            RoundingMode rm, Flags& fl) {
  std::int64_t v = static_cast<std::int64_t>(bits & width_mask(w));
  if (v & (std::int64_t{1} << (w - 1))) v -= (std::int64_t{1} << w);
  return fp::rt_from_int32(fmt, static_cast<std::int32_t>(v), rm, fl);
}

/// Exact widening of a smallFloat value to binary32 (for Xfaux expanding ops).
std::uint64_t widen_to_f32(FpFormat from, std::uint64_t bits, Flags& fl) {
  return fp::rt_convert(FpFormat::F32, from, bits, RoundingMode::RNE, fl);
}

}  // namespace

std::string_view engine_name(Engine e) {
  for (const EngineEntry& k : kEngines) {
    if (k.engine == e) return k.name;
  }
  return "unknown";
}

std::string engine_names() {
  std::string out;
  for (const EngineEntry& k : kEngines) {
    if (!out.empty()) out += '|';
    out += k.name;
  }
  return out;
}

Engine engine_from_name(std::string_view name) {
  for (const EngineEntry& k : kEngines) {
    if (name == k.name) return k.engine;
  }
  throw std::runtime_error("unknown engine name: " + std::string(name));
}

Core::Core(isa::IsaConfig cfg, MemConfig mem_cfg, Timing timing)
    : detail::CoreState{cfg, Memory(mem_cfg), timing} {
  ctx_.flen_mask = width_mask(cfg.flen);
  rebind_context();
}

void Core::set_backend(fp::MathBackend b) {
  if (b == backend_) return;
  backend_ = b;
  if (decoded_.empty()) return;
  // Re-bind the micro-op entry points from the newly selected table family.
  // Compiled traces are ranges of the old program, so the JIT cache is
  // invalidated wholesale.
  uops_ = decode_program(decoded_, text_base_, cfg_, timing_, mem_.config(),
                         backend_);
  jit_.on_code_change(decoded_.size());
}

void Core::load_program(const asmb::Program& prog) {
  if (!prog.text_words.empty()) {
    mem_.write_block(prog.text_base, prog.text_words.data(),
                     prog.text_words.size() * 4);
  }
  if (!prog.data.empty()) {
    mem_.write_block(prog.data_base, prog.data.data(), prog.data.size());
  }
  decoded_ = prog.text;
  text_base_ = prog.text_base;
  uops_ = decode_program(decoded_, text_base_, cfg_, timing_, mem_.config(),
                         backend_);
  // New text drops every compiled trace.
  jit_.on_code_change(decoded_.size());
  ctx_.pc = prog.entry();
  ctx_.x[2] = asmb::kDefaultStackTop;  // sp
  ctx_.halted = false;
  // VL reset: all lanes of the narrowest packed format active, so programs
  // that never execute SETVL behave exactly as before the VL seam existed.
  ctx_.vl = static_cast<std::uint32_t>(cfg_.flen / 8);
  stats_.pc_cycles.assign(decoded_.size(), 0);
}

Core::RunResult Core::run(std::uint64_t max_steps) {
  if (engine_ == Engine::Jit) return run_jit(max_steps);
  for (std::uint64_t n = 0; n < max_steps; ++n) {
    if (ctx_.halted) return RunResult::Halted;
    step();
  }
  return ctx_.halted ? RunResult::Halted : RunResult::MaxStepsReached;
}

std::uint32_t Core::fetch_index(std::uint32_t pc) const {
  const std::uint32_t idx = (pc - text_base_) / 4;
  if (pc < text_base_ || idx >= decoded_.size() || (pc & 3) != 0) {
    throw SimError("instruction fetch outside text segment", pc);
  }
  return idx;
}

void Core::step() {
  if (ctx_.halted) return;
  const std::uint32_t idx = fetch_index(ctx_.pc);
  if (engine_ == Engine::Reference) {
    step_reference(idx);
    return;
  }
  run_cold(idx, 1);
}

void Core::account(const DecodedOp& u, std::uint32_t idx) {
  int cyc = u.cycles;
  switch (u.tclass) {
    case TimingClass::Load: ++stats_.load_count; break;
    case TimingClass::Store: ++stats_.store_count; break;
    case TimingClass::Branch:
      if (ctx_.branch_taken) cyc += timing_.branch_taken_penalty;
      break;
    case TimingClass::Jump:
    case TimingClass::None: break;
  }
  stats_.cycles += static_cast<std::uint64_t>(cyc);
  ++stats_.instructions;
  ++stats_.op_count[static_cast<std::size_t>(u.op)];
  stats_.pc_cycles[idx] += static_cast<std::uint64_t>(cyc);
}

// ---- trace-compilation engine (Engine::Jit) ---------------------------------

Core::RunResult Core::run_jit(std::uint64_t max_steps) {
  // Every block entry: look up the trace at pc, compile it on a miss, run
  // it. A trace books its aggregates as it exits, so stats_ is exact
  // between iterations (a CSR op on the cold tier reads it).
  std::uint64_t remaining = max_steps;
  while (remaining > 0 && !ctx_.halted) {
    const std::uint32_t idx = fetch_index(ctx_.pc);
    jit::Trace* t = jit_.lookup(idx);
    if (t == nullptr) {
      t = jit_.translate(idx, uops_, timing_, text_base_);
      if (t != nullptr && verify::enabled()) {
        verify_trace_or_throw(*t, uops_, timing_, mem_.config(), text_base_);
      }
    }
    if (t == nullptr || remaining < t->n) {
      // A stop-class op retires alone; a budget that ends inside the trace
      // retires its straight-line prefix.
      const std::uint64_t count = t == nullptr ? 1 : remaining;
      jit_.note_interp();
      run_cold(idx, count);
      remaining -= count;
      continue;
    }
    const std::uint64_t runs =
        jit::run_trace_full(*t, uops_, ctx_, stats_, remaining / t->n);
    jit_.note_runs(runs);
    remaining -= runs * t->n;
  }
  return ctx_.halted ? RunResult::Halted : RunResult::MaxStepsReached;
}

void Core::run_cold(std::uint32_t idx, std::uint64_t count) {
  // A faulting handler throws before account(), leaving pc on the faulting
  // instruction with every earlier one booked.
  for (; count != 0; --count, ++idx) {
    const DecodedOp& u = uops_[idx];
    ctx_.branch_taken = false;
    u.fn(ctx_, u);
    account(u, idx);
  }
}

// ---- reference interpreter --------------------------------------------------
// The pre-refactor execute path, kept as the oracle for the A/B equivalence
// suite and as the dispatch bench baseline. It re-resolves the op class, the
// per-op case, and the per-lane format on every executed instruction.

void Core::step_reference(std::uint32_t idx) {
  const Inst& i = decoded_[idx];
  if (!cfg_.supports(i.op)) {
    throw SimError(std::string("unsupported instruction: ") +
                       std::string(isa::mnemonic(i.op)),
                   ctx_.pc);
  }
  ctx_.branch_taken = false;
  execute(i);

  // Timing accumulation (see timing.hpp / memory.hpp for the model).
  int cyc = timing_.base_cycles(i.op);
  switch (isa::op_class(i.op)) {
    case Cls::Load:
    case Cls::FpLoad:
      cyc += mem_.config().load_latency - 1;
      ++stats_.load_count;
      break;
    case Cls::Store:
    case Cls::FpStore:
      cyc += mem_.config().store_latency - 1;
      ++stats_.store_count;
      break;
    case Cls::Jump:
      cyc += timing_.jump_penalty;
      break;
    case Cls::Branch:
      if (ctx_.branch_taken) cyc += timing_.branch_taken_penalty;
      break;
    default:
      break;
  }
  stats_.cycles += static_cast<std::uint64_t>(cyc);
  ++stats_.instructions;
  ++stats_.op_count[static_cast<std::size_t>(i.op)];
  if (idx < stats_.pc_cycles.size()) {
    stats_.pc_cycles[idx] += static_cast<std::uint64_t>(cyc);
  }
}

void Core::execute(const Inst& i) {
  switch (isa::op_class(i.op)) {
    case Cls::IntAlu:
    case Cls::IntMul:
    case Cls::IntDiv:
    case Cls::Load:
    case Cls::Store:
    case Cls::Branch:
    case Cls::Jump:
    case Cls::Sys:
    case Cls::FpLoad:
    case Cls::FpStore:
      exec_int(i);
      return;
    case Cls::Csr:
      exec_csr(i);
      return;
    default:
      break;
  }
  if (isa::is_vector(i.op)) {
    exec_fp_vector(i);
  } else {
    exec_fp_scalar(i);
  }
  ctx_.pc += 4;
}

void Core::exec_int(const Inst& i) {
  const std::uint32_t rs1 = ctx_.x[i.rs1];
  const std::uint32_t rs2 = ctx_.x[i.rs2];
  const auto imm = static_cast<std::uint32_t>(i.imm);
  std::uint32_t next_pc = ctx_.pc + 4;
  auto wr = [this](unsigned rd, std::uint32_t v) {
    if (rd != 0) ctx_.x[rd] = v;
  };

  switch (i.op) {
    case Op::LUI: wr(i.rd, imm); break;
    case Op::AUIPC: wr(i.rd, ctx_.pc + imm); break;
    case Op::JAL:
      wr(i.rd, ctx_.pc + 4);
      next_pc = ctx_.pc + imm;
      break;
    case Op::JALR:
      wr(i.rd, ctx_.pc + 4);
      next_pc = (rs1 + imm) & ~1u;
      break;
    case Op::BEQ: if (rs1 == rs2) { next_pc = ctx_.pc + imm; ctx_.branch_taken = true; } break;
    case Op::BNE: if (rs1 != rs2) { next_pc = ctx_.pc + imm; ctx_.branch_taken = true; } break;
    case Op::BLT:
      if (static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2)) {
        next_pc = ctx_.pc + imm;
        ctx_.branch_taken = true;
      }
      break;
    case Op::BGE:
      if (static_cast<std::int32_t>(rs1) >= static_cast<std::int32_t>(rs2)) {
        next_pc = ctx_.pc + imm;
        ctx_.branch_taken = true;
      }
      break;
    case Op::BLTU: if (rs1 < rs2) { next_pc = ctx_.pc + imm; ctx_.branch_taken = true; } break;
    case Op::BGEU: if (rs1 >= rs2) { next_pc = ctx_.pc + imm; ctx_.branch_taken = true; } break;

    case Op::LB:
      wr(i.rd, static_cast<std::uint32_t>(
                   static_cast<std::int32_t>(static_cast<std::int8_t>(
                       mem_.load8(rs1 + imm)))));
      break;
    case Op::LH:
      wr(i.rd, static_cast<std::uint32_t>(
                   static_cast<std::int32_t>(static_cast<std::int16_t>(
                       mem_.load16(rs1 + imm)))));
      break;
    case Op::LW: wr(i.rd, mem_.load32(rs1 + imm)); break;
    case Op::LBU: wr(i.rd, mem_.load8(rs1 + imm)); break;
    case Op::LHU: wr(i.rd, mem_.load16(rs1 + imm)); break;
    case Op::SB: mem_.store8(rs1 + imm, static_cast<std::uint8_t>(rs2)); break;
    case Op::SH: mem_.store16(rs1 + imm, static_cast<std::uint16_t>(rs2)); break;
    case Op::SW: mem_.store32(rs1 + imm, rs2); break;

    case Op::ADDI: wr(i.rd, rs1 + imm); break;
    case Op::SLTI:
      wr(i.rd, static_cast<std::int32_t>(rs1) < i.imm ? 1 : 0);
      break;
    case Op::SLTIU: wr(i.rd, rs1 < imm ? 1 : 0); break;
    case Op::XORI: wr(i.rd, rs1 ^ imm); break;
    case Op::ORI: wr(i.rd, rs1 | imm); break;
    case Op::ANDI: wr(i.rd, rs1 & imm); break;
    case Op::SLLI: wr(i.rd, rs1 << (imm & 31)); break;
    case Op::SRLI: wr(i.rd, rs1 >> (imm & 31)); break;
    case Op::SRAI:
      wr(i.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >>
                                          (imm & 31)));
      break;
    case Op::ADD: wr(i.rd, rs1 + rs2); break;
    case Op::SUB: wr(i.rd, rs1 - rs2); break;
    case Op::SLL: wr(i.rd, rs1 << (rs2 & 31)); break;
    case Op::SLT:
      wr(i.rd,
         static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2) ? 1 : 0);
      break;
    case Op::SLTU: wr(i.rd, rs1 < rs2 ? 1 : 0); break;
    case Op::XOR: wr(i.rd, rs1 ^ rs2); break;
    case Op::SRL: wr(i.rd, rs1 >> (rs2 & 31)); break;
    case Op::SRA:
      wr(i.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >>
                                          (rs2 & 31)));
      break;
    case Op::OR: wr(i.rd, rs1 | rs2); break;
    case Op::AND: wr(i.rd, rs1 & rs2); break;

    case Op::MUL: wr(i.rd, rs1 * rs2); break;
    case Op::MULH:
      wr(i.rd, static_cast<std::uint32_t>(
                   (static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) *
                    static_cast<std::int64_t>(static_cast<std::int32_t>(rs2))) >>
                   32));
      break;
    case Op::MULHSU:
      wr(i.rd, static_cast<std::uint32_t>(
                   (static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) *
                    static_cast<std::int64_t>(rs2)) >>
                   32));
      break;
    case Op::MULHU:
      wr(i.rd, static_cast<std::uint32_t>(
                   (static_cast<std::uint64_t>(rs1) * rs2) >> 32));
      break;
    case Op::DIV: {
      const auto a = static_cast<std::int32_t>(rs1);
      const auto b = static_cast<std::int32_t>(rs2);
      std::int32_t q = -1;
      if (b == 0) {
        q = -1;
      } else if (a == INT32_MIN && b == -1) {
        q = INT32_MIN;
      } else {
        q = a / b;
      }
      wr(i.rd, static_cast<std::uint32_t>(q));
      break;
    }
    case Op::DIVU: wr(i.rd, rs2 == 0 ? ~0u : rs1 / rs2); break;
    case Op::REM: {
      const auto a = static_cast<std::int32_t>(rs1);
      const auto b = static_cast<std::int32_t>(rs2);
      std::int32_t r = a;
      if (b == 0) {
        r = a;
      } else if (a == INT32_MIN && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      wr(i.rd, static_cast<std::uint32_t>(r));
      break;
    }
    case Op::REMU: wr(i.rd, rs2 == 0 ? rs1 : rs1 % rs2); break;

    case Op::FENCE: break;
    case Op::ECALL:
    case Op::EBREAK:
      ctx_.halted = true;
      break;

    // VL-governed vector loads/stores: move min(vl, lanes) packed elements,
    // lowest lane first; the register tail is undisturbed. The destination is
    // written only after every element load succeeded, so a mid-vector fault
    // leaves rd unchanged (stores are element-ordered; a fault makes the
    // lower elements visible, like any partially-completed store sequence).
    case Op::VFLH:
    case Op::VFLB: {
      const int w = i.op == Op::VFLH ? 16 : 8;
      const int active = ctx_.vl_active(cfg_.flen / w);
      std::uint64_t out = ctx_.f[i.rd];
      for (int l = 0; l < active; ++l) {
        const std::uint64_t v = w == 16
                                    ? mem_.load16(rs1 + imm + 2 * l)
                                    : mem_.load8(rs1 + imm + l);
        out = set_lane(out, l, w, v);
      }
      ctx_.f[i.rd] = out & ctx_.flen_mask;
      break;
    }
    case Op::VFSH:
    case Op::VFSB: {
      const int w = i.op == Op::VFSH ? 16 : 8;
      const int active = ctx_.vl_active(cfg_.flen / w);
      const std::uint64_t v = ctx_.f[i.rs2];
      for (int l = 0; l < active; ++l) {
        if (w == 16) {
          mem_.store16(rs1 + imm + 2 * l,
                       static_cast<std::uint16_t>(get_lane(v, l, 16)));
        } else {
          mem_.store8(rs1 + imm + l,
                      static_cast<std::uint8_t>(get_lane(v, l, 8)));
        }
      }
      break;
    }

    case Op::FLW: write_fp(i.rd, 32, mem_.load32(rs1 + imm)); break;
    case Op::FLH: write_fp(i.rd, 16, mem_.load16(rs1 + imm)); break;
    case Op::FLB: write_fp(i.rd, 8, mem_.load8(rs1 + imm)); break;
    case Op::FSW:
      mem_.store32(rs1 + imm, static_cast<std::uint32_t>(read_fp(i.rs2, 32)));
      break;
    case Op::FSH:
      mem_.store16(rs1 + imm, static_cast<std::uint16_t>(read_fp(i.rs2, 16)));
      break;
    case Op::FSB:
      mem_.store8(rs1 + imm, static_cast<std::uint8_t>(read_fp(i.rs2, 8)));
      break;

    default:
      throw SimError("unhandled integer-path op", ctx_.pc);
  }
  ctx_.pc = next_pc;
}

void Core::exec_csr(const Inst& i) {
  if (i.op == Op::SETVL) {
    // rd = vl = min(AVL in rs1, VLMAX for imm[2:0] = log2(element bytes),
    // optional cap in imm[8:3]); no x0 special case, AVL 0 grants vl 0.
    const std::uint32_t avl = ctx_.x[i.rs1];
    const auto ew = static_cast<std::uint32_t>(i.imm) & 7u;
    const std::uint32_t cap = (static_cast<std::uint32_t>(i.imm) >> 3) & 63u;
    const std::uint32_t vlmax = static_cast<std::uint32_t>(cfg_.flen / 8) >> ew;
    std::uint32_t vl = avl < vlmax ? avl : vlmax;
    if (cap != 0 && vl > cap) vl = cap;
    ctx_.vl = vl;
    if (i.rd != 0) ctx_.x[i.rd] = vl;
    ctx_.pc += 4;
    return;
  }
  const std::uint32_t old = csr_read(i.imm);
  const bool is_imm =
      (i.op == Op::CSRRWI || i.op == Op::CSRRSI || i.op == Op::CSRRCI);
  const std::uint32_t src = is_imm ? i.rs1 : ctx_.x[i.rs1];
  switch (i.op) {
    case Op::CSRRW:
    case Op::CSRRWI:
      csr_write(i.imm, src);
      break;
    case Op::CSRRS:
    case Op::CSRRSI:
      if (i.rs1 != 0) csr_write(i.imm, old | src);
      break;
    case Op::CSRRC:
    case Op::CSRRCI:
      if (i.rs1 != 0) csr_write(i.imm, old & ~src);
      break;
    default:
      throw SimError("unhandled csr op", ctx_.pc);
  }
  if (i.rd != 0) ctx_.x[i.rd] = old;
  ctx_.pc += 4;
}

std::uint32_t Core::csr_read(std::int32_t addr) const {
  switch (addr) {
    case 0x001: return ctx_.fflags;
    case 0x002: return ctx_.frm;
    case 0x003: return static_cast<std::uint32_t>(ctx_.frm) << 5 | ctx_.fflags;
    case 0xc00: return static_cast<std::uint32_t>(stats_.cycles);
    case 0xc02: return static_cast<std::uint32_t>(stats_.instructions);
    case 0xc20: return ctx_.vl;  // read-only; SETVL is the sole writer
    case 0xc80: return static_cast<std::uint32_t>(stats_.cycles >> 32);
    case 0xc82: return static_cast<std::uint32_t>(stats_.instructions >> 32);
    default:
      throw SimError("read of unimplemented CSR", ctx_.pc);
  }
}

void Core::csr_write(std::int32_t addr, std::uint32_t v) {
  switch (addr) {
    case 0x001: ctx_.fflags = v & 0x1f; break;
    case 0x002: ctx_.frm = v & 0x7; break;
    case 0x003:
      ctx_.fflags = v & 0x1f;
      ctx_.frm = (v >> 5) & 0x7;
      break;
    case 0xc00:
    case 0xc02:
    case 0xc80:
    case 0xc82:
      break;  // counters: writes ignored
    default:
      throw SimError("write of unimplemented CSR", ctx_.pc);
  }
}

// ---- scalar FP --------------------------------------------------------------

// Case label helper covering all four IEEE scalar formats of an op family
// plus the two posit widths (the rt_* dispatch handles the posit semantics).
#define SFRV_CASE4(NAME) \
  case Op::NAME##_S:     \
  case Op::NAME##_AH:    \
  case Op::NAME##_H:     \
  case Op::NAME##_B:     \
  case Op::NAME##_P8:    \
  case Op::NAME##_P16:

void Core::exec_fp_scalar(const Inst& i) {
  const FpFormat fmt = isa::to_fp_format(isa::op_format(i.op));
  const int w = fmt_width(fmt);
  const RoundingMode rm = resolve_rm(i.rm);
  Flags fl;

  const std::uint64_t a = read_fp(i.rs1, w);
  const std::uint64_t b = read_fp(i.rs2, w);

  switch (i.op) {
    SFRV_CASE4(FADD)
    write_fp(i.rd, w, fp::rt_add(fmt, a, b, rm, fl));
    break;
    SFRV_CASE4(FSUB)
    write_fp(i.rd, w, fp::rt_sub(fmt, a, b, rm, fl));
    break;
    SFRV_CASE4(FMUL)
    write_fp(i.rd, w, fp::rt_mul(fmt, a, b, rm, fl));
    break;
    SFRV_CASE4(FDIV)
    write_fp(i.rd, w, fp::rt_div(fmt, a, b, rm, fl));
    break;
    SFRV_CASE4(FSQRT)
    write_fp(i.rd, w, fp::rt_sqrt(fmt, a, rm, fl));
    break;
    SFRV_CASE4(FSGNJ)
    write_fp(i.rd, w, fp::rt_sgnj(fmt, a, b));
    break;
    SFRV_CASE4(FSGNJN)
    write_fp(i.rd, w, fp::rt_sgnjn(fmt, a, b));
    break;
    SFRV_CASE4(FSGNJX)
    write_fp(i.rd, w, fp::rt_sgnjx(fmt, a, b));
    break;
    SFRV_CASE4(FMIN)
    write_fp(i.rd, w, fp::rt_min(fmt, a, b, fl));
    break;
    SFRV_CASE4(FMAX)
    write_fp(i.rd, w, fp::rt_max(fmt, a, b, fl));
    break;
    SFRV_CASE4(FEQ)
    set_x(i.rd, fp::rt_feq(fmt, a, b, fl) ? 1 : 0);
    break;
    SFRV_CASE4(FLT)
    set_x(i.rd, fp::rt_flt(fmt, a, b, fl) ? 1 : 0);
    break;
    SFRV_CASE4(FLE)
    set_x(i.rd, fp::rt_fle(fmt, a, b, fl) ? 1 : 0);
    break;
    SFRV_CASE4(FCLASS)
    set_x(i.rd, fp::rt_classify(fmt, a));
    break;
    SFRV_CASE4(FCVT_W)
    set_x(i.rd, static_cast<std::uint32_t>(fp::rt_to_int32(fmt, a, rm, fl)));
    break;
    SFRV_CASE4(FCVT_WU)
    set_x(i.rd, fp::rt_to_uint32(fmt, a, rm, fl));
    break;

    case Op::FCVT_S_W:
    case Op::FCVT_AH_W:
    case Op::FCVT_H_W:
    case Op::FCVT_B_W:
    case Op::FCVT_P8_W:
    case Op::FCVT_P16_W:
      write_fp(i.rd, w,
               fp::rt_from_int32(fmt, static_cast<std::int32_t>(ctx_.x[i.rs1]),
                                 rm, fl));
      break;
    case Op::FCVT_S_WU:
    case Op::FCVT_AH_WU:
    case Op::FCVT_H_WU:
    case Op::FCVT_B_WU:
    case Op::FCVT_P8_WU:
    case Op::FCVT_P16_WU:
      write_fp(i.rd, w, fp::rt_from_uint32(fmt, ctx_.x[i.rs1], rm, fl));
      break;

    SFRV_CASE4(FMV_X) {
      // Sign-extend the raw bits to XLEN (RISC-V FMV.X.H convention).
      std::uint32_t v = static_cast<std::uint32_t>(a);
      if (w < 32 && (v & (1u << (w - 1)))) v |= ~width_mask(w);
      set_x(i.rd, v);
      break;
    }
    case Op::FMV_S_X:
    case Op::FMV_AH_X:
    case Op::FMV_H_X:
    case Op::FMV_B_X:
    case Op::FMV_P8_X:
    case Op::FMV_P16_X:
      write_fp(i.rd, w, ctx_.x[i.rs1] & width_mask(w));
      break;

    SFRV_CASE4(FMADD)
    write_fp(i.rd, w, fp::rt_fma(fmt, a, b, read_fp(i.rs3, w), rm, fl));
    break;
    SFRV_CASE4(FMSUB)
    write_fp(i.rd, w,
             fp::rt_fma(fmt, a, b, fp::rt_sgnjn(fmt, read_fp(i.rs3, w), read_fp(i.rs3, w)),
                        rm, fl));
    break;
    SFRV_CASE4(FNMSUB)
    write_fp(i.rd, w, fp::rt_fma(fmt, fp::rt_sgnjn(fmt, a, a), b, read_fp(i.rs3, w), rm, fl));
    break;
    SFRV_CASE4(FNMADD)
    write_fp(i.rd, w,
             fp::rt_fma(fmt, fp::rt_sgnjn(fmt, a, a), b,
                        fp::rt_sgnjn(fmt, read_fp(i.rs3, w), read_fp(i.rs3, w)), rm, fl));
    break;

    // Expanding operations (Xfaux): smallFloat operands, binary32 result.
    case Op::FMULEX_S_AH:
    case Op::FMULEX_S_H:
    case Op::FMULEX_S_B: {
      const std::uint64_t wa = widen_to_f32(fmt, a, fl);
      const std::uint64_t wb = widen_to_f32(fmt, b, fl);
      write_fp(i.rd, 32, fp::rt_mul(FpFormat::F32, wa, wb, rm, fl));
      break;
    }
    case Op::FMACEX_S_AH:
    case Op::FMACEX_S_H:
    case Op::FMACEX_S_B: {
      const std::uint64_t wa = widen_to_f32(fmt, a, fl);
      const std::uint64_t wb = widen_to_f32(fmt, b, fl);
      const std::uint64_t acc = read_fp(i.rd, 32);
      write_fp(i.rd, 32, fp::rt_fma(FpFormat::F32, wa, wb, acc, rm, fl));
      break;
    }

    // FP <-> FP conversions.
    case Op::FCVT_S_AH:
      write_fp(i.rd, 32, fp::rt_convert(FpFormat::F32, FpFormat::F16Alt,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_S_H:
      write_fp(i.rd, 32, fp::rt_convert(FpFormat::F32, FpFormat::F16,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_S_B:
      write_fp(i.rd, 32, fp::rt_convert(FpFormat::F32, FpFormat::F8,
                                        read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_AH_S:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16Alt, FpFormat::F32,
                                        read_fp(i.rs1, 32), rm, fl));
      break;
    case Op::FCVT_AH_H:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16Alt, FpFormat::F16,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_AH_B:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16Alt, FpFormat::F8,
                                        read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_H_S:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16, FpFormat::F32,
                                        read_fp(i.rs1, 32), rm, fl));
      break;
    case Op::FCVT_H_AH:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16, FpFormat::F16Alt,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_H_B:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16, FpFormat::F8,
                                        read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_B_S:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::F8, FpFormat::F32,
                                       read_fp(i.rs1, 32), rm, fl));
      break;
    case Op::FCVT_B_AH:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::F8, FpFormat::F16Alt,
                                       read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_B_H:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::F8, FpFormat::F16,
                                       read_fp(i.rs1, 16), rm, fl));
      break;

    // posit <-> IEEE conversions (and posit resize).
    case Op::FCVT_S_P8:
      write_fp(i.rd, 32, fp::rt_convert(FpFormat::F32, FpFormat::P8,
                                        read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_S_P16:
      write_fp(i.rd, 32, fp::rt_convert(FpFormat::F32, FpFormat::P16,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_AH_P8:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16Alt, FpFormat::P8,
                                        read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_AH_P16:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16Alt, FpFormat::P16,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_H_P8:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16, FpFormat::P8,
                                        read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_H_P16:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::F16, FpFormat::P16,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_B_P8:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::F8, FpFormat::P8,
                                       read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_B_P16:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::F8, FpFormat::P16,
                                       read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_P8_S:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::P8, FpFormat::F32,
                                       read_fp(i.rs1, 32), rm, fl));
      break;
    case Op::FCVT_P8_AH:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::P8, FpFormat::F16Alt,
                                       read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_P8_H:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::P8, FpFormat::F16,
                                       read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_P8_B:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::P8, FpFormat::F8,
                                       read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_P8_P16:
      write_fp(i.rd, 8, fp::rt_convert(FpFormat::P8, FpFormat::P16,
                                       read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_P16_S:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::P16, FpFormat::F32,
                                        read_fp(i.rs1, 32), rm, fl));
      break;
    case Op::FCVT_P16_AH:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::P16, FpFormat::F16Alt,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_P16_H:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::P16, FpFormat::F16,
                                        read_fp(i.rs1, 16), rm, fl));
      break;
    case Op::FCVT_P16_B:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::P16, FpFormat::F8,
                                        read_fp(i.rs1, 8), rm, fl));
      break;
    case Op::FCVT_P16_P8:
      write_fp(i.rd, 16, fp::rt_convert(FpFormat::P16, FpFormat::P8,
                                        read_fp(i.rs1, 8), rm, fl));
      break;

    default:
      throw SimError("unhandled scalar FP op", ctx_.pc);
  }
  ctx_.fflags |= fl.bits;
}

// ---- vectorial FP -----------------------------------------------------------

#define SFRV_VCASE3(NAME) \
  case Op::NAME##_H:      \
  case Op::NAME##_AH:     \
  case Op::NAME##_B:      \
  case Op::NAME##_P8:     \
  case Op::NAME##_P16:

void Core::exec_fp_vector(const Inst& i) {
  const FpFormat fmt = isa::to_fp_format(isa::op_format(i.op));
  const int w = fmt_width(fmt);
  const int lanes = isa::vector_lanes(fmt, cfg_.flen);
  // Dynamic VL: only the low `active` lanes compute; the register tail is
  // undisturbed (merged back from the old rd). Cast-and-pack ops are
  // VL-agnostic by contract (they address lanes explicitly); comparisons
  // zero the tail mask bits.
  const int active = ctx_.vl_active(lanes);
  const std::uint64_t keep = width_mask(active * w);
  const RoundingMode rm = resolve_rm(isa::kRmDyn);
  Flags fl;

  const std::uint64_t va = ctx_.f[i.rs1];
  const std::uint64_t vb = ctx_.f[i.rs2];
  std::uint64_t vd = ctx_.f[i.rd];

  auto merge = [&](std::uint64_t out) {
    return mask_flen((out & keep) | (vd & ~keep));
  };

  using BinFn = std::uint64_t (*)(FpFormat, std::uint64_t, std::uint64_t,
                                  RoundingMode, Flags&);
  auto lanewise = [&](BinFn fn, bool replicate) {
    std::uint64_t out = 0;
    const std::uint64_t b0 = get_lane(vb, 0, w);
    for (int l = 0; l < active; ++l) {
      const std::uint64_t bl = replicate ? b0 : get_lane(vb, l, w);
      out = set_lane(out, l, w, fn(fmt, get_lane(va, l, w), bl, rm, fl));
    }
    ctx_.f[i.rd] = merge(out);
  };
  using CmpFn = bool (*)(FpFormat, std::uint64_t, std::uint64_t, Flags&);
  auto cmpwise = [&](CmpFn fn) {
    std::uint32_t mask = 0;
    for (int l = 0; l < active; ++l) {
      if (fn(fmt, get_lane(va, l, w), get_lane(vb, l, w), fl)) {
        mask |= 1u << l;
      }
    }
    set_x(i.rd, mask);
  };
  auto macwise = [&](bool replicate) {
    std::uint64_t out = vd;
    const std::uint64_t b0 = get_lane(vb, 0, w);
    for (int l = 0; l < active; ++l) {
      const std::uint64_t bl = replicate ? b0 : get_lane(vb, l, w);
      out = set_lane(out, l, w,
                     fp::rt_fma(fmt, get_lane(va, l, w), bl,
                                get_lane(vd, l, w), rm, fl));
    }
    ctx_.f[i.rd] = merge(out);
  };
  auto no_round_min = [](FpFormat f, std::uint64_t a, std::uint64_t b,
                         RoundingMode, Flags& flg) {
    return fp::rt_min(f, a, b, flg);
  };
  auto no_round_max = [](FpFormat f, std::uint64_t a, std::uint64_t b,
                         RoundingMode, Flags& flg) {
    return fp::rt_max(f, a, b, flg);
  };

  switch (i.op) {
    SFRV_VCASE3(VFADD) lanewise(fp::rt_add, false); break;
    SFRV_VCASE3(VFADD_R) lanewise(fp::rt_add, true); break;
    SFRV_VCASE3(VFSUB) lanewise(fp::rt_sub, false); break;
    SFRV_VCASE3(VFSUB_R) lanewise(fp::rt_sub, true); break;
    SFRV_VCASE3(VFMUL) lanewise(fp::rt_mul, false); break;
    SFRV_VCASE3(VFMUL_R) lanewise(fp::rt_mul, true); break;
    SFRV_VCASE3(VFDIV) lanewise(fp::rt_div, false); break;
    SFRV_VCASE3(VFDIV_R) lanewise(fp::rt_div, true); break;
    SFRV_VCASE3(VFMIN) lanewise(no_round_min, false); break;
    SFRV_VCASE3(VFMIN_R) lanewise(no_round_min, true); break;
    SFRV_VCASE3(VFMAX) lanewise(no_round_max, false); break;
    SFRV_VCASE3(VFMAX_R) lanewise(no_round_max, true); break;
    SFRV_VCASE3(VFMAC) macwise(false); break;
    SFRV_VCASE3(VFMAC_R) macwise(true); break;

    SFRV_VCASE3(VFSGNJ) {
      std::uint64_t out = 0;
      for (int l = 0; l < active; ++l)
        out = set_lane(out, l, w,
                       fp::rt_sgnj(fmt, get_lane(va, l, w), get_lane(vb, l, w)));
      ctx_.f[i.rd] = merge(out);
      break;
    }
    SFRV_VCASE3(VFSGNJN) {
      std::uint64_t out = 0;
      for (int l = 0; l < active; ++l)
        out = set_lane(out, l, w,
                       fp::rt_sgnjn(fmt, get_lane(va, l, w), get_lane(vb, l, w)));
      ctx_.f[i.rd] = merge(out);
      break;
    }
    SFRV_VCASE3(VFSGNJX) {
      std::uint64_t out = 0;
      for (int l = 0; l < active; ++l)
        out = set_lane(out, l, w,
                       fp::rt_sgnjx(fmt, get_lane(va, l, w), get_lane(vb, l, w)));
      ctx_.f[i.rd] = merge(out);
      break;
    }

    SFRV_VCASE3(VFEQ) cmpwise(fp::rt_feq); break;
    SFRV_VCASE3(VFLT) cmpwise(fp::rt_flt); break;
    SFRV_VCASE3(VFLE) cmpwise(fp::rt_fle); break;

    SFRV_VCASE3(VFSQRT) {
      std::uint64_t out = 0;
      for (int l = 0; l < active; ++l)
        out = set_lane(out, l, w, fp::rt_sqrt(fmt, get_lane(va, l, w), rm, fl));
      ctx_.f[i.rd] = merge(out);
      break;
    }
    SFRV_VCASE3(VFCVT_X) {
      std::uint64_t out = 0;
      for (int l = 0; l < active; ++l)
        out = set_lane(out, l, w, lane_to_int(fmt, get_lane(va, l, w), w, rm, fl));
      ctx_.f[i.rd] = merge(out);
      break;
    }
    case Op::VFCVT_H_X:
    case Op::VFCVT_AH_X:
    case Op::VFCVT_B_X:
    case Op::VFCVT_P8_X:
    case Op::VFCVT_P16_X: {
      std::uint64_t out = 0;
      for (int l = 0; l < active; ++l)
        out = set_lane(out, l, w,
                       lane_from_int(fmt, get_lane(va, l, w), w, rm, fl));
      ctx_.f[i.rd] = merge(out);
      break;
    }
    case Op::VFCVT_H_AH: {
      std::uint64_t out = 0;
      for (int l = 0; l < active; ++l)
        out = set_lane(out, l, w,
                       fp::rt_convert(FpFormat::F16, FpFormat::F16Alt,
                                      get_lane(va, l, w), rm, fl));
      ctx_.f[i.rd] = merge(out);
      break;
    }
    case Op::VFCVT_AH_H: {
      std::uint64_t out = 0;
      for (int l = 0; l < active; ++l)
        out = set_lane(out, l, w,
                       fp::rt_convert(FpFormat::F16Alt, FpFormat::F16,
                                      get_lane(va, l, w), rm, fl));
      ctx_.f[i.rd] = merge(out);
      break;
    }

    // Cast-and-pack: convert two binary32 scalars into adjacent lanes
    // (paper Table I / Section III-B). vfcpka fills lanes 0-1, vfcpkb 2-3.
    case Op::VFCPKA_H_S:
    case Op::VFCPKA_AH_S:
    case Op::VFCPKA_B_S:
    case Op::VFCPKA_P8_S:
    case Op::VFCPKA_P16_S: {
      const std::uint64_t s1 = read_fp(i.rs1, 32);
      const std::uint64_t s2 = read_fp(i.rs2, 32);
      vd = set_lane(vd, 0, w, fp::rt_convert(fmt, FpFormat::F32, s1, rm, fl));
      vd = set_lane(vd, 1, w, fp::rt_convert(fmt, FpFormat::F32, s2, rm, fl));
      ctx_.f[i.rd] = mask_flen(vd);
      break;
    }
    case Op::VFCPKB_B_S: {
      const std::uint64_t s1 = read_fp(i.rs1, 32);
      const std::uint64_t s2 = read_fp(i.rs2, 32);
      vd = set_lane(vd, 2, w, fp::rt_convert(fmt, FpFormat::F32, s1, rm, fl));
      vd = set_lane(vd, 3, w, fp::rt_convert(fmt, FpFormat::F32, s2, rm, fl));
      ctx_.f[i.rd] = mask_flen(vd);
      break;
    }

    // Expanding dot product (Xfaux): rd(f32) += sum_l rs1[l] * rs2[l],
    // accumulated with fused f32 steps in lane order.
    SFRV_VCASE3(VFDOTPEX_S) {
      std::uint64_t acc = read_fp(i.rd, 32);
      for (int l = 0; l < active; ++l) {
        const std::uint64_t wa = widen_to_f32(fmt, get_lane(va, l, w), fl);
        const std::uint64_t wb = widen_to_f32(fmt, get_lane(vb, l, w), fl);
        acc = fp::rt_fma(FpFormat::F32, wa, wb, acc, rm, fl);
      }
      write_fp(i.rd, 32, acc);
      break;
    }
    SFRV_VCASE3(VFDOTPEX_S_R) {
      std::uint64_t acc = read_fp(i.rd, 32);
      const std::uint64_t wb = widen_to_f32(fmt, get_lane(vb, 0, w), fl);
      for (int l = 0; l < active; ++l) {
        const std::uint64_t wa = widen_to_f32(fmt, get_lane(va, l, w), fl);
        acc = fp::rt_fma(FpFormat::F32, wa, wb, acc, rm, fl);
      }
      write_fp(i.rd, 32, acc);
      break;
    }

    // Widening sum-of-dot-products (ExSdotp): rd is a full vector packed in
    // the one-step-wider format; wide lane wl accumulates narrow lanes 2*wl
    // and 2*wl+1 of rs1*rs2 with two chained fused steps in the wide format,
    // each operand widened exactly first (narrow lane order).
    case Op::VFEXSDOTP_H_B:
    case Op::VFEXSDOTP_S_H:
    case Op::VFEXSDOTP_S_AH:
    case Op::VFEXSDOTP_P16_P8:
    case Op::VFEXSDOTP_R_H_B:
    case Op::VFEXSDOTP_R_S_H:
    case Op::VFEXSDOTP_R_S_AH:
    case Op::VFEXSDOTP_R_P16_P8: {
      const bool rep =
          i.op == Op::VFEXSDOTP_R_H_B || i.op == Op::VFEXSDOTP_R_S_H ||
          i.op == Op::VFEXSDOTP_R_S_AH || i.op == Op::VFEXSDOTP_R_P16_P8;
      const FpFormat wide = fmt == FpFormat::F8   ? FpFormat::F16
                            : fmt == FpFormat::P8 ? FpFormat::P16
                                                  : FpFormat::F32;
      const int ww = 2 * w;
      std::uint64_t wb0 = 0;
      if (rep) {
        wb0 = fp::rt_convert(wide, fmt, get_lane(vb, 0, w), RoundingMode::RNE,
                             fl);
      }
      std::uint64_t out = 0;
      for (int wl = 0; 2 * wl < active; ++wl) {
        std::uint64_t accl = get_lane(vd, wl, ww);
        const int kn = active - 2 * wl < 2 ? active - 2 * wl : 2;
        for (int k = 0; k < kn; ++k) {
          const int l = 2 * wl + k;
          const std::uint64_t wa = fp::rt_convert(
              wide, fmt, get_lane(va, l, w), RoundingMode::RNE, fl);
          const std::uint64_t wbl =
              rep ? wb0
                  : fp::rt_convert(wide, fmt, get_lane(vb, l, w),
                                   RoundingMode::RNE, fl);
          accl = fp::rt_fma(wide, wa, wbl, accl, rm, fl);
        }
        out = set_lane(out, wl, ww, accl);
      }
      const std::uint64_t wkeep = width_mask((active + 1) / 2 * ww);
      ctx_.f[i.rd] = mask_flen((out & wkeep) | (vd & ~wkeep));
      break;
    }

    default:
      throw SimError("unhandled vector FP op", ctx_.pc);
  }
  ctx_.fflags |= fl.bits;
}

#undef SFRV_CASE4
#undef SFRV_VCASE3

}  // namespace sfrv::sim
