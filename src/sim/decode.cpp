// Micro-op handlers and the Inst -> DecodedOp lowering.
//
// Handlers are small free functions over ExecContext. They must replicate the
// reference interpreter in core.cpp bit-for-bit (architectural state, fflags,
// and the timing-relevant outcome bits); the randomized A/B equivalence suite
// in tests/sim/test_ab_equivalence.cpp enforces this. The straight-line
// tokens' handlers are generated from their one body each (bodies.hpp); the
// rest (terminators, CallUop and VMem ops, stop-class ops) are written out
// here, each the one definition of its op outside the reference.
#include "sim/decode.hpp"

#include <string>

#include "sim/bodies.hpp"

namespace sfrv::sim {

namespace {

using fp::Flags;
using fp::FpFormat;
using fp::RoundingMode;
using isa::Cls;
using isa::Inst;
using isa::Op;
using U32 = std::uint32_t;
using U64 = std::uint64_t;
using I32 = std::int32_t;

// ---- generated straight-line handlers ---------------------------------------
// One cold-tier handler per straight-line token: its body (bodies.hpp), then
// the pc bump. The threaded executor expands the same bodies (jit.cpp).

#define SFRV_H(name, body)                            \
  void h_##name(ExecContext& c, const DecodedOp& u) { \
    (void)u;                                          \
    body;                                             \
    c.pc += 4;                                        \
  }
SFRV_STRAIGHT_BODIES(SFRV_H, SFRV_H)
#undef SFRV_H

ExecFn straight_handler(TOp t) {
  switch (t) {
#define SFRV_H(name, body) \
  case TOp::name:          \
    return &h_##name;
    SFRV_STRAIGHT_BODIES(SFRV_H, SFRV_H)
#undef SFRV_H
    default:
      return nullptr;
  }
}

// ---- terminators ------------------------------------------------------------

void h_jal(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, c.pc + 4);
  c.pc += static_cast<U32>(u.imm);
}

void h_jalr(ExecContext& c, const DecodedOp& u) {
  const U32 target = (c.x[u.rs1] + static_cast<U32>(u.imm)) & ~1u;
  c.set_x(u.rd, c.pc + 4);
  c.pc = target;
}

template <Op B>
void h_branch(ExecContext& c, const DecodedOp& u) {
  if (branch_taken<B>(c.x[u.rs1], c.x[u.rs2])) {
    c.pc += static_cast<U32>(u.imm);
    c.branch_taken = true;
  } else {
    c.pc += 4;
  }
}

void h_halt(ExecContext& c, const DecodedOp&) {
  c.halted = true;
  c.pc += 4;
}

// ---- CSR --------------------------------------------------------------------

U32 csr_read(ExecContext& c, I32 addr) {
  switch (addr) {
    case 0x001: return c.fflags;
    case 0x002: return c.frm;
    case 0x003: return static_cast<U32>(c.frm) << 5 | c.fflags;
    case 0xc00: return static_cast<U32>(c.stats->cycles);
    case 0xc02: return static_cast<U32>(c.stats->instructions);
    case 0xc20: return c.vl;  // read-only; SETVL is the sole writer
    case 0xc80: return static_cast<U32>(c.stats->cycles >> 32);
    case 0xc82: return static_cast<U32>(c.stats->instructions >> 32);
    default:
      throw SimError("read of unimplemented CSR", c.pc);
  }
}

void csr_write(ExecContext& c, I32 addr, U32 v) {
  switch (addr) {
    case 0x001: c.fflags = v & 0x1f; break;
    case 0x002: c.frm = v & 0x7; break;
    case 0x003:
      c.fflags = v & 0x1f;
      c.frm = (v >> 5) & 0x7;
      break;
    case 0xc00:
    case 0xc02:
    case 0xc80:
    case 0xc82:
      break;  // counters: writes ignored
    default:
      throw SimError("write of unimplemented CSR", c.pc);
  }
}

enum class CsrKind { Rw, Rs, Rc };

template <CsrKind K, bool IsImm>
void h_csr(ExecContext& c, const DecodedOp& u) {
  const U32 old = csr_read(c, u.imm);
  const U32 src = IsImm ? u.rs1 : c.x[u.rs1];
  if constexpr (K == CsrKind::Rw) {
    csr_write(c, u.imm, src);
  } else if constexpr (K == CsrKind::Rs) {
    if (u.rs1 != 0) csr_write(c, u.imm, old | src);
  } else {
    if (u.rs1 != 0) csr_write(c, u.imm, old & ~src);
  }
  if (u.rd != 0) c.x[u.rd] = old;
  c.pc += 4;
}

// ---- scalar FP --------------------------------------------------------------

void h_fp_sqrt(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.write_fp(u.rd, u.width,
             u.fp1.un(c.read_fp(u.rs1, u.width), c.resolve_rm(u.rm), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

// fmsub, fnmsub and fnmadd (fmadd is the FpFma token's body): fp1 = fma,
// fp2 = sgnjn (for operand negation, matching the reference interpreter's
// rt_sgnjn-based formulation).
template <bool NegA, bool NegC>
void h_fp_fma(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.resolve_rm(u.rm);
  U64 a = c.read_fp(u.rs1, u.width);
  const U64 b = c.read_fp(u.rs2, u.width);
  U64 acc = c.read_fp(u.rs3, u.width);
  if constexpr (NegA) a = u.fp2.bin(a, a, rm, fl);
  if constexpr (NegC) acc = u.fp2.bin(acc, acc, rm, fl);
  c.write_fp(u.rd, u.width, u.fp1.tern(a, b, acc, rm, fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_cmp(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const U64 a = c.read_fp(u.rs1, u.width);
  const U64 b = c.read_fp(u.rs2, u.width);
  c.set_x(u.rd, u.fp1.cmp(a, b, fl) ? 1 : 0);
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_class(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, u.fp1.cls(c.read_fp(u.rs1, u.width)));
  c.pc += 4;
}

void h_fp_cvt_w(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.set_x(u.rd, static_cast<U32>(u.fp1.to_i32(c.read_fp(u.rs1, u.width),
                                              c.resolve_rm(u.rm), fl)));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_cvt_wu(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.set_x(u.rd,
          u.fp1.to_u32(c.read_fp(u.rs1, u.width), c.resolve_rm(u.rm), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_cvt_from_w(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.write_fp(u.rd, u.width,
             u.fp1.from_i32(static_cast<I32>(c.x[u.rs1]), c.resolve_rm(u.rm),
                            fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_cvt_from_wu(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.write_fp(u.rd, u.width,
             u.fp1.from_u32(c.x[u.rs1], c.resolve_rm(u.rm), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fmv_x(ExecContext& c, const DecodedOp& u) {
  // Sign-extend the raw bits to XLEN (RISC-V FMV.X.H convention).
  const int w = u.width;
  U32 v = static_cast<U32>(c.read_fp(u.rs1, w));
  if (w < 32 && (v & (1u << (w - 1))) != 0) {
    v |= static_cast<U32>(~width_mask(w));
  }
  c.set_x(u.rd, v);
  c.pc += 4;
}

void h_fmv_f(ExecContext& c, const DecodedOp& u) {
  c.write_fp(u.rd, u.width, c.x[u.rs1]);
  c.pc += 4;
}

// Expanding operations (Xfaux): smallFloat operands, binary32 result.
// fp2 = widening converter (exact, RNE as in the reference), fp1 = the
// binary32 operation.
void h_fmulex(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.resolve_rm(u.rm);
  const U64 wa = u.fp2.cvt(c.read_fp(u.rs1, u.width2), RoundingMode::RNE, fl);
  const U64 wb = u.fp2.cvt(c.read_fp(u.rs2, u.width2), RoundingMode::RNE, fl);
  c.write_fp(u.rd, 32, u.fp1.bin(wa, wb, rm, fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fmacex(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.resolve_rm(u.rm);
  const U64 wa = u.fp2.cvt(c.read_fp(u.rs1, u.width2), RoundingMode::RNE, fl);
  const U64 wb = u.fp2.cvt(c.read_fp(u.rs2, u.width2), RoundingMode::RNE, fl);
  const U64 acc = c.read_fp(u.rd, 32);
  c.write_fp(u.rd, 32, u.fp1.tern(wa, wb, acc, rm, fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

// ---- vectorial FP -----------------------------------------------------------
// Vector ops always round with the dynamic mode (no rm operand in the
// encoding), and the lane loop lives inside the bound softfloat entry.
// Dynamic VL: only min(vl, lanes) lanes compute; the destination tail is
// merged back undisturbed (cast-and-pack is VL-agnostic, comparisons zero
// their tail mask bits), bit-for-bit the reference interpreter's rule.

void h_vec_un(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const int active = c.vl_active(u.lanes);
  const U64 keep = width_mask(active * u.width);
  const U64 r = u.fp1.vun(c.f[u.rs1], active, c.frm_mode(), fl);
  c.f[u.rd] = ((r & keep) | (c.f[u.rd] & ~keep)) & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_vec_cmp(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.set_x(u.rd,
          u.fp1.vcmp(c.f[u.rs1], c.f[u.rs2], c.vl_active(u.lanes), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

/// Lanewise same-width format conversion (vfcvt.h.ah / vfcvt.ah.h).
void h_vec_cvt(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.frm_mode();
  const int active = c.vl_active(u.lanes);
  const U64 keep = width_mask(active * u.width);
  const U64 va = c.f[u.rs1];
  U64 out = 0;
  for (int l = 0; l < active; ++l) {
    out = set_lane(out, l, u.width,
                   u.fp1.cvt(get_lane(va, l, u.width), rm, fl));
  }
  c.f[u.rd] = ((out & keep) | (c.f[u.rd] & ~keep)) & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

/// Cast-and-pack: convert two binary32 scalars into adjacent lanes starting
/// at lane `imm` (0 for vfcpka, 2 for vfcpkb).
void h_vec_cpk(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.frm_mode();
  const U64 s1 = c.read_fp(u.rs1, 32);
  const U64 s2 = c.read_fp(u.rs2, 32);
  U64 vd = c.f[u.rd];
  vd = set_lane(vd, u.imm + 0, u.width, u.fp1.cvt(s1, rm, fl));
  vd = set_lane(vd, u.imm + 1, u.width, u.fp1.cvt(s2, rm, fl));
  c.f[u.rd] = vd & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

// ---- VL-governed vector memory ops -----------------------------------------

/// VL-governed vector load: min(vl, lanes) elements, lowest lane first, tail
/// undisturbed. rd is written only after every element load succeeded, so a
/// mid-vector fault leaves it unchanged.
template <int W>
void h_vfl(ExecContext& c, const DecodedOp& u) {
  const int active = c.vl_active(u.lanes);
  const U32 base = c.x[u.rs1] + static_cast<U32>(u.imm);
  U64 out = c.f[u.rd];
  for (int l = 0; l < active; ++l) {
    const U64 v = W == 16 ? c.load16(base + 2 * l)
                          : c.load8(base + static_cast<U32>(l));
    out = set_lane(out, l, W, v);
  }
  c.f[u.rd] = out & c.flen_mask;
  c.pc += 4;
}

/// VL-governed vector store, element-ordered (a fault leaves the lower
/// elements written, like any partially-completed store sequence).
template <int W>
void h_vfs(ExecContext& c, const DecodedOp& u) {
  const int active = c.vl_active(u.lanes);
  const U32 base = c.x[u.rs1] + static_cast<U32>(u.imm);
  const U64 v = c.f[u.rs2];
  for (int l = 0; l < active; ++l) {
    if constexpr (W == 16) {
      c.store16(base + 2 * l, static_cast<std::uint16_t>(get_lane(v, l, 16)));
    } else {
      c.store8(base + static_cast<U32>(l),
               static_cast<std::uint8_t>(get_lane(v, l, 8)));
    }
  }
  c.pc += 4;
}

// ---- stop-class fault handlers ---------------------------------------------

void h_unsupported(ExecContext& c, const DecodedOp& u) {
  throw SimError(std::string("unsupported instruction: ") +
                     std::string(isa::mnemonic(u.op)),
                 c.pc);
}

/// A supported op this decoder has no handler for.
void h_unhandled(ExecContext& c, const DecodedOp&) {
  throw SimError("unhandled op in micro-op decoder", c.pc);
}

/// The sentinel past the last instruction: reaching it is a fetch past the
/// end of the text (Core::fetch_index raises the same fault).
void h_past_text_end(ExecContext& c, const DecodedOp&) {
  throw SimError("instruction fetch outside text segment", c.pc);
}

// ---- binding ----------------------------------------------------------------

// Case label helpers covering a scalar op family's four IEEE formats plus
// the two posit widths, and a vector op family's three packed IEEE formats
// plus the two posit widths (as in the reference interpreter). The posit
// rows bind the same handlers: rt_ops/rt_vec_ops dispatch on u.fmt.
#define SFRV_CASE4(NAME) \
  case Op::NAME##_S:     \
  case Op::NAME##_AH:    \
  case Op::NAME##_H:     \
  case Op::NAME##_B:     \
  case Op::NAME##_P8:    \
  case Op::NAME##_P16:

#define SFRV_VCASE3(NAME) \
  case Op::NAME##_H:      \
  case Op::NAME##_AH:     \
  case Op::NAME##_B:      \
  case Op::NAME##_P8:     \
  case Op::NAME##_P16:

/// Bind `u`'s executor token, handler, softfloat entries, and folded
/// targets. A straight-line token leaves `fn` null here: decode_op binds the
/// token's generated handler. An FP op that only binds `fn` keeps the
/// CallUop token it starts with.
void bind_handler(DecodedOp& u, std::uint32_t pc, const isa::IsaConfig& cfg,
                  fp::MathBackend backend) {
  const isa::OpFmt of = isa::op_format(u.op);
  if (of != isa::OpFmt::None) {
    u.fmt = isa::to_fp_format(of);
    u.width = static_cast<std::uint8_t>(fp::format_width(u.fmt));
    if (isa::is_vector(u.op)) {
      u.lanes = static_cast<std::uint8_t>(isa::vector_lanes(u.fmt, cfg.flen));
    }
  }
  const fp::RtOps& so = fp::rt_ops(u.fmt, backend);
  const fp::RtVecOps& vo = fp::rt_vec_ops(u.fmt, backend);
  const fp::RtOps& s32 = fp::rt_ops(FpFormat::F32, backend);
  u.top = TOp::CallUop;

  // Integer ALU, lui and auipc: with rd = x0 the op is pure and runs as Nop.
  auto alu = [&u](TOp t) { u.top = u.rd == 0 ? TOp::Nop : t; };
  auto branch = [&u, pc](TOp t, ExecFn fn) {
    u.top = t;
    u.fn = fn;
    u.p0 = pc + static_cast<U32>(u.imm);
    u.p1 = pc + 4;
  };
  // Stop class: runs on the cold tier only, and ends an open trace.
  auto stop = [&u](ExecFn fn) {
    u.top = TOp::Exit;
    u.fn = fn;
  };
  auto fpbin = [&u](fp::RtBinFn f) {
    u.top = TOp::FpBin;
    u.fp1.bin = f;
  };
  auto vecbin = [&u](fp::RtVecBinFn f, bool replicate) {
    u.top = TOp::VecBin;
    u.fp1.vbin = f;
    u.replicate = replicate;
  };
  auto vecmac = [&u, &vo](bool replicate) {
    u.top = TOp::VecMac;
    u.fp1.vtern = vo.mac;
    u.replicate = replicate;
  };
  auto vecdotp = [&u](TOp t, fp::RtVecDotpFn f, bool replicate) {
    u.top = t;
    u.fp1.vdotp = f;
    u.replicate = replicate;
  };
  // Binds an FP<->FP converter and the source/destination widths.
  auto cvt = [&u, backend](FpFormat to, FpFormat from) {
    u.top = TOp::FpCvt;
    u.width = static_cast<std::uint8_t>(fp::format_width(to));
    u.width2 = static_cast<std::uint8_t>(fp::format_width(from));
    u.fp1.cvt = fp::rt_convert_fn(to, from, backend);
  };

  switch (u.op) {
    case Op::LUI:
      u.p0 = static_cast<U32>(u.imm);
      alu(TOp::LoadImm);
      break;
    case Op::AUIPC:
      u.p0 = pc + static_cast<U32>(u.imm);
      alu(TOp::LoadImm);
      break;
    case Op::JAL:
      branch(TOp::Jal, &h_jal);
      break;
    case Op::JALR:
      u.top = TOp::Jalr;
      u.fn = &h_jalr;
      u.p1 = pc + 4;
      break;
    case Op::BEQ: branch(TOp::Beq, &h_branch<Op::BEQ>); break;
    case Op::BNE: branch(TOp::Bne, &h_branch<Op::BNE>); break;
    case Op::BLT: branch(TOp::Blt, &h_branch<Op::BLT>); break;
    case Op::BGE: branch(TOp::Bge, &h_branch<Op::BGE>); break;
    case Op::BLTU: branch(TOp::Bltu, &h_branch<Op::BLTU>); break;
    case Op::BGEU: branch(TOp::Bgeu, &h_branch<Op::BGEU>); break;
    case Op::LB: u.top = TOp::Lb; break;
    case Op::LH: u.top = TOp::Lh; break;
    case Op::LW: u.top = TOp::Lw; break;
    case Op::LBU: u.top = TOp::Lbu; break;
    case Op::LHU: u.top = TOp::Lhu; break;
    case Op::SB: u.top = TOp::Sb; break;
    case Op::SH: u.top = TOp::Sh; break;
    case Op::SW: u.top = TOp::Sw; break;
    case Op::ADDI: alu(TOp::Addi); break;
    case Op::SLTI: alu(TOp::Slti); break;
    case Op::SLTIU: alu(TOp::Sltiu); break;
    case Op::XORI: alu(TOp::Xori); break;
    case Op::ORI: alu(TOp::Ori); break;
    case Op::ANDI: alu(TOp::Andi); break;
    case Op::SLLI: alu(TOp::Slli); break;
    case Op::SRLI: alu(TOp::Srli); break;
    case Op::SRAI: alu(TOp::Srai); break;
    case Op::ADD: alu(TOp::Add); break;
    case Op::SUB: alu(TOp::Sub); break;
    case Op::SLL: alu(TOp::Sll); break;
    case Op::SLT: alu(TOp::Slt); break;
    case Op::SLTU: alu(TOp::Sltu); break;
    case Op::XOR: alu(TOp::Xor); break;
    case Op::SRL: alu(TOp::Srl); break;
    case Op::SRA: alu(TOp::Sra); break;
    case Op::OR: alu(TOp::Or); break;
    case Op::AND: alu(TOp::And); break;
    case Op::MUL: alu(TOp::Mul); break;
    case Op::MULH: alu(TOp::Mulh); break;
    case Op::MULHSU: alu(TOp::Mulhsu); break;
    case Op::MULHU: alu(TOp::Mulhu); break;
    case Op::DIV: alu(TOp::Div); break;
    case Op::DIVU: alu(TOp::Divu); break;
    case Op::REM: alu(TOp::Rem); break;
    case Op::REMU: alu(TOp::Remu); break;
    case Op::FENCE: u.top = TOp::Nop; break;
    case Op::ECALL:
    case Op::EBREAK:
      u.top = TOp::Halt;
      u.fn = &h_halt;
      u.p1 = pc + 4;
      break;
    // CSR reads observe the live cycle/instret counters mid-execution, so
    // CSR ops stay on the cold tier, which books every retired op at once.
    case Op::CSRRW: stop(&h_csr<CsrKind::Rw, false>); break;
    case Op::CSRRS: stop(&h_csr<CsrKind::Rs, false>); break;
    case Op::CSRRC: stop(&h_csr<CsrKind::Rc, false>); break;
    case Op::CSRRWI: stop(&h_csr<CsrKind::Rw, true>); break;
    case Op::CSRRSI: stop(&h_csr<CsrKind::Rs, true>); break;
    case Op::CSRRCI: stop(&h_csr<CsrKind::Rc, true>); break;
    case Op::FLW: u.top = TOp::Flw; break;
    case Op::FLH: u.top = TOp::Flh; break;
    case Op::FLB: u.top = TOp::Flb; break;
    case Op::FSW: u.top = TOp::Fsw; break;
    case Op::FSH: u.top = TOp::Fsh; break;
    case Op::FSB: u.top = TOp::Fsb; break;

    case Op::SETVL:
      // imm[2:0] = log2(element bytes), imm[8:3] = optional cap.
      u.top = TOp::Setvl;
      u.lanes = static_cast<std::uint8_t>(
          (cfg.flen / 8) >> (static_cast<U32>(u.imm) & 7u));  // VLMAX
      u.width2 =
          static_cast<std::uint8_t>((static_cast<U32>(u.imm) >> 3) & 63u);
      break;
    case Op::VFLH:
      u.top = TOp::VMem;
      u.fn = &h_vfl<16>;
      u.width = 16;
      u.lanes = static_cast<std::uint8_t>(cfg.flen / 16);
      break;
    case Op::VFLB:
      u.top = TOp::VMem;
      u.fn = &h_vfl<8>;
      u.width = 8;
      u.lanes = static_cast<std::uint8_t>(cfg.flen / 8);
      break;
    case Op::VFSH:
      u.top = TOp::VMem;
      u.fn = &h_vfs<16>;
      u.width = 16;
      u.lanes = static_cast<std::uint8_t>(cfg.flen / 16);
      break;
    case Op::VFSB:
      u.top = TOp::VMem;
      u.fn = &h_vfs<8>;
      u.width = 8;
      u.lanes = static_cast<std::uint8_t>(cfg.flen / 8);
      break;

    SFRV_CASE4(FADD) fpbin(so.add); break;
    SFRV_CASE4(FSUB) fpbin(so.sub); break;
    SFRV_CASE4(FMUL) fpbin(so.mul); break;
    SFRV_CASE4(FDIV) fpbin(so.div); break;
    SFRV_CASE4(FMIN) fpbin(so.min); break;
    SFRV_CASE4(FMAX) fpbin(so.max); break;
    SFRV_CASE4(FSGNJ) fpbin(so.sgnj); break;
    SFRV_CASE4(FSGNJN) fpbin(so.sgnjn); break;
    SFRV_CASE4(FSGNJX) fpbin(so.sgnjx); break;
    SFRV_CASE4(FSQRT) u.fn = &h_fp_sqrt; u.fp1.un = so.sqrt; break;
    SFRV_CASE4(FEQ) u.fn = &h_fp_cmp; u.fp1.cmp = so.feq; break;
    SFRV_CASE4(FLT) u.fn = &h_fp_cmp; u.fp1.cmp = so.flt; break;
    SFRV_CASE4(FLE) u.fn = &h_fp_cmp; u.fp1.cmp = so.fle; break;
    SFRV_CASE4(FCLASS) u.fn = &h_fp_class; u.fp1.cls = so.classify; break;
    SFRV_CASE4(FCVT_W) u.fn = &h_fp_cvt_w; u.fp1.to_i32 = so.to_int32; break;
    SFRV_CASE4(FCVT_WU)
    u.fn = &h_fp_cvt_wu;
    u.fp1.to_u32 = so.to_uint32;
    break;
    SFRV_CASE4(FMV_X) u.fn = &h_fmv_x; break;

    case Op::FCVT_S_W:
    case Op::FCVT_AH_W:
    case Op::FCVT_H_W:
    case Op::FCVT_B_W:
    case Op::FCVT_P8_W:
    case Op::FCVT_P16_W:
      u.fn = &h_fp_cvt_from_w;
      u.fp1.from_i32 = so.from_int32;
      break;
    case Op::FCVT_S_WU:
    case Op::FCVT_AH_WU:
    case Op::FCVT_H_WU:
    case Op::FCVT_B_WU:
    case Op::FCVT_P8_WU:
    case Op::FCVT_P16_WU:
      u.fn = &h_fp_cvt_from_wu;
      u.fp1.from_u32 = so.from_uint32;
      break;
    case Op::FMV_S_X:
    case Op::FMV_AH_X:
    case Op::FMV_H_X:
    case Op::FMV_B_X:
    case Op::FMV_P8_X:
    case Op::FMV_P16_X:
      u.fn = &h_fmv_f;
      break;

    SFRV_CASE4(FMADD)
    u.top = TOp::FpFma;
    u.fp1.tern = so.fma;
    break;
    SFRV_CASE4(FMSUB)
    u.fn = &h_fp_fma<false, true>;
    u.fp1.tern = so.fma;
    u.fp2.bin = so.sgnjn;
    break;
    SFRV_CASE4(FNMSUB)
    u.fn = &h_fp_fma<true, false>;
    u.fp1.tern = so.fma;
    u.fp2.bin = so.sgnjn;
    break;
    SFRV_CASE4(FNMADD)
    u.fn = &h_fp_fma<true, true>;
    u.fp1.tern = so.fma;
    u.fp2.bin = so.sgnjn;
    break;

    case Op::FMULEX_S_AH:
    case Op::FMULEX_S_H:
    case Op::FMULEX_S_B:
      u.fn = &h_fmulex;
      u.width2 = u.width;
      u.width = 32;
      u.fp1.bin = s32.mul;
      u.fp2.cvt = fp::rt_convert_fn(FpFormat::F32, u.fmt, backend);
      break;
    case Op::FMACEX_S_AH:
    case Op::FMACEX_S_H:
    case Op::FMACEX_S_B:
      u.fn = &h_fmacex;
      u.width2 = u.width;
      u.width = 32;
      u.fp1.tern = s32.fma;
      u.fp2.cvt = fp::rt_convert_fn(FpFormat::F32, u.fmt, backend);
      break;

    case Op::FCVT_S_AH: cvt(FpFormat::F32, FpFormat::F16Alt); break;
    case Op::FCVT_S_H: cvt(FpFormat::F32, FpFormat::F16); break;
    case Op::FCVT_S_B: cvt(FpFormat::F32, FpFormat::F8); break;
    case Op::FCVT_AH_S: cvt(FpFormat::F16Alt, FpFormat::F32); break;
    case Op::FCVT_AH_H: cvt(FpFormat::F16Alt, FpFormat::F16); break;
    case Op::FCVT_AH_B: cvt(FpFormat::F16Alt, FpFormat::F8); break;
    case Op::FCVT_H_S: cvt(FpFormat::F16, FpFormat::F32); break;
    case Op::FCVT_H_AH: cvt(FpFormat::F16, FpFormat::F16Alt); break;
    case Op::FCVT_H_B: cvt(FpFormat::F16, FpFormat::F8); break;
    case Op::FCVT_B_S: cvt(FpFormat::F8, FpFormat::F32); break;
    case Op::FCVT_B_AH: cvt(FpFormat::F8, FpFormat::F16Alt); break;
    case Op::FCVT_B_H: cvt(FpFormat::F8, FpFormat::F16); break;

    case Op::FCVT_S_P8: cvt(FpFormat::F32, FpFormat::P8); break;
    case Op::FCVT_S_P16: cvt(FpFormat::F32, FpFormat::P16); break;
    case Op::FCVT_AH_P8: cvt(FpFormat::F16Alt, FpFormat::P8); break;
    case Op::FCVT_AH_P16: cvt(FpFormat::F16Alt, FpFormat::P16); break;
    case Op::FCVT_H_P8: cvt(FpFormat::F16, FpFormat::P8); break;
    case Op::FCVT_H_P16: cvt(FpFormat::F16, FpFormat::P16); break;
    case Op::FCVT_B_P8: cvt(FpFormat::F8, FpFormat::P8); break;
    case Op::FCVT_B_P16: cvt(FpFormat::F8, FpFormat::P16); break;
    case Op::FCVT_P8_S: cvt(FpFormat::P8, FpFormat::F32); break;
    case Op::FCVT_P8_AH: cvt(FpFormat::P8, FpFormat::F16Alt); break;
    case Op::FCVT_P8_H: cvt(FpFormat::P8, FpFormat::F16); break;
    case Op::FCVT_P8_B: cvt(FpFormat::P8, FpFormat::F8); break;
    case Op::FCVT_P8_P16: cvt(FpFormat::P8, FpFormat::P16); break;
    case Op::FCVT_P16_S: cvt(FpFormat::P16, FpFormat::F32); break;
    case Op::FCVT_P16_AH: cvt(FpFormat::P16, FpFormat::F16Alt); break;
    case Op::FCVT_P16_H: cvt(FpFormat::P16, FpFormat::F16); break;
    case Op::FCVT_P16_B: cvt(FpFormat::P16, FpFormat::F8); break;
    case Op::FCVT_P16_P8: cvt(FpFormat::P16, FpFormat::P8); break;

    SFRV_VCASE3(VFADD) vecbin(vo.add, false); break;
    SFRV_VCASE3(VFSUB) vecbin(vo.sub, false); break;
    SFRV_VCASE3(VFMUL) vecbin(vo.mul, false); break;
    SFRV_VCASE3(VFDIV) vecbin(vo.div, false); break;
    SFRV_VCASE3(VFMIN) vecbin(vo.min, false); break;
    SFRV_VCASE3(VFMAX) vecbin(vo.max, false); break;
    SFRV_VCASE3(VFSGNJ) vecbin(vo.sgnj, false); break;
    SFRV_VCASE3(VFSGNJN) vecbin(vo.sgnjn, false); break;
    SFRV_VCASE3(VFSGNJX) vecbin(vo.sgnjx, false); break;
    SFRV_VCASE3(VFMAC) vecmac(false); break;
    SFRV_VCASE3(VFADD_R) vecbin(vo.add, true); break;
    SFRV_VCASE3(VFSUB_R) vecbin(vo.sub, true); break;
    SFRV_VCASE3(VFMUL_R) vecbin(vo.mul, true); break;
    SFRV_VCASE3(VFDIV_R) vecbin(vo.div, true); break;
    SFRV_VCASE3(VFMIN_R) vecbin(vo.min, true); break;
    SFRV_VCASE3(VFMAX_R) vecbin(vo.max, true); break;
    SFRV_VCASE3(VFMAC_R) vecmac(true); break;

    SFRV_VCASE3(VFEQ) u.fn = &h_vec_cmp; u.fp1.vcmp = vo.feq; break;
    SFRV_VCASE3(VFLT) u.fn = &h_vec_cmp; u.fp1.vcmp = vo.flt; break;
    SFRV_VCASE3(VFLE) u.fn = &h_vec_cmp; u.fp1.vcmp = vo.fle; break;

    SFRV_VCASE3(VFSQRT) u.fn = &h_vec_un; u.fp1.vun = vo.sqrt; break;
    SFRV_VCASE3(VFCVT_X) u.fn = &h_vec_un; u.fp1.vun = vo.to_int; break;
    case Op::VFCVT_H_X:
    case Op::VFCVT_AH_X:
    case Op::VFCVT_B_X:
    case Op::VFCVT_P8_X:
    case Op::VFCVT_P16_X:
      u.fn = &h_vec_un;
      u.fp1.vun = vo.from_int;
      break;

    case Op::VFCVT_H_AH:
      u.fn = &h_vec_cvt;
      u.fp1.cvt = fp::rt_convert_fn(FpFormat::F16, FpFormat::F16Alt, backend);
      break;
    case Op::VFCVT_AH_H:
      u.fn = &h_vec_cvt;
      u.fp1.cvt = fp::rt_convert_fn(FpFormat::F16Alt, FpFormat::F16, backend);
      break;

    case Op::VFCPKA_H_S:
    case Op::VFCPKA_AH_S:
    case Op::VFCPKA_B_S:
    case Op::VFCPKA_P8_S:
    case Op::VFCPKA_P16_S:
      u.fn = &h_vec_cpk;
      u.imm = 0;
      u.fp1.cvt = fp::rt_convert_fn(u.fmt, FpFormat::F32, backend);
      break;
    case Op::VFCPKB_B_S:
      u.fn = &h_vec_cpk;
      u.imm = 2;
      u.fp1.cvt = fp::rt_convert_fn(u.fmt, FpFormat::F32, backend);
      break;

    SFRV_VCASE3(VFDOTPEX_S) vecdotp(TOp::VecDotp, vo.dotp, false); break;
    SFRV_VCASE3(VFDOTPEX_S_R) vecdotp(TOp::VecDotp, vo.dotp, true); break;

    case Op::VFEXSDOTP_H_B:
    case Op::VFEXSDOTP_S_H:
    case Op::VFEXSDOTP_S_AH:
    case Op::VFEXSDOTP_P16_P8:
      vecdotp(TOp::VecExsdotp, vo.exsdotp, false);
      break;
    case Op::VFEXSDOTP_R_H_B:
    case Op::VFEXSDOTP_R_S_H:
    case Op::VFEXSDOTP_R_S_AH:
    case Op::VFEXSDOTP_R_P16_P8:
      vecdotp(TOp::VecExsdotp, vo.exsdotp, true);
      break;

    default:
      stop(&h_unhandled);
      break;
  }
}

#undef SFRV_CASE4
#undef SFRV_VCASE3

}  // namespace

DecodedOp decode_op(const Inst& inst, std::uint32_t pc,
                    const isa::IsaConfig& cfg, const Timing& timing,
                    const MemConfig& mem, fp::MathBackend backend) {
  DecodedOp u;
  u.rd = inst.rd;
  u.rs1 = inst.rs1;
  u.rs2 = inst.rs2;
  u.rs3 = inst.rs3;
  u.rm = inst.rm;
  u.imm = inst.imm;
  u.op = inst.op;
  // Timing class and fixed cycles: everything but a taken branch's
  // refetch penalty is constant for the core's lifetime.
  int cyc = timing.base_cycles(inst.op);
  switch (isa::op_class(inst.op)) {
    case Cls::Load:
    case Cls::FpLoad:
      u.tclass = TimingClass::Load;
      cyc += mem.load_latency - 1;
      break;
    case Cls::Store:
    case Cls::FpStore:
      u.tclass = TimingClass::Store;
      cyc += mem.store_latency - 1;
      break;
    case Cls::Jump:
      u.tclass = TimingClass::Jump;
      cyc += timing.jump_penalty;
      break;
    case Cls::Branch: u.tclass = TimingClass::Branch; break;
    default: u.tclass = TimingClass::None; break;
  }
  u.cycles = static_cast<std::uint16_t>(cyc);
  if (!cfg.supports(inst.op)) {
    u.fn = &h_unsupported;
    u.supported = false;
  } else {
    bind_handler(u, pc, cfg, backend);
    if (u.fn == nullptr) u.fn = straight_handler(u.top);
  }
  if (u.top == TOp::Exit) u.p1 = pc;  // an open trace exits here
  u.cont = jit::token_label(u.top);
  return u;
}

std::vector<DecodedOp> decode_program(const std::vector<Inst>& text,
                                      std::uint32_t text_base,
                                      const isa::IsaConfig& cfg,
                                      const Timing& timing,
                                      const MemConfig& mem,
                                      fp::MathBackend backend) {
  std::vector<DecodedOp> uops;
  uops.reserve(text.size() + 1);
  std::uint32_t pc = text_base;
  for (const Inst& i : text) {
    uops.push_back(decode_op(i, pc, cfg, timing, mem, backend));
    pc += 4;
  }
  DecodedOp sentinel;
  sentinel.fn = &h_past_text_end;
  sentinel.p1 = pc;
  sentinel.cont = jit::token_label(TOp::Exit);
  uops.push_back(sentinel);
  return uops;
}

}  // namespace sfrv::sim
