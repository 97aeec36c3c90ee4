#include "sim/verify.hpp"

#include <algorithm>
#include <string>

#include "isa/opcodes.hpp"

namespace sfrv::sim {

namespace {

using isa::Cls;
using isa::Op;
using jit::Trace;
using verify::Diag;

constexpr const char* kTOpNames[] = {
#define SFRV_TOP_X(name) #name,
    SFRV_TOP_LIST(SFRV_TOP_X)
#undef SFRV_TOP_X
};

const char* top_name(TOp t) { return kTOpNames[static_cast<int>(t)]; }

/// The token a supported op must decode to, restated from the ISA metadata
/// independently of decode.cpp's binding switch.
TOp expected_top(Op op, std::uint8_t rd) {
  // A pure op writing x0 runs as Nop (its body writes x[rd] unguarded).
  const auto alu = [rd](TOp t) { return rd == 0 ? TOp::Nop : t; };
  switch (op) {
    case Op::LUI:
    case Op::AUIPC: return alu(TOp::LoadImm);
    case Op::ADDI: return alu(TOp::Addi);
    case Op::SLTI: return alu(TOp::Slti);
    case Op::SLTIU: return alu(TOp::Sltiu);
    case Op::XORI: return alu(TOp::Xori);
    case Op::ORI: return alu(TOp::Ori);
    case Op::ANDI: return alu(TOp::Andi);
    case Op::SLLI: return alu(TOp::Slli);
    case Op::SRLI: return alu(TOp::Srli);
    case Op::SRAI: return alu(TOp::Srai);
    case Op::ADD: return alu(TOp::Add);
    case Op::SUB: return alu(TOp::Sub);
    case Op::SLL: return alu(TOp::Sll);
    case Op::SLT: return alu(TOp::Slt);
    case Op::SLTU: return alu(TOp::Sltu);
    case Op::XOR: return alu(TOp::Xor);
    case Op::SRL: return alu(TOp::Srl);
    case Op::SRA: return alu(TOp::Sra);
    case Op::OR: return alu(TOp::Or);
    case Op::AND: return alu(TOp::And);
    case Op::MUL: return alu(TOp::Mul);
    case Op::MULH: return alu(TOp::Mulh);
    case Op::MULHSU: return alu(TOp::Mulhsu);
    case Op::MULHU: return alu(TOp::Mulhu);
    case Op::DIV: return alu(TOp::Div);
    case Op::DIVU: return alu(TOp::Divu);
    case Op::REM: return alu(TOp::Rem);
    case Op::REMU: return alu(TOp::Remu);
    case Op::LB: return TOp::Lb;
    case Op::LH: return TOp::Lh;
    case Op::LW: return TOp::Lw;
    case Op::LBU: return TOp::Lbu;
    case Op::LHU: return TOp::Lhu;
    case Op::SB: return TOp::Sb;
    case Op::SH: return TOp::Sh;
    case Op::SW: return TOp::Sw;
    case Op::FLW: return TOp::Flw;
    case Op::FLH: return TOp::Flh;
    case Op::FLB: return TOp::Flb;
    case Op::FSW: return TOp::Fsw;
    case Op::FSH: return TOp::Fsh;
    case Op::FSB: return TOp::Fsb;
    case Op::VFLB:
    case Op::VFLH:
    case Op::VFSB:
    case Op::VFSH: return TOp::VMem;
    case Op::BEQ: return TOp::Beq;
    case Op::BNE: return TOp::Bne;
    case Op::BLT: return TOp::Blt;
    case Op::BGE: return TOp::Bge;
    case Op::BLTU: return TOp::Bltu;
    case Op::BGEU: return TOp::Bgeu;
    case Op::JAL: return TOp::Jal;
    case Op::JALR: return TOp::Jalr;
    case Op::ECALL:
    case Op::EBREAK: return TOp::Halt;
    case Op::FENCE: return TOp::Nop;
    // setvl writes only vl and rd: straight-line, so it may sit anywhere in
    // a trace (packed bodies read the live vl).
    case Op::SETVL: return TOp::Setvl;
    // fmadd has a body; fmsub, fnmsub and fnmadd negate an operand first
    // and call their handler.
    case Op::FMADD_S:
    case Op::FMADD_AH:
    case Op::FMADD_H:
    case Op::FMADD_B:
    case Op::FMADD_P8:
    case Op::FMADD_P16: return TOp::FpFma;
    default: break;
  }
  // The other CSR ops read the live counters, which a trace books only as
  // it exits: stop class. FP compute: the inlined shapes by op class; any
  // other op calls its handler.
  const bool vec = isa::is_vector(op);
  switch (isa::op_class(op)) {
    case Cls::Csr: return TOp::Exit;
    case Cls::FpAdd:
    case Cls::FpMul:
    case Cls::FpDiv:
    case Cls::FpMinMax:
    case Cls::FpSgnj: return vec ? TOp::VecBin : TOp::FpBin;
    case Cls::FpFma: return vec ? TOp::VecMac : TOp::CallUop;
    case Cls::FpCvt: return vec ? TOp::CallUop : TOp::FpCvt;
    case Cls::FpDotp: return TOp::VecDotp;
    case Cls::FpDotpEx: return TOp::VecExsdotp;
    default: return TOp::CallUop;
  }
}

/// The timing model's fixed cost of `op`: all but a taken branch's refetch
/// penalty.
std::uint16_t expected_cycles(Op op, const Timing& timing,
                              const MemConfig& mem) {
  int cyc = timing.base_cycles(op);
  switch (isa::op_class(op)) {
    case Cls::Load:
    case Cls::FpLoad: cyc += mem.load_latency - 1; break;
    case Cls::Store:
    case Cls::FpStore: cyc += mem.store_latency - 1; break;
    case Cls::Jump: cyc += timing.jump_penalty; break;
    default: break;
  }
  return static_cast<std::uint16_t>(cyc);
}

}  // namespace

std::vector<Diag> check_trace(const Trace& t,
                              const std::vector<DecodedOp>& uops,
                              const Timing& timing, const MemConfig& mem,
                              std::uint32_t text_base) {
  std::vector<Diag> diags;
  const auto diag = [&](std::int64_t index, std::string msg) {
    diags.push_back(Diag{.pass = {}, .index = index, .message = std::move(msg)});
  };
  if (uops.empty()) {
    diag(t.start_idx, "decoded program lacks its sentinel");
    return diags;
  }
  const std::size_t n_text = uops.size() - 1;
  const std::uint32_t text_end = text_base + 4 * static_cast<std::uint32_t>(n_text);
  if (uops.back().top != TOp::Exit || uops.back().p1 != text_end) {
    diag(static_cast<std::int64_t>(n_text),
         "sentinel past the text is not an Exit at the text's end");
  }
  if (t.start_idx >= n_text) {
    diag(t.start_idx, "trace starts past the end of the text");
    return diags;
  }
  const auto anchor = static_cast<std::int64_t>(t.start_idx);
  if (t.base_pc != text_base + 4 * t.start_idx) {
    diag(anchor, "base_pc " + std::to_string(t.base_pc) +
                     " != text_base + 4 * start_idx");
  }
  if (t.n == 0) {
    diag(anchor, "trace retires no instructions (n = 0)");
    return diags;
  }
  if (t.start_idx + t.n > n_text) {
    diag(anchor, "trace covers " + std::to_string(t.n) +
                     " ops but the text ends " +
                     std::to_string(n_text - t.start_idx) +
                     " past its start");
    return diags;
  }

  std::uint64_t sum_cycles = 0;
  std::uint32_t n_loads = 0, n_stores = 0;
  std::vector<std::pair<std::uint16_t, std::uint32_t>> op_counts;
  for (std::uint32_t j = 0; j < t.n; ++j) {
    const std::uint32_t idx = t.start_idx + j;
    const DecodedOp& u = uops[idx];
    const std::uint32_t pc = text_base + 4 * idx;
    const auto op_diag = [&](const std::string& msg) {
      diag(static_cast<std::int64_t>(idx),
           msg + " [op " + std::to_string(j) + ": " + top_name(u.top) +
               " from " + std::string(isa::mnemonic(u.op)) + "]");
    };

    const TOp want = u.supported ? expected_top(u.op, u.rd) : TOp::Exit;
    if (want == TOp::Exit || u.top == TOp::Exit) {
      op_diag("stop-class op inside a trace");
    }
    if (u.top != want) {
      op_diag(std::string("token mismatch (expected ") + top_name(want) + ")");
    }
    if (u.cont != jit::token_label(u.top)) {
      op_diag("continuation is not its token's executor label");
    }
    if (j + 1 < t.n && is_terminator(u.top)) {
      op_diag("terminator in the interior of a trace");
    }

    // Constants decode folded for the executor, per expected token.
    const std::uint32_t target = pc + static_cast<std::uint32_t>(u.imm);
    switch (want) {
      case TOp::LoadImm: {
        const std::uint32_t val =
            u.op == Op::LUI ? static_cast<std::uint32_t>(u.imm) : target;
        if (u.p0 != val) {
          op_diag("folded LoadImm value wrong (expected " +
                  std::to_string(val) + ", got p0 " + std::to_string(u.p0) +
                  ")");
        }
        break;
      }
      case TOp::Beq:
      case TOp::Bne:
      case TOp::Blt:
      case TOp::Bge:
      case TOp::Bltu:
      case TOp::Bgeu:
      case TOp::Jal:
        if (u.p0 != target || u.p1 != pc + 4) {
          op_diag("folded branch target/fall-through wrong (p0 " +
                  std::to_string(u.p0) + ", p1 " + std::to_string(u.p1) +
                  ")");
        }
        break;
      case TOp::Jalr:
      case TOp::Halt:
        if (u.p1 != pc + 4) {
          op_diag("folded link/next pc wrong (p1 " + std::to_string(u.p1) +
                  ")");
        }
        break;
      default:
        break;
    }
    const std::uint16_t cyc = expected_cycles(u.op, timing, mem);
    if (u.cycles != cyc) {
      op_diag("folded cycles " + std::to_string(u.cycles) +
              " != the timing model's " + std::to_string(cyc));
    }

    sum_cycles += cyc;
    switch (isa::op_class(u.op)) {
      case Cls::Load:
      case Cls::FpLoad: ++n_loads; break;
      case Cls::Store:
      case Cls::FpStore: ++n_stores; break;
      default: break;
    }
    const auto opv = static_cast<std::uint16_t>(u.op);
    bool found = false;
    for (auto& oc : op_counts) {
      if (oc.first == opv) {
        ++oc.second;
        found = true;
        break;
      }
    }
    if (!found) op_counts.emplace_back(opv, 1);
  }

  // Trace end: a terminator, or the stop-class op (or sentinel) right after
  // the range, whose folded exit pc is its own.
  if (!is_terminator(uops[t.start_idx + t.n - 1].top)) {
    const DecodedOp& next = uops[t.start_idx + t.n];
    const std::uint32_t next_pc = t.base_pc + 4 * t.n;
    if (next.top != TOp::Exit) {
      diag(anchor, std::string("open trace stops before a ") +
                       top_name(next.top) + " op, not a stop-class op");
    } else if (next.p1 != next_pc) {
      diag(anchor, "exit pc " + std::to_string(next.p1) +
                       " of the stop-class op after the trace != its pc " +
                       std::to_string(next_pc));
    }
  }

  // Aggregate accounting the executor books per complete run.
  if (t.sum_cycles != sum_cycles) {
    diag(anchor, "aggregate sum_cycles " + std::to_string(t.sum_cycles) +
                     " != recomputed " + std::to_string(sum_cycles));
  }
  if (t.n_loads != n_loads || t.n_stores != n_stores) {
    diag(anchor, "aggregate load/store counts (" + std::to_string(t.n_loads) +
                     "/" + std::to_string(t.n_stores) + ") != recomputed (" +
                     std::to_string(n_loads) + "/" + std::to_string(n_stores) +
                     ")");
  }
  if (t.taken_extra !=
      static_cast<std::uint16_t>(timing.branch_taken_penalty)) {
    diag(anchor, "taken_extra " + std::to_string(t.taken_extra) +
                     " != timing.branch_taken_penalty");
  }
  auto sorted = [](std::vector<std::pair<std::uint16_t, std::uint32_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  if (sorted(t.op_counts) != sorted(op_counts)) {
    diag(anchor, "aggregate per-op retirement counts do not match a recount");
  }
  return diags;
}

void verify_trace_or_throw(const Trace& t, const std::vector<DecodedOp>& uops,
                           const Timing& timing, const MemConfig& mem,
                           std::uint32_t text_base, std::string_view pass) {
  auto diags = check_trace(t, uops, timing, mem, text_base);
  if (!diags.empty()) {
    throw verify::VerifyError(std::string(pass), std::move(diags));
  }
}

}  // namespace sfrv::sim
