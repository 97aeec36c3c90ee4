#include "sim/verify.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "isa/opcodes.hpp"

namespace sfrv::sim {

namespace {

using isa::Cls;
using isa::Op;
using jit::TOp;
using jit::Trace;
using jit::TraceSlot;
using verify::Diag;

constexpr const char* kTOpNames[] = {
#define SFRV_JIT_X(name) #name,
    SFRV_JIT_TOP_LIST(SFRV_JIT_X)
#undef SFRV_JIT_X
};

const char* top_name(TOp t) { return kTOpNames[static_cast<int>(t)]; }

std::string where(const DecodedOp& u) {
  return std::string(isa::mnemonic(u.op));
}

/// Field-wise micro-op equality. The fp1/fp2 unions are compared bytewise —
/// every member is a function pointer.
bool uop_equal(const DecodedOp& a, const DecodedOp& b) {
  return a.fn == b.fn && a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2 &&
         a.rs3 == b.rs3 && a.rm == b.rm && a.width == b.width &&
         a.width2 == b.width2 && a.lanes == b.lanes &&
         a.replicate == b.replicate && a.supported == b.supported &&
         a.fmt == b.fmt && a.imm == b.imm &&
         std::memcmp(&a.fp1, &b.fp1, sizeof a.fp1) == 0 &&
         std::memcmp(&a.fp2, &b.fp2, sizeof a.fp2) == 0 &&
         a.base_cycles == b.base_cycles && a.tclass == b.tclass &&
         a.hkind == b.hkind && a.op == b.op;
}

/// Map a source integer-ALU op to its dedicated trace token (TOp::Nop when
/// rd == x0); ops without a dedicated token return false.
bool alu_top(Op op, TOp& out) {
  switch (op) {
    case Op::ADDI: out = TOp::Addi; return true;
    case Op::SLTI: out = TOp::Slti; return true;
    case Op::SLTIU: out = TOp::Sltiu; return true;
    case Op::XORI: out = TOp::Xori; return true;
    case Op::ORI: out = TOp::Ori; return true;
    case Op::ANDI: out = TOp::Andi; return true;
    case Op::SLLI: out = TOp::Slli; return true;
    case Op::SRLI: out = TOp::Srli; return true;
    case Op::SRAI: out = TOp::Srai; return true;
    case Op::ADD: out = TOp::Add; return true;
    case Op::SUB: out = TOp::Sub; return true;
    case Op::SLL: out = TOp::Sll; return true;
    case Op::SLT: out = TOp::Slt; return true;
    case Op::SLTU: out = TOp::Sltu; return true;
    case Op::XOR: out = TOp::Xor; return true;
    case Op::SRL: out = TOp::Srl; return true;
    case Op::SRA: out = TOp::Sra; return true;
    case Op::OR: out = TOp::Or; return true;
    case Op::AND: out = TOp::And; return true;
    case Op::MUL: out = TOp::Mul; return true;
    case Op::MULH: out = TOp::Mulh; return true;
    case Op::MULHSU: out = TOp::Mulhsu; return true;
    case Op::MULHU: out = TOp::Mulhu; return true;
    case Op::DIV: out = TOp::Div; return true;
    case Op::DIVU: out = TOp::Divu; return true;
    case Op::REM: out = TOp::Rem; return true;
    case Op::REMU: out = TOp::Remu; return true;
    default: return false;
  }
}

bool memop_top(Op op, TOp& out) {
  switch (op) {
    case Op::LB: out = TOp::Lb; return true;
    case Op::LH: out = TOp::Lh; return true;
    case Op::LW: out = TOp::Lw; return true;
    case Op::LBU: out = TOp::Lbu; return true;
    case Op::LHU: out = TOp::Lhu; return true;
    case Op::SB: out = TOp::Sb; return true;
    case Op::SH: out = TOp::Sh; return true;
    case Op::SW: out = TOp::Sw; return true;
    case Op::FLW: out = TOp::Flw; return true;
    case Op::FLH: out = TOp::Flh; return true;
    case Op::FLB: out = TOp::Flb; return true;
    case Op::FSW: out = TOp::Fsw; return true;
    case Op::FSH: out = TOp::Fsh; return true;
    case Op::FSB: out = TOp::Fsb; return true;
    case Op::VFLB:
    case Op::VFLH:
    case Op::VFSB:
    case Op::VFSH: out = TOp::VMem; return true;
    default: return false;
  }
}

bool branch_top(Op op, TOp& out) {
  switch (op) {
    case Op::BEQ: out = TOp::Beq; return true;
    case Op::BNE: out = TOp::Bne; return true;
    case Op::BLT: out = TOp::Blt; return true;
    case Op::BGE: out = TOp::Bge; return true;
    case Op::BLTU: out = TOp::Bltu; return true;
    case Op::BGEU: out = TOp::Bgeu; return true;
    default: return false;
  }
}

bool is_terminator_top(TOp t) {
  switch (t) {
    case TOp::Beq:
    case TOp::Bne:
    case TOp::Blt:
    case TOp::Bge:
    case TOp::Bltu:
    case TOp::Bgeu:
    case TOp::Jal:
    case TOp::Jalr:
    case TOp::Halt:
      return true;
    default:
      return false;
  }
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
  const std::size_t n_src = uops.size();
  if (t.start_idx >= n_src) {
    diag(t.start_idx, "trace starts past the end of the text");
    return diags;
  }
  const auto anchor = static_cast<std::int64_t>(t.start_idx);
  if (t.base_pc != text_base + 4 * t.start_idx) {
    diag(anchor, "base_pc " + std::to_string(t.base_pc) +
                     " != text_base + 4 * start_idx");
  }
  if (t.n == 0 || t.n > jit::kMaxTraceSlots) {
    diag(anchor, "retiring slot count " + std::to_string(t.n) +
                     " outside [1, " + std::to_string(jit::kMaxTraceSlots) +
                     "]");
    return diags;
  }
  if (t.start_idx + t.n > n_src) {
    diag(anchor, "trace covers " + std::to_string(t.n) +
                     " slots but the text ends " +
                     std::to_string(n_src - t.start_idx) +
                     " past its start");
    return diags;
  }
  if (t.slots.size() != t.n && t.slots.size() != t.n + 1) {
    diag(anchor, "slot array holds " + std::to_string(t.slots.size()) +
                     " entries for n = " + std::to_string(t.n));
    return diags;
  }

  std::uint64_t sum_cycles = 0;
  std::uint32_t n_loads = 0, n_stores = 0;
  std::vector<std::pair<std::uint16_t, std::uint32_t>> op_counts;
  for (std::uint32_t j = 0; j < t.n; ++j) {
    const TraceSlot& s = t.slots[j];
    const std::uint32_t idx = t.start_idx + j;
    const auto ti = static_cast<std::int64_t>(idx);
    const DecodedOp& u = uops[idx];
    const std::uint32_t pc = text_base + 4 * idx;
    const auto slot_diag = [&](const std::string& msg) {
      diag(ti, msg + " [slot " + std::to_string(j) + ": " +
                   top_name(s.top) + " from " + where(u) + "]");
    };

    if (!u.supported || u.fn == nullptr) {
      slot_diag("unsupported source micro-op compiled into a trace");
      continue;
    }
    const Cls c = isa::op_class(u.op);
    if (c == Cls::Csr) {
      slot_diag("CSR op compiled into a trace (must stay on the interpreter)");
      continue;
    }
    if (j + 1 < t.n && is_terminator_top(s.top)) {
      slot_diag("terminator token in the interior of a trace");
    }

    // Token legality and folded constants, per source op.
    TOp want;
    if (u.op == Op::LUI || u.op == Op::AUIPC) {
      const std::uint32_t val =
          u.op == Op::LUI ? static_cast<std::uint32_t>(u.imm)
                          : pc + static_cast<std::uint32_t>(u.imm);
      if (u.rd == 0 ? s.top != TOp::Nop
                    : (s.top != TOp::LoadImm || s.p0 != val)) {
        slot_diag("LoadImm lowering wrong (expected value " +
                  std::to_string(val) + ", got p0 " + std::to_string(s.p0) +
                  ")");
      }
    } else if (u.op == Op::JAL) {
      if (s.top != TOp::Jal ||
          s.p0 != pc + static_cast<std::uint32_t>(u.imm) || s.p1 != pc + 4) {
        slot_diag("folded jal target/link wrong (p0 " + std::to_string(s.p0) +
                  ", p1 " + std::to_string(s.p1) + ")");
      }
    } else if (u.op == Op::JALR) {
      if (s.top != TOp::Jalr || s.p1 != pc + 4) {
        slot_diag("folded jalr link wrong (p1 " + std::to_string(s.p1) + ")");
      }
    } else if (branch_top(u.op, want)) {
      if (s.top != want ||
          s.p0 != pc + static_cast<std::uint32_t>(u.imm) || s.p1 != pc + 4) {
        slot_diag("folded branch target/fall-through wrong (p0 " +
                  std::to_string(s.p0) + ", p1 " + std::to_string(s.p1) +
                  ")");
      }
    } else if (u.op == Op::ECALL || u.op == Op::EBREAK) {
      if (s.top != TOp::Halt || s.p1 != pc + 4) {
        slot_diag("halt lowering wrong (p1 " + std::to_string(s.p1) + ")");
      }
    } else if (u.op == Op::FENCE) {
      if (s.top != TOp::Nop) slot_diag("fence must lower to Nop");
    } else if (alu_top(u.op, want)) {
      const TOp expect = u.rd == 0 ? TOp::Nop : want;
      if (s.top != expect) {
        slot_diag(std::string("ALU token mismatch (expected ") +
                  top_name(expect) + ")");
      }
    } else if (memop_top(u.op, want)) {
      if (s.top != want) {
        slot_diag(std::string("memory token mismatch (expected ") +
                  top_name(want) + ")");
      }
    } else {
      // FP compute: the token is fixed by the handler shape, under either
      // math backend.
      switch (u.hkind) {
        case HandlerKind::FpBin: want = TOp::FpBin; break;
        case HandlerKind::VecBin: want = TOp::VecBin; break;
        case HandlerKind::VecMac: want = TOp::VecMac; break;
        case HandlerKind::VecDotp: want = TOp::VecDotp; break;
        case HandlerKind::VecExsdotp: want = TOp::VecExsdotp; break;
        case HandlerKind::Other: want = TOp::CallUop; break;
      }
      if (s.top != want) {
        slot_diag(std::string("FP token mismatch (expected ") +
                  top_name(want) + ")");
      }
    }

    if (!uop_equal(s.u, u)) {
      slot_diag("embedded micro-op differs from the source stream");
    }
    const std::uint16_t cyc = fixed_cycles(u, timing, mem);
    if (s.cycles != cyc) {
      slot_diag("precomputed slot cycles " + std::to_string(s.cycles) +
                " != fixed_cycles " + std::to_string(cyc));
    }

    sum_cycles += cyc;
    if (u.tclass == TimingClass::Load) ++n_loads;
    if (u.tclass == TimingClass::Store) ++n_stores;
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

  // Trace shape: ends in a terminator XOR carries a fall-through Exit slot.
  const bool terminated = is_terminator_top(t.slots[t.n - 1].top);
  if (terminated && t.slots.size() != t.n) {
    diag(anchor, "terminator-ended trace carries a trailing Exit slot");
  }
  if (!terminated) {
    if (t.slots.size() != t.n + 1) {
      diag(anchor, "open trace (no terminator) is missing its Exit slot");
    } else {
      const TraceSlot& ex = t.slots[t.n];
      if (ex.top != TOp::Exit) {
        diag(anchor, std::string("trailing slot is ") + top_name(ex.top) +
                         ", not Exit");
      } else if (ex.p1 != t.base_pc + 4 * t.n) {
        diag(anchor, "Exit fall-through pc " + std::to_string(ex.p1) +
                         " != base_pc + 4 * n");
      }
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
