// Decode layer: lowers isa::Inst into the micro-op program both engine
// tiers run.
//
// The reference interpreter (retained in core.cpp) re-resolves three
// decisions for every executed instruction: the op-class switch in
// execute(), the per-op switch in the exec_* families, and the per-lane
// format switch inside every fp::rt_* call. DecodedOp hoists all three to
// program-load time, together with every constant the engine would
// otherwise recompute per visit: each instruction is lowered once into
//   * its executor token (`top`) and that token's label in the threaded
//     trace executor (`cont`),
//   * a handler pointer (`fn`) for the cold tier -- for a straight-line
//     token, the token's one body (sim/bodies.hpp) plus `pc += 4`,
//   * a lane plan (format, element width, SIMD lane count, .R replication),
//   * pre-bound softfloat entry points from the per-(op, format) tables in
//     softfloat/runtime.hpp (`fp1`/`fp2`),
//   * folded constants: branch/jump targets, link values, the lui/auipc
//     value (`p0`/`p1`), and the fixed cycle cost (`cycles`).
// The JIT's cold tier (Core::run_cold) retires one with an indirect call
// plus a small timing adjustment; a compiled trace (sim/jit.hpp) is a
// range of the same micro-ops, run in place by the threaded executor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/isa.hpp"
#include "sim/exec.hpp"
#include "sim/timing.hpp"
#include "softfloat/runtime.hpp"

namespace sfrv::sim {

/// The dynamic-outcome-dependent part of the timing model, resolved at
/// decode time so the cold tier switches on five values instead of ~30 op
/// classes.
/// Loads, stores, and jumps have fixed extra costs (folded into `cycles`);
/// Branch is the only class whose cost depends on the outcome.
enum class TimingClass : std::uint8_t { None, Load, Store, Jump, Branch };

/// Branch condition of the six RV32I branch ops, shared by the micro-op
/// branch handlers (decode.cpp) and the JIT's branch labels (jit.cpp)
/// so the semantics live once. (The reference interpreter keeps its own
/// switch: it is the verbatim pre-refactor oracle and intentionally shares
/// no code with the engines it checks.)
template <isa::Op B>
[[nodiscard]] constexpr bool branch_taken(std::uint32_t a, std::uint32_t b) {
  if constexpr (B == isa::Op::BEQ) return a == b;
  if constexpr (B == isa::Op::BNE) return a != b;
  if constexpr (B == isa::Op::BLT) {
    return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
  }
  if constexpr (B == isa::Op::BGE) {
    return static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
  }
  if constexpr (B == isa::Op::BLTU) return a < b;
  if constexpr (B == isa::Op::BGEU) return a >= b;
}

// Executor tokens. Order is load-bearing: the threaded executor's label
// table is generated from this list, and the terminators Beq..Halt are
// contiguous.
//   Nop       — fence, and any rd=x0 ALU op, lui, or auipc (pure).
//   LoadImm   — lui, and auipc with pc+imm folded (p0 = value).
//   Addi..Remu, Lb..Fsb, FpBin..VecExsdotp
//             — straight-line ops with one body each (sim/bodies.hpp):
//               the 27 integer-ALU ops, the 14 scalar loads/stores, and
//               the seven common FP shapes (scalar two-operand op, fmadd,
//               FP<->FP convert, and the four packed shapes), which call
//               the *bound* softfloat pointer (the same body serves either
//               backend; packed bodies read the live vl).
//   Setvl     — setvl, straight-line with one body (sim/bodies.hpp):
//               lanes = VLMAX for its element width, width2 = its cap.
//   CallUop   — any other FP/vector op: runs its hand-written handler
//               (inside a trace its pc bump is a dead store).
//   VMem      — VL-governed vector load/store (vflb/vflh/vfsb/vfsh): the
//               executor records the fault cursor, then runs the handler.
//   Beq..Bgeu — branches: p0 = taken target, p1 = fall-through pc.
//   Jal       — p0 = target, p1 = link (pc+4).
//   Jalr      — p1 = link (the target is dynamic: (x[rs1]+imm)&~1).
//   Halt      — ecall/ebreak: p1 = pc+4.
//   Exit      — stop class: a CSR op, an unsupported op, an op the decoder
//               has no handler for, or the sentinel past the last
//               instruction. Never part of a trace: the executor exits with
//               pc = p1, the op's own pc, retiring nothing.
#define SFRV_TOP_LIST(X)                                                  \
  X(Nop) X(LoadImm)                                                       \
  X(Addi) X(Slti) X(Sltiu) X(Xori) X(Ori) X(Andi)                         \
  X(Slli) X(Srli) X(Srai)                                                 \
  X(Add) X(Sub) X(Sll) X(Slt) X(Sltu) X(Xor) X(Srl) X(Sra) X(Or) X(And)   \
  X(Mul) X(Mulh) X(Mulhsu) X(Mulhu) X(Div) X(Divu) X(Rem) X(Remu)         \
  X(Lb) X(Lh) X(Lw) X(Lbu) X(Lhu) X(Sb) X(Sh) X(Sw)                       \
  X(Flw) X(Flh) X(Flb) X(Fsw) X(Fsh) X(Fsb) X(VMem) X(Setvl)              \
  X(CallUop) X(FpBin) X(FpFma) X(FpCvt)                                   \
  X(VecBin) X(VecMac) X(VecDotp) X(VecExsdotp)                            \
  X(Beq) X(Bne) X(Blt) X(Bge) X(Bltu) X(Bgeu)                             \
  X(Jal) X(Jalr) X(Halt) X(Exit)

enum class TOp : std::uint8_t {
#define SFRV_TOP_X(name) name,
  SFRV_TOP_LIST(SFRV_TOP_X)
#undef SFRV_TOP_X
};

constexpr std::size_t kNumTOps = 0
#define SFRV_TOP_X(name) +1
    SFRV_TOP_LIST(SFRV_TOP_X)
#undef SFRV_TOP_X
    ;

/// Branches, jal, jalr, and ecall/ebreak: a trace's last op.
[[nodiscard]] constexpr bool is_terminator(TOp t) {
  return t >= TOp::Beq && t <= TOp::Halt;
}

namespace jit {
/// The threaded executor's label for token `t` (defined in jit.cpp).
/// Decode stores it in every micro-op as `cont`.
[[nodiscard]] const void* token_label(TOp t);
}  // namespace jit

struct DecodedOp {
  /// Bound softfloat entry point; the active member is fixed by `fn`.
  union FpFn {
    fp::RtBinFn bin;
    fp::RtTernFn tern;
    fp::RtUnFn un;
    fp::RtCmpFn cmp;
    fp::RtClassFn cls;
    fp::RtToI32Fn to_i32;
    fp::RtToU32Fn to_u32;
    fp::RtFromI32Fn from_i32;
    fp::RtFromU32Fn from_u32;
    fp::RtCvtFn cvt;
    fp::RtVecBinFn vbin;
    fp::RtVecTernFn vtern;
    fp::RtVecUnFn vun;
    fp::RtVecCmpFn vcmp;
    fp::RtVecDotpFn vdotp;
    void* raw;
  };

  const void* cont = nullptr;  ///< jit::token_label(top)
  ExecFn fn = nullptr;         ///< cold-tier handler
  FpFn fp1{.raw = nullptr};
  FpFn fp2{.raw = nullptr};
  std::int32_t imm = 0;
  std::uint32_t p0 = 0;       ///< folded constant, per token (see TOp)
  std::uint32_t p1 = 0;       ///< folded constant, per token (see TOp)
  /// Cycles the op retires with, except a taken branch's refetch penalty:
  /// its base cycles plus the fixed memory latency (loads/stores) or jump
  /// penalty, all constant for a core's lifetime. Both tiers book it.
  std::uint16_t cycles = 1;
  isa::Op op = isa::Op::EBREAK;  ///< for stats, tracing, and error messages
  std::uint8_t rd = 0, rs1 = 0, rs2 = 0, rs3 = 0;
  std::uint8_t rm = 0;        ///< raw rm field; resolved against frm per step
  std::uint8_t width = 0;     ///< destination FP element width in bits
  std::uint8_t width2 = 0;    ///< source FP width for conversions
  std::uint8_t lanes = 0;     ///< SIMD lane count (0 for scalar ops)
  bool replicate = false;     ///< .R variant: broadcast lane 0 of rs2
  bool supported = true;      ///< false: `fn` raises SimError when reached
  fp::FpFormat fmt = fp::FpFormat::F32;
  TimingClass tclass = TimingClass::None;
  TOp top = TOp::Exit;
};

// Both tiers stream the decoded program: keep a micro-op within 72 bytes.
static_assert(sizeof(DecodedOp) <= 72);

/// Lower the instruction at address `pc` into a micro-op for the given
/// configuration. Instructions the configuration does not implement decode
/// to a stop-class handler that raises SimError on execution -- matching
/// the reference interpreter, which faults only when the PC actually
/// reaches the instruction. `backend` selects which softfloat table family
/// (fp::rt_ops and friends) the micro-op's entry points are bound from; the
/// backends are bit- and fflags-identical, so it only changes wall-clock
/// time.
[[nodiscard]] DecodedOp decode_op(const isa::Inst& inst, std::uint32_t pc,
                                  const isa::IsaConfig& cfg,
                                  const Timing& timing, const MemConfig& mem,
                                  fp::MathBackend backend = fp::MathBackend::Grs);

/// Lower a whole text segment: index i is the instruction at
/// text_base + 4*i, and one stop-class sentinel follows the last one (it is
/// not an instruction: a fetch there still faults, and executing it raises
/// the same fetch fault).
[[nodiscard]] std::vector<DecodedOp> decode_program(
    const std::vector<isa::Inst>& text, std::uint32_t text_base,
    const isa::IsaConfig& cfg, const Timing& timing, const MemConfig& mem,
    fp::MathBackend backend = fp::MathBackend::Grs);

}  // namespace sfrv::sim
