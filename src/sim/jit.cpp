// Trace translation and execution for Engine::Jit (see jit.hpp).
//
// Two executors share one set of per-op bodies (the SFRV_JB_* macros, which
// replicate the decode.cpp handler semantics verbatim, minus the pc bump):
//
//  * run_trace_full — the hot path. Computed-goto threaded dispatch (GCC and
//    Clang support address-of-label; the repo builds with nothing else).
//    Books nothing per slot, restarts internally on a taken back-edge to the
//    trace head (hot loops never leave the executor), and reports the
//    number of complete executions for the caller's note_runs.
//  * run_trace_bounded — the exact-retirement path for Core::run(k)
//    lockstep semantics. A token switch executes exactly `budget < n`
//    slots, booking each one immediately (so no deferred state exists when
//    the run stops mid-trace), and re-materializes pc.
//
// Fault model: the only slot bodies that can throw are the memory ops —
// the fourteen scalar loads/stores (jm_* range checks, the same shared
// predicate Memory uses) plus VMem, the VL-governed vector load/store slot
// whose bound handler faults through Memory::check itself. Every other
// body is total (FP ops saturate/flag, integer division is fully defined,
// set_x cannot fault). Memory bodies therefore record their slot index in
// `tr.cursor` before touching memory; the unwind path books the completed
// prefix and parks pc on the faulting instruction, exactly as the
// predecoded engine leaves it.
#include "sim/jit.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/exec.hpp"

namespace sfrv::sim::jit {

namespace {

using U32 = std::uint32_t;
using U64 = std::uint64_t;
using I32 = std::int32_t;

/// Heat sentinel: the op at this index can never lead a trace (CSR or
/// unsupported); the cold tier runs it forever.
constexpr std::uint32_t kNever = 0xffffffffu;

std::atomic<std::uint32_t> g_default_threshold{8};

/// Book one retired slot directly into `st` (bounded runs and fault
/// unwinding). Mirrors Core::account() with the static cycle classes
/// pre-folded into slot.cycles; `extra` carries the dynamic taken-branch
/// penalty.
inline void book_slot(Stats& st, const Trace& tr, const TraceSlot* s,
                      std::uint64_t extra) {
  const std::uint64_t cyc = s->cycles + extra;
  st.cycles += cyc;
  ++st.instructions;
  switch (s->u.tclass) {
    case TimingClass::Load: ++st.load_count; break;
    case TimingClass::Store: ++st.store_count; break;
    default: break;
  }
  ++st.op_count[static_cast<std::size_t>(s->u.op)];
  st.pc_cycles[tr.start_idx +
               static_cast<std::size_t>(s - tr.slots.data())] += cyc;
}

// ---- slot bodies ------------------------------------------------------------
// Each macro sees `c` (ExecContext&), `s` (const TraceSlot*), `tr` (Trace&).
// ALU bodies assume rd != x0 (the translator lowers rd==x0 forms to Nop);
// load bodies keep the set_x guard because the access must still happen.

#define SFRV_JB_ALU(EXPR)                       \
  do {                                          \
    const U32 rs1 = c.x[s->u.rs1];              \
    const U32 rs2 = c.x[s->u.rs2];              \
    const U32 imm = static_cast<U32>(s->u.imm); \
    (void)rs1;                                  \
    (void)rs2;                                  \
    (void)imm;                                  \
    c.x[s->u.rd] = (EXPR);                      \
  } while (0)

#define SFRV_JB_Div                                     \
  do {                                                  \
    const auto a = static_cast<I32>(c.x[s->u.rs1]);     \
    const auto b = static_cast<I32>(c.x[s->u.rs2]);     \
    I32 q = -1;                                         \
    if (b == 0) {                                       \
      q = -1;                                           \
    } else if (a == INT32_MIN && b == -1) {             \
      q = INT32_MIN;                                    \
    } else {                                            \
      q = a / b;                                        \
    }                                                   \
    c.x[s->u.rd] = static_cast<U32>(q);                 \
  } while (0)

#define SFRV_JB_Rem                                     \
  do {                                                  \
    const auto a = static_cast<I32>(c.x[s->u.rs1]);     \
    const auto b = static_cast<I32>(c.x[s->u.rs2]);     \
    I32 r = a;                                          \
    if (b == 0) {                                       \
      r = a;                                            \
    } else if (a == INT32_MIN && b == -1) {             \
      r = 0;                                            \
    } else {                                            \
      r = a % b;                                        \
    }                                                   \
    c.x[s->u.rd] = static_cast<U32>(r);                 \
  } while (0)

#define SFRV_JB_CUR() \
  tr.cursor = static_cast<std::uint32_t>(s - tr.slots.data())

#define SFRV_JB_ADDR (c.x[s->u.rs1] + static_cast<U32>(s->u.imm))

// Memory access through the cached backing store (ExecContext::mem_base /
// mem_size) instead of the Memory object: the base pointer stays live in a
// register across the trace, where `mem->bytes_` would be re-loaded after
// every opaque call. The bounds test and exception are the shared
// mem_access_oob()/throw_mem_oob() from memory.hpp — the same predicate
// Memory::check() uses, so the two paths cannot drift. jm_oob stays a
// noinline trampoline to keep the throw machinery off the hot path.
[[noreturn, gnu::noinline]] void jm_oob(U32 addr) { throw_mem_oob(addr); }
inline void jm_check(const ExecContext& c, U32 addr, U32 n) {
  if (mem_access_oob(addr, n, c.mem_size)) jm_oob(addr);
}
inline std::uint8_t jm_ld8(const ExecContext& c, U32 a) {
  jm_check(c, a, 1);
  return c.mem_base[a];
}
inline std::uint16_t jm_ld16(const ExecContext& c, U32 a) {
  jm_check(c, a, 2);
  const std::uint8_t* p = c.mem_base + a;
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline U32 jm_ld32(const ExecContext& c, U32 a) {
  jm_check(c, a, 4);
  const std::uint8_t* p = c.mem_base + a;
  return static_cast<U32>(p[0]) | (static_cast<U32>(p[1]) << 8) |
         (static_cast<U32>(p[2]) << 16) | (static_cast<U32>(p[3]) << 24);
}
inline void jm_st8(const ExecContext& c, U32 a, std::uint8_t v) {
  jm_check(c, a, 1);
  c.mem_base[a] = v;
}
inline void jm_st16(const ExecContext& c, U32 a, std::uint16_t v) {
  jm_check(c, a, 2);
  std::uint8_t* p = c.mem_base + a;
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline void jm_st32(const ExecContext& c, U32 a, U32 v) {
  jm_check(c, a, 4);
  std::uint8_t* p = c.mem_base + a;
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

#define SFRV_JB_Lb                                                          \
  do {                                                                      \
    SFRV_JB_CUR();                                                          \
    c.set_x(s->u.rd, static_cast<U32>(static_cast<I32>(                     \
                         static_cast<std::int8_t>(jm_ld8(c,                 \
                             SFRV_JB_ADDR)))));                             \
  } while (0)
#define SFRV_JB_Lh                                                          \
  do {                                                                      \
    SFRV_JB_CUR();                                                          \
    c.set_x(s->u.rd, static_cast<U32>(static_cast<I32>(                     \
                         static_cast<std::int16_t>(jm_ld16(c,               \
                             SFRV_JB_ADDR)))));                             \
  } while (0)
#define SFRV_JB_Lw                                  \
  do {                                              \
    SFRV_JB_CUR();                                  \
    c.set_x(s->u.rd, jm_ld32(c, SFRV_JB_ADDR));     \
  } while (0)
#define SFRV_JB_Lbu                               \
  do {                                            \
    SFRV_JB_CUR();                                \
    c.set_x(s->u.rd, jm_ld8(c, SFRV_JB_ADDR));    \
  } while (0)
#define SFRV_JB_Lhu                                \
  do {                                             \
    SFRV_JB_CUR();                                 \
    c.set_x(s->u.rd, jm_ld16(c, SFRV_JB_ADDR));    \
  } while (0)
#define SFRV_JB_Sb                                                         \
  do {                                                                     \
    SFRV_JB_CUR();                                                         \
    jm_st8(c, SFRV_JB_ADDR, static_cast<std::uint8_t>(c.x[s->u.rs2]));     \
  } while (0)
#define SFRV_JB_Sh                                  \
  do {                                              \
    SFRV_JB_CUR();                                  \
    jm_st16(c, SFRV_JB_ADDR,                        \
            static_cast<std::uint16_t>(c.x[s->u.rs2])); \
  } while (0)
#define SFRV_JB_Sw                                  \
  do {                                              \
    SFRV_JB_CUR();                                  \
    jm_st32(c, SFRV_JB_ADDR, c.x[s->u.rs2]);        \
  } while (0)
#define SFRV_JB_Flw                                       \
  do {                                                    \
    SFRV_JB_CUR();                                        \
    c.write_fp(s->u.rd, 32, jm_ld32(c, SFRV_JB_ADDR));    \
  } while (0)
#define SFRV_JB_Flh                                       \
  do {                                                    \
    SFRV_JB_CUR();                                        \
    c.write_fp(s->u.rd, 16, jm_ld16(c, SFRV_JB_ADDR));    \
  } while (0)
#define SFRV_JB_Flb                                      \
  do {                                                   \
    SFRV_JB_CUR();                                       \
    c.write_fp(s->u.rd, 8, jm_ld8(c, SFRV_JB_ADDR));     \
  } while (0)
#define SFRV_JB_Fsw                                                      \
  do {                                                                   \
    SFRV_JB_CUR();                                                       \
    jm_st32(c, SFRV_JB_ADDR,                                             \
            static_cast<U32>(c.read_fp(s->u.rs2, 32)));                  \
  } while (0)
#define SFRV_JB_Fsh                                                      \
  do {                                                                   \
    SFRV_JB_CUR();                                                       \
    jm_st16(c, SFRV_JB_ADDR,                                             \
            static_cast<std::uint16_t>(c.read_fp(s->u.rs2, 16)));        \
  } while (0)
#define SFRV_JB_Fsb                                                      \
  do {                                                                   \
    SFRV_JB_CUR();                                                       \
    jm_st8(c, SFRV_JB_ADDR,                                              \
           static_cast<std::uint8_t>(c.read_fp(s->u.rs2, 8)));           \
  } while (0)

// Generic scalar FP binary op: h_fp_bin inlined, calling the bound
// softfloat pointer directly (works under either backend).
#define SFRV_JB_FPBIN()                                        \
  do {                                                         \
    fp::Flags fl;                                              \
    const fp::RoundingMode rm = c.resolve_rm(s->u.rm);         \
    const U64 a = c.read_fp(s->u.rs1, s->u.width);             \
    const U64 b = c.read_fp(s->u.rs2, s->u.width);             \
    c.write_fp(s->u.rd, s->u.width, s->u.fp1.bin(a, b, rm, fl)); \
    c.fflags |= fl.bits;                                       \
  } while (0)

// Generic packed binary op (h_vec_bin inlined): only the lanes active under
// the live vl compute, and the destination tail is preserved. The keep mask
// is computed from active * width (one shift) rather than cached in p0 — p0
// is 32 bits and FLEN=64 masks would truncate.
#define SFRV_JB_VECBIN()                                           \
  do {                                                             \
    fp::Flags fl;                                                  \
    const int active = c.vl_active(s->u.lanes);                    \
    const U64 r = s->u.fp1.vbin(c.f[s->u.rs1], c.f[s->u.rs2],      \
                                active, s->u.replicate,            \
                                c.frm_mode(), fl);                 \
    const U64 keep = width_mask(active * s->u.width);              \
    c.f[s->u.rd] = ((r & keep) | (c.f[s->u.rd] & ~keep)) &         \
                   c.flen_mask;                                    \
    c.fflags |= fl.bits;                                           \
  } while (0)

// Generic packed multiply-accumulate (h_vec_mac inlined; live vl as in
// SFRV_JB_VECBIN).
#define SFRV_JB_VECMAC()                                           \
  do {                                                             \
    fp::Flags fl;                                                  \
    const int active = c.vl_active(s->u.lanes);                    \
    const U64 r = s->u.fp1.vtern(c.f[s->u.rs1], c.f[s->u.rs2],     \
                                 c.f[s->u.rd], active,             \
                                 s->u.replicate, c.frm_mode(), fl); \
    const U64 keep = width_mask(active * s->u.width);              \
    c.f[s->u.rd] = ((r & keep) | (c.f[s->u.rd] & ~keep)) &         \
                   c.flen_mask;                                    \
    c.fflags |= fl.bits;                                           \
  } while (0)

// Expanding dot product with a binary32 scalar accumulator (h_vec_dotp
// inlined): only the active lanes contribute; the accumulator is a full
// scalar write, so no tail merge is needed.
#define SFRV_JB_VECDOTP()                                            \
  do {                                                               \
    fp::Flags fl;                                                    \
    const U64 acc = c.read_fp(s->u.rd, 32);                          \
    c.write_fp(s->u.rd, 32,                                          \
               s->u.fp1.vdotp(c.f[s->u.rs1], c.f[s->u.rs2], acc,     \
                              c.vl_active(s->u.lanes),               \
                              s->u.replicate, c.frm_mode(), fl));    \
    c.fflags |= fl.bits;                                             \
  } while (0)

// Widening sum-of-dot-products: full-register packed wide accumulator
// (h_vec_exsdotp inlined). `active` counts narrow lanes; the keep mask
// covers the ceil(active/2) wide accumulators they feed.
#define SFRV_JB_VECEXSDOTP()                                         \
  do {                                                               \
    fp::Flags fl;                                                    \
    const int active = c.vl_active(s->u.lanes);                      \
    const U64 r = s->u.fp1.vdotp(c.f[s->u.rs1], c.f[s->u.rs2],       \
                                 c.f[s->u.rd], active,               \
                                 s->u.replicate, c.frm_mode(), fl);  \
    const U64 keep = width_mask((active + 1) / 2 * 2 * s->u.width);  \
    c.f[s->u.rd] = ((r & keep) | (c.f[s->u.rd] & ~keep)) &           \
                   c.flen_mask;                                      \
    c.fflags |= fl.bits;                                             \
  } while (0)

// The straight-line body list, shared by both executors. B(name, body)
// expands once per non-terminating TOp (terminators and Exit exist only in
// the threaded executor: a bounded run never reaches them).
#define SFRV_JIT_STRAIGHT_BODIES(B)                                          \
  B(Nop, do { } while (0))                                                   \
  B(LoadImm, c.x[s->u.rd] = s->p0)                                           \
  B(Addi, SFRV_JB_ALU(rs1 + imm))                                            \
  B(Slti, c.x[s->u.rd] =                                                     \
        static_cast<I32>(c.x[s->u.rs1]) < s->u.imm ? 1 : 0)                  \
  B(Sltiu, SFRV_JB_ALU(rs1 < imm ? 1 : 0))                                   \
  B(Xori, SFRV_JB_ALU(rs1 ^ imm))                                            \
  B(Ori, SFRV_JB_ALU(rs1 | imm))                                             \
  B(Andi, SFRV_JB_ALU(rs1 & imm))                                            \
  B(Slli, SFRV_JB_ALU(rs1 << (imm & 31)))                                    \
  B(Srli, SFRV_JB_ALU(rs1 >> (imm & 31)))                                    \
  B(Srai, SFRV_JB_ALU(static_cast<U32>(static_cast<I32>(rs1) >>              \
                                       (imm & 31))))                         \
  B(Add, SFRV_JB_ALU(rs1 + rs2))                                             \
  B(Sub, SFRV_JB_ALU(rs1 - rs2))                                             \
  B(Sll, SFRV_JB_ALU(rs1 << (rs2 & 31)))                                     \
  B(Slt, SFRV_JB_ALU(static_cast<I32>(rs1) < static_cast<I32>(rs2) ? 1 : 0)) \
  B(Sltu, SFRV_JB_ALU(rs1 < rs2 ? 1 : 0))                                    \
  B(Xor, SFRV_JB_ALU(rs1 ^ rs2))                                             \
  B(Srl, SFRV_JB_ALU(rs1 >> (rs2 & 31)))                                     \
  B(Sra, SFRV_JB_ALU(static_cast<U32>(static_cast<I32>(rs1) >>               \
                                      (rs2 & 31))))                          \
  B(Or, SFRV_JB_ALU(rs1 | rs2))                                              \
  B(And, SFRV_JB_ALU(rs1 & rs2))                                             \
  B(Mul, SFRV_JB_ALU(rs1 * rs2))                                             \
  B(Mulh, SFRV_JB_ALU(static_cast<U32>(                                      \
        (static_cast<std::int64_t>(static_cast<I32>(rs1)) *                  \
         static_cast<std::int64_t>(static_cast<I32>(rs2))) >> 32)))          \
  B(Mulhsu, SFRV_JB_ALU(static_cast<U32>(                                    \
        (static_cast<std::int64_t>(static_cast<I32>(rs1)) *                  \
         static_cast<std::int64_t>(rs2)) >> 32)))                            \
  B(Mulhu, SFRV_JB_ALU(static_cast<U32>(                                     \
        (static_cast<U64>(rs1) * rs2) >> 32)))                               \
  B(Div, SFRV_JB_Div)                                                        \
  B(Divu, SFRV_JB_ALU(rs2 == 0 ? ~0u : rs1 / rs2))                           \
  B(Rem, SFRV_JB_Rem)                                                        \
  B(Remu, SFRV_JB_ALU(rs2 == 0 ? rs1 : rs1 % rs2))                           \
  B(Lb, SFRV_JB_Lb)                                                          \
  B(Lh, SFRV_JB_Lh)                                                          \
  B(Lw, SFRV_JB_Lw)                                                          \
  B(Lbu, SFRV_JB_Lbu)                                                        \
  B(Lhu, SFRV_JB_Lhu)                                                        \
  B(Sb, SFRV_JB_Sb)                                                          \
  B(Sh, SFRV_JB_Sh)                                                          \
  B(Sw, SFRV_JB_Sw)                                                          \
  B(Flw, SFRV_JB_Flw)                                                        \
  B(Flh, SFRV_JB_Flh)                                                        \
  B(Flb, SFRV_JB_Flb)                                                        \
  B(Fsw, SFRV_JB_Fsw)                                                        \
  B(Fsh, SFRV_JB_Fsh)                                                        \
  B(Fsb, SFRV_JB_Fsb)                                                        \
  B(VMem, do { SFRV_JB_CUR(); s->u.fn(c, s->u); } while (0))                 \
  B(CallUop, s->u.fn(c, s->u))                                               \
  B(FpBin, SFRV_JB_FPBIN())                                                  \
  B(VecBin, SFRV_JB_VECBIN())                                                \
  B(VecMac, SFRV_JB_VECMAC())                                                \
  B(VecDotp, SFRV_JB_VECDOTP())                                              \
  B(VecExsdotp, SFRV_JB_VECEXSDOTP())

// The six branch terminators: N = TOp name, OP = isa::Op condition.
#define SFRV_JIT_BRANCH_LIST(B) \
  B(Beq, BEQ) B(Bne, BNE) B(Blt, BLT) B(Bge, BGE) B(Bltu, BLTU) B(Bgeu, BGEU)

#if !defined(__GNUC__)
#error "the trace executor needs computed goto (GCC or Clang)"
#endif

/// The threaded full-trace executor. Query mode (`t == nullptr`): fill
/// `labels` (TOp enum order) and return — the translator stores these as
/// each slot's continuation. Execute mode: run every slot to the trace end
/// with zero per-slot accounting.
void trace_threaded(Trace* t, ExecContext* cp, const void** labels) {
  if (t == nullptr) {
#define SFRV_JIT_X(name) labels[static_cast<int>(TOp::name)] = &&L_##name;
    SFRV_JIT_TOP_LIST(SFRV_JIT_X)
#undef SFRV_JIT_X
    return;
  }
  Trace& tr = *t;
  ExecContext& c = *cp;
  const TraceSlot* s = tr.slots.data();
  goto* s->cont;

#define SFRV_JIT_NEXT() \
  do {                  \
    ++s;                \
    goto* s->cont;      \
  } while (0)

#define SFRV_JIT_B(name, body) \
  L_##name : body;             \
  SFRV_JIT_NEXT();
  SFRV_JIT_STRAIGHT_BODIES(SFRV_JIT_B)
#undef SFRV_JIT_B

// Taken back-edge to the trace's own head: restart internally while the
// caller's run budget lasts — the whole loop executes without leaving
// threaded code. Any other ending is a side exit.
#define SFRV_JIT_B(name, OP)                                              \
  L_##name : if (branch_taken<isa::Op::OP>(c.x[s->u.rs1], c.x[s->u.rs2])) { \
    c.branch_taken = true;                                                \
    if (s->p0 == tr.base_pc && tr.runs_left != 0) {                       \
      --tr.runs_left;                                                     \
      ++tr.runs_done;                                                     \
      s = tr.slots.data();                                                \
      goto* s->cont;                                                      \
    }                                                                     \
    ++tr.pending_taken;                                                   \
    c.pc = s->p0;                                                         \
  }                                                                       \
  else {                                                                  \
    c.pc = s->p1;                                                         \
  }                                                                       \
  return;
  SFRV_JIT_BRANCH_LIST(SFRV_JIT_B)
#undef SFRV_JIT_B

L_Jal:
  c.set_x(s->u.rd, s->p1);
  c.pc = s->p0;
  return;
L_Jalr : {
  const U32 target = (c.x[s->u.rs1] + static_cast<U32>(s->u.imm)) & ~1u;
  c.set_x(s->u.rd, s->p1);
  c.pc = target;
  return;
}
L_Halt:
  c.halted = true;
  c.pc = s->p1;
  return;
L_Exit:
  c.pc = s->p1;
  return;
#undef SFRV_JIT_NEXT
}

/// The bounded exact-retirement executor: a token switch that executes
/// exactly `budget` slots (0 < budget < n), booking each one immediately,
/// and leaves pc at the next unexecuted instruction. Only slots before the
/// last one run, and a trace holds a terminator only in its last slot (the
/// translator stops at the first one; the trace checker enforces it), so
/// every slot run here is straight-line.
void run_switch(Trace& tr, ExecContext& c, Stats& st, std::uint64_t budget) {
  const TraceSlot* s = tr.slots.data();
  for (std::uint64_t done = 0; done < budget; ++done, ++s) {
    switch (s->top) {
#define SFRV_JIT_B(name, body) \
  case TOp::name:              \
    body;                      \
    break;
      SFRV_JIT_STRAIGHT_BODIES(SFRV_JIT_B)
#undef SFRV_JIT_B
#define SFRV_JIT_B(name, OP) case TOp::name:
      SFRV_JIT_BRANCH_LIST(SFRV_JIT_B)
#undef SFRV_JIT_B
      case TOp::Jal:
      case TOp::Jalr:
      case TOp::Halt:
      case TOp::Exit:
        throw std::logic_error("jit: bounded run reached a trace terminator");
    }
    book_slot(st, tr, s, 0);
  }
  c.pc = tr.base_pc + 4 * static_cast<U32>(budget);
}

const void* const* threaded_labels() {
  static const void* labels[kNumTOps] = {};
  static const bool init = [] {
    trace_threaded(nullptr, nullptr, labels);
    return true;
  }();
  (void)init;
  return labels;
}

}  // namespace

std::uint32_t default_threshold() {
  return g_default_threshold.load(std::memory_order_relaxed);
}

void set_default_threshold(std::uint32_t threshold) {
  g_default_threshold.store(threshold, std::memory_order_relaxed);
}

void Trace::charge(Stats& st, std::uint64_t runs, std::uint64_t taken) const {
  st.cycles += runs * sum_cycles + taken * taken_extra;
  st.instructions += runs * n;
  st.load_count += runs * n_loads;
  st.store_count += runs * n_stores;
  for (const auto& [op, cnt] : op_counts) {
    st.op_count[op] += runs * cnt;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    st.pc_cycles[start_idx + i] += runs * slots[i].cycles;
  }
  if (taken != 0) {
    st.pc_cycles[start_idx + n - 1] += taken * taken_extra;
  }
}

void Trace::materialize(Stats& st) {
  if (pending != 0) charge(st, pending, pending_taken);
  pending = 0;
  pending_taken = 0;
  dirty = false;
}

std::uint64_t run_trace_full(Trace& t, ExecContext& c, Stats& st,
                             std::uint64_t max_runs) {
  t.cursor = 0;
  t.runs_done = 0;
  t.runs_left = max_runs - 1 > 0x7fffffffu
                    ? 0x7fffffffu
                    : static_cast<std::uint32_t>(max_runs - 1);
  try {
    trace_threaded(&t, &c, nullptr);
  } catch (...) {
    // Internally-looped complete runs haven't been recorded anywhere yet —
    // charge them straight into `st` (each ended in its taken back-edge).
    // Then book the partial run: only memory slots fault, and the faulting
    // slot recorded itself in cursor before the access, so [0, cursor) is
    // the completed prefix (none of which can be the branch terminator —
    // extra stays 0).
    if (t.runs_done != 0) t.charge(st, t.runs_done, t.runs_done);
    for (std::uint32_t i = 0; i < t.cursor; ++i) {
      book_slot(st, t, &t.slots[i], 0);
    }
    c.pc = t.base_pc + 4 * t.cursor;
    throw;
  }
  return t.runs_done + 1;
}

void run_trace_bounded(Trace& t, ExecContext& c, Stats& st,
                       std::uint64_t budget) {
  t.cursor = 0;
  try {
    run_switch(t, c, st, budget);
  } catch (...) {
    // Completed slots were already booked; just re-materialize pc.
    c.pc = t.base_pc + 4 * t.cursor;
    throw;
  }
}

// ---- translation ------------------------------------------------------------

namespace {

enum class Lowered : std::uint8_t { Straight, Terminator, Untranslatable };

/// Lower one micro-op into a trace slot; `pc` is its absolute address (for
/// folding auipc/jal/branch constants).
Lowered lower_slot(const DecodedOp& u, std::uint32_t pc, const Timing& timing,
                   const MemConfig& mem, TraceSlot& s) {
  using isa::Op;
  if (!u.supported || u.fn == nullptr) return Lowered::Untranslatable;
  s.u = u;
  s.cycles = fixed_cycles(u, timing, mem);
  // CSR reads observe the live cycle/instret counters mid-execution: they
  // stay on the cold tier, which books every retired op immediately.
  if (isa::op_class(u.op) == isa::Cls::Csr) return Lowered::Untranslatable;

  const auto alu = [&](TOp top) {
    s.top = u.rd == 0 ? TOp::Nop : top;
    return Lowered::Straight;
  };
  const auto memop = [&](TOp top) {
    s.top = top;
    return Lowered::Straight;
  };
  switch (u.op) {
    case Op::LUI:
      s.p0 = static_cast<std::uint32_t>(u.imm);
      return alu(TOp::LoadImm);
    case Op::AUIPC:
      s.p0 = pc + static_cast<std::uint32_t>(u.imm);
      return alu(TOp::LoadImm);
    case Op::JAL:
      s.top = TOp::Jal;
      s.p0 = pc + static_cast<std::uint32_t>(u.imm);
      s.p1 = pc + 4;
      return Lowered::Terminator;
    case Op::JALR:
      s.top = TOp::Jalr;
      s.p1 = pc + 4;
      return Lowered::Terminator;
#define SFRV_JIT_X(name, OP)                        \
  case Op::OP:                                      \
    s.top = TOp::name;                              \
    s.p0 = pc + static_cast<std::uint32_t>(u.imm);  \
    s.p1 = pc + 4;                                  \
    return Lowered::Terminator;
      SFRV_JIT_BRANCH_LIST(SFRV_JIT_X)
#undef SFRV_JIT_X
    case Op::LB: return memop(TOp::Lb);
    case Op::LH: return memop(TOp::Lh);
    case Op::LW: return memop(TOp::Lw);
    case Op::LBU: return memop(TOp::Lbu);
    case Op::LHU: return memop(TOp::Lhu);
    case Op::SB: return memop(TOp::Sb);
    case Op::SH: return memop(TOp::Sh);
    case Op::SW: return memop(TOp::Sw);
    case Op::FLW: return memop(TOp::Flw);
    case Op::FLH: return memop(TOp::Flh);
    case Op::FLB: return memop(TOp::Flb);
    case Op::FSW: return memop(TOp::Fsw);
    case Op::FSH: return memop(TOp::Fsh);
    case Op::FSB: return memop(TOp::Fsb);
    // VL-governed vector memops keep their bound handler (which reads the
    // live vl) but need the cursor-recording VMem slot: the handler can
    // fault mid-element through Memory::check, and a plain CallUop would
    // leave a stale cursor for the unwind path to book against.
    case Op::VFLB:
    case Op::VFLH:
    case Op::VFSB:
    case Op::VFSH:
      return memop(TOp::VMem);
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
    case Op::FENCE:
      s.top = TOp::Nop;
      return Lowered::Straight;
    case Op::ECALL:
    case Op::EBREAK:
      s.top = TOp::Halt;
      s.p1 = pc + 4;
      return Lowered::Terminator;
    default:
      break;
  }
  // Everything else is a scalar/vector FP op whose handler touches only
  // registers, fflags, vl-governed lanes, and pc (+4, a dead store inside a
  // trace). The five common handler shapes inline as dedicated slots
  // calling the bound softfloat pointer directly; the rest keep the
  // predecoded handler call. Defensively keep any residual control/system
  // class on the interpreter.
  switch (isa::op_class(u.op)) {
    case isa::Cls::Branch:
    case isa::Cls::Jump:
    case isa::Cls::Sys:
    case isa::Cls::Csr:
      return Lowered::Untranslatable;
    default:
      break;
  }
  switch (u.hkind) {
    case HandlerKind::FpBin: s.top = TOp::FpBin; break;
    case HandlerKind::VecBin: s.top = TOp::VecBin; break;
    case HandlerKind::VecMac: s.top = TOp::VecMac; break;
    case HandlerKind::VecDotp: s.top = TOp::VecDotp; break;
    case HandlerKind::VecExsdotp: s.top = TOp::VecExsdotp; break;
    case HandlerKind::Other: s.top = TOp::CallUop; break;
  }
  return Lowered::Straight;
}

}  // namespace

void JitProgram::on_code_change(std::size_t n_uops) {
  if (!traces_.empty()) ++stats_.invalidations;
  traces_.clear();
  slot_of_.assign(n_uops, -1);
  dirty_.clear();
  heat_.assign(n_uops, 0);
}

Trace* JitProgram::lookup(std::uint32_t idx) {
  ++stats_.lookups;
  const std::int32_t id = slot_of_[idx];
  if (id < 0) return nullptr;
  ++stats_.hits;
  return &traces_[static_cast<std::size_t>(id)];
}

bool JitProgram::note_entry(std::uint32_t idx) {
  std::uint32_t& h = heat_[idx];
  if (h == kNever) return false;
  if (h < kNever - 1) ++h;
  return h > threshold_;
}

Trace* JitProgram::translate(std::uint32_t idx,
                             const std::vector<DecodedOp>& uops,
                             const Timing& timing, const MemConfig& mem,
                             std::uint32_t text_base, Stats& st) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto charge = [&] {
    stats_.translate_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  Trace t;
  t.start_idx = idx;
  t.base_pc = text_base + 4 * idx;
  t.taken_extra = static_cast<std::uint16_t>(timing.branch_taken_penalty);
  bool terminated = false;
  for (std::uint32_t j = idx;
       j < uops.size() && t.slots.size() < kMaxTraceSlots; ++j) {
    TraceSlot s;
    const Lowered r =
        lower_slot(uops[j], text_base + 4 * j, timing, mem, s);
    if (r == Lowered::Untranslatable) break;
    t.slots.push_back(s);
    if (r == Lowered::Terminator) {
      terminated = true;
      break;
    }
  }
  if (t.slots.empty()) {
    // The leading op itself is untranslatable: pin the index so entry
    // counting stops and the cold tier keeps it (its immediate accounting
    // is required for CSR reads anyway).
    heat_[idx] = kNever;
    charge();
    return nullptr;
  }

  t.n = static_cast<std::uint32_t>(t.slots.size());
  for (const TraceSlot& s : t.slots) {
    t.sum_cycles += s.cycles;
    if (s.u.tclass == TimingClass::Load) ++t.n_loads;
    else if (s.u.tclass == TimingClass::Store) ++t.n_stores;
    const auto op = static_cast<std::uint16_t>(s.u.op);
    bool found = false;
    for (auto& oc : t.op_counts) {
      if (oc.first == op) {
        ++oc.second;
        found = true;
        break;
      }
    }
    if (!found) t.op_counts.emplace_back(op, 1);
  }
  if (!terminated) {
    TraceSlot ex;
    ex.top = TOp::Exit;
    ex.p1 = t.base_pc + 4 * t.n;
    t.slots.push_back(ex);
  }
  const void* const* labels = threaded_labels();
  for (TraceSlot& s : t.slots) {
    s.cont = labels[static_cast<int>(s.top)];
  }

  if (traces_.size() >= cap_) {
    // Flush-all eviction: cheap, and heat survives so hot blocks recompile
    // on their next entry. Deferred accounting must land first.
    materialize_all(st);
    traces_.clear();
    slot_of_.assign(slot_of_.size(), -1);
    ++stats_.evictions;
  }
  const auto id = static_cast<std::int32_t>(traces_.size());
  t.id = id;
  traces_.push_back(std::move(t));
  slot_of_[idx] = id;
  ++stats_.translations;
  stats_.slots += traces_.back().n;
  charge();
  return &traces_.back();
}

void JitProgram::materialize_all(Stats& st) {
  if (dirty_.empty()) return;
  for (const std::uint32_t id : dirty_) {
    traces_[id].materialize(st);
  }
  dirty_.clear();
}

void JitProgram::note_runs(Trace& t, std::uint64_t runs) {
  if (!t.dirty) {
    t.dirty = true;
    // Ids stay valid until the next wholesale flush, which materializes
    // every dirty trace first.
    dirty_.push_back(static_cast<std::uint32_t>(t.id));
  }
  t.pending += runs;
  // Every internal restart ended in the taken back-edge; the final exit's
  // taken-ness was recorded by the executor itself. Each restart is also a
  // block entry that found compiled code — count it toward the hit rate.
  t.pending_taken += runs - 1;
  stats_.lookups += runs - 1;
  stats_.hits += runs - 1;
}

}  // namespace sfrv::sim::jit
