// Engine::Jit: threaded-code trace compilation over the predecoded micro-op
// stream.
//
// The cold tier (Core::run_cold) pays, per retired instruction, one indirect
// call plus operand unpacking and a handful of accounting stores. This layer
// removes those by *translating* hot straight-line runs instead of
// interpreting them:
//
//  * `JitProgram::translate` lowers the maximal straight-line run starting
//    at a text index — up to the next terminator (branch/jump/halt) or the
//    first untranslatable op — into a contiguous array of `TraceSlot`s.
//    Each slot carries a *specialized* opcode token (`TOp`), the original
//    micro-op (operands pre-resolved at decode time), and every constant
//    the interpreter would recompute per visit folded in at translation
//    time: absolute branch/jump targets, link values (pc+4), auipc results,
//    and the op's fixed cycle cost (`fixed_cycles`, the same function
//    Core::account books through).
//  * The trace executor (jit.cpp) dispatches slot-to-slot with computed
//    goto (`cont` holds the label address; GCC and Clang both support it):
//    no per-op indirect call for the integer/memory/control core of the
//    ISA, and the common FP handler shapes inlined as slot bodies that call
//    the bound softfloat pointer directly — under the fast backend that
//    pointer is the fast kernel. Everything else (remaining softfloat ops,
//    converts) keeps the micro-op's handler call, minus the accounting
//    overhead.
//  * Interior slots never write `pc`: control-flow constants are absolute,
//    so `pc` materializes only at side exits (terminators, the fall-through
//    `Exit` slot, or a memory fault).
//  * A branch terminator whose taken target is the trace's own head (the
//    compiled shape of every inner loop) restarts the trace *inside* the
//    executor, up to the step budget: a hot loop pays the driver's
//    lookup/dispatch cost once per entry, not once per iteration.
//
// Cycle identity. A completed trace books *nothing* per slot: the translator
// aggregates the trace's total cycles, instruction/load/store counts, and
// per-op retirement counts, and the executor just increments a per-trace
// `pending` counter (plus `pending_taken` for a taken branch terminator).
// `materialize_all` multiplies the aggregates out into `Stats` — including
// the per-pc cycle attribution — before any observation point: CSR reads
// (CSR ops never translate; the driver flushes before every cold-tier
// block), Core::run returning, exceptions, and cache invalidation. A fault
// books the completed prefix per-slot, and a step budget shorter than the
// trace runs on the cold tier, which books every op as it retires, so
// simulated cycles, fflags, and architectural digests stay bit-identical to
// Engine::Reference.
//
// Translation cache. Traces are keyed on the starting text index alone
// within a (backend, code version) generation. A trace is valid at every
// dynamic vector length: packed slots read the live vl CSR on every visit,
// exactly as the micro-op handlers do, so a strip-mined loop re-entering
// its body under a new VL replays the same trace. `Core::set_backend` and
// `load_program` re-lower the micro-op stream and call `on_code_change`,
// which drops every trace (stale bound pointers must not survive). A
// hotness threshold keeps cold blocks on the cold tier (Core::run_cold, a
// walk over the predecoded micro-ops to the block end) — a block only
// compiles after `threshold` cold entries — and a cache cap bounds
// translated memory for pathological programs (flush-all eviction; heat
// survives, so hot blocks recompile on their next entry). Mid-block `jalr`
// entry simply misses the cache at that index and either runs cold or
// compiles a suffix trace — either way architecturally identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/decode.hpp"
#include "sim/memory.hpp"
#include "sim/stats.hpp"
#include "sim/timing.hpp"

namespace sfrv::sim::jit {

// Specialized trace opcodes. Order is load-bearing: the threaded executor's
// label table is generated from this list.
//   Nop       — fence, and any rd=x0 ALU op (architecturally pure).
//   LoadImm   — lui, and auipc with pc+imm folded (p0 = value).
//   CallUop   — generic FP/vector op: calls the micro-op's bound handler
//               (its pc bump is a dead store; exits re-materialize pc).
//   VMem      — VL-governed vector load/store (vflb/vflh/vfsb/vfsh):
//               records the fault cursor, then calls the bound handler
//               (which can throw on an out-of-bounds element access).
//   FpBin/VecBin/VecMac/VecDotp/VecExsdotp — the common FP handler
//               shapes, inlined as slot bodies calling the *bound* softfloat
//               pointer directly (skips the handler trampoline; the same
//               body serves either backend). Packed bodies read the live vl.
//   Exit      — fall-through trace end: sets pc = p1, retires nothing.
#define SFRV_JIT_TOP_LIST(X)                                              \
  X(Nop) X(LoadImm)                                                       \
  X(Addi) X(Slti) X(Sltiu) X(Xori) X(Ori) X(Andi)                         \
  X(Slli) X(Srli) X(Srai)                                                 \
  X(Add) X(Sub) X(Sll) X(Slt) X(Sltu) X(Xor) X(Srl) X(Sra) X(Or) X(And)   \
  X(Mul) X(Mulh) X(Mulhsu) X(Mulhu) X(Div) X(Divu) X(Rem) X(Remu)         \
  X(Lb) X(Lh) X(Lw) X(Lbu) X(Lhu) X(Sb) X(Sh) X(Sw)                       \
  X(Flw) X(Flh) X(Flb) X(Fsw) X(Fsh) X(Fsb) X(VMem)                       \
  X(CallUop) X(FpBin) X(VecBin) X(VecMac) X(VecDotp) X(VecExsdotp)        \
  X(Beq) X(Bne) X(Blt) X(Bge) X(Bltu) X(Bgeu)                             \
  X(Jal) X(Jalr) X(Halt) X(Exit)

enum class TOp : std::uint8_t {
#define SFRV_JIT_X(name) name,
  SFRV_JIT_TOP_LIST(SFRV_JIT_X)
#undef SFRV_JIT_X
};

constexpr std::size_t kNumTOps = 0
#define SFRV_JIT_X(name) +1
    SFRV_JIT_TOP_LIST(SFRV_JIT_X)
#undef SFRV_JIT_X
    ;

/// Straight-line runs longer than this end in an open (Exit) trace; the
/// continuation compiles as its own trace at the next entry. Public so the
/// trace checker (sim/verify.cpp) can bound t.n.
inline constexpr std::size_t kMaxTraceSlots = 512;

/// One translated instruction. `u` is the original micro-op (register
/// numbers, immediate, bound softfloat entries); `p0`/`p1` are constants
/// folded at translation time:
///   LoadImm:      p0 = value (imm, or pc+imm for auipc)
///   Jal:          p0 = absolute target, p1 = link (pc+4)
///   Jalr:         p1 = link (target is dynamic: (x[rs1]+imm)&~1)
///   Beq..Bgeu:    p0 = absolute taken target, p1 = fall-through pc
///   Halt:         p1 = pc+4
///   Exit:         p1 = fall-through pc past the trace
struct TraceSlot {
  const void* cont = nullptr;  ///< threaded continuation (label address)
  DecodedOp u;
  TOp top = TOp::Nop;
  std::uint16_t cycles = 0;  ///< fixed_cycles() — excludes taken penalty
  std::uint32_t p0 = 0;
  std::uint32_t p1 = 0;
};

/// A compiled straight-line trace plus its pre-aggregated accounting.
/// `slots` holds `n` retiring slots, followed by one non-retiring Exit slot
/// iff the trace ends by falling through (no terminator).
struct Trace {
  std::vector<TraceSlot> slots;
  std::uint32_t start_idx = 0;  ///< text index of the first slot
  std::uint32_t base_pc = 0;    ///< text_base + 4 * start_idx
  std::int32_t id = -1;         ///< stable index into JitProgram's deque
  std::uint32_t n = 0;          ///< instructions retired by a full execution
  std::uint64_t sum_cycles = 0;  ///< sum of slot cycles (no taken penalty)
  std::uint32_t n_loads = 0;
  std::uint32_t n_stores = 0;
  std::uint16_t taken_extra = 0;  ///< timing.branch_taken_penalty
  /// Deduplicated (isa::Op, count) pairs for op_count materialization.
  std::vector<std::pair<std::uint16_t, std::uint32_t>> op_counts;

  // Deferred accounting: complete executions since the last materialize.
  // Zero whenever control is outside Core::run() — every observation point
  // flushes first.
  std::uint64_t pending = 0;
  std::uint64_t pending_taken = 0;  ///< of `pending`, taken-branch endings
  bool dirty = false;               ///< pending != 0 (on JitProgram's list)

  /// Index of the last *memory* slot entered by the current execution; a
  /// fault can only originate there (every other slot body is total), so
  /// the unwind path books slots [0, cursor) and re-materializes pc.
  std::uint32_t cursor = 0;

  // Loop scratch for run_trace_full: when the trace's branch terminator is
  // taken *back to this trace's own head* (the compiled shape of every inner
  // loop), the executor restarts from slot 0 internally instead of exiting
  // to the driver — `runs_left` caps the restarts (budget / n - 1) and
  // `runs_done` counts them. Each internal restart is a complete execution
  // ending in a taken branch.
  std::uint32_t runs_left = 0;
  std::uint32_t runs_done = 0;

  /// Book `runs` complete executions (of which `taken` ended in a taken
  /// branch) directly into `st`. Shared by materialize() and the fault
  /// unwind path (which must land internally-looped runs before rethrow).
  void charge(Stats& st, std::uint64_t runs, std::uint64_t taken) const;

  /// Book `pending` complete executions into `st` and reset.
  void materialize(Stats& st);
};

/// Translation/execution telemetry (bench columns, tests).
struct JitStats {
  std::uint64_t lookups = 0;       ///< block entries routed through the cache
  std::uint64_t hits = 0;          ///< entries that found a compiled trace
  std::uint64_t translations = 0;  ///< traces compiled
  std::uint64_t slots = 0;         ///< retiring slots compiled
  std::uint64_t interp_entries = 0;  ///< block entries run by the cold tier
  std::uint64_t evictions = 0;       ///< cap-triggered flush-all evictions
  std::uint64_t invalidations = 0;   ///< on_code_change flushes
  /// Always 0: traces are valid at every VL, so no lookup unmaps one. Kept
  /// because the repo benchmark's traced report still reads it.
  std::uint64_t vl_invalidations = 0;
  std::uint64_t translate_ns = 0;    ///< wall time spent translating

  [[nodiscard]] double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Process-wide default hotness threshold for new cores (sfrv-eval
/// --jit-threshold): a block runs on the cold tier until it has been
/// entered more than `threshold` times, then compiles. 0 compiles on
/// first entry. Never affects simulated results, only wall clock.
[[nodiscard]] std::uint32_t default_threshold();
void set_default_threshold(std::uint32_t threshold);

/// The per-core translation cache + hotness state. It moves with its Core
/// (Core is move-only); traces are stored in a deque so pointers handed to
/// the executor stay stable while the cache grows.
class JitProgram {
 public:
  static constexpr std::uint32_t kDefaultCacheCap = 4096;

  JitProgram() : threshold_(default_threshold()) {}

  /// New text segment or re-lowered backend: drop every trace and all heat
  /// (stale bound pointers must not survive). Callers materialize first;
  /// outside Core::run() nothing is pending.
  void on_code_change(std::size_t n_uops);

  /// The compiled trace starting at text index `idx`, or null. Counts
  /// toward the hit rate.
  [[nodiscard]] Trace* lookup(std::uint32_t idx);

  /// Record one cold entry at `idx`; true when the block just crossed the
  /// hotness threshold and should be compiled now.
  [[nodiscard]] bool note_entry(std::uint32_t idx);

  /// Compile the straight-line run starting at `idx`. Returns null (and
  /// pins `idx` as never-compile) when the op at `idx` itself is
  /// untranslatable — the cold tier keeps it, booking every op as it
  /// retires (CSR reads observe live counters). May flush the whole
  /// cache first when the cap is reached (materializing into `st`).
  Trace* translate(std::uint32_t idx, const std::vector<DecodedOp>& uops,
                   const Timing& timing, const MemConfig& mem,
                   std::uint32_t text_base, Stats& st);

  /// Flush every trace's deferred accounting into `st`. Cheap when clean.
  void materialize_all(Stats& st);

  /// Record `runs` successful full executions of `t` from one
  /// run_trace_full call: the first `runs - 1` ended in the taken back-edge
  /// that restarted the trace (internal loops), so they also count as cache
  /// hits — each back-edge is a block entry that found compiled code.
  void note_runs(Trace& t, std::uint64_t runs);

  /// Record one block entry run by the cold tier.
  void note_interp() { ++stats_.interp_entries; }

  void set_threshold(std::uint32_t t) { threshold_ = t; }
  [[nodiscard]] std::uint32_t threshold() const { return threshold_; }
  void set_cache_cap(std::uint32_t cap) { cap_ = cap == 0 ? 1 : cap; }
  [[nodiscard]] std::uint32_t cache_cap() const { return cap_; }

  [[nodiscard]] std::size_t size() const { return traces_.size(); }
  [[nodiscard]] const JitStats& stats() const { return stats_; }

 private:
  std::deque<Trace> traces_;
  /// Direct-mapped text index -> trace id (-1 = none): the per-block-entry
  /// lookup is one array load, not a hash probe.
  std::vector<std::int32_t> slot_of_;
  std::vector<std::uint32_t> heat_;   ///< per-index entries; kNever pins
  std::vector<std::uint32_t> dirty_;  ///< trace ids with pending != 0
  std::uint32_t threshold_;
  std::uint32_t cap_ = kDefaultCacheCap;
  JitStats stats_;
};

/// Execute `t` to its end, restarting internally (up to `max_runs` total
/// executions) whenever the branch terminator takes its back-edge to the
/// trace's own head — a hot inner loop runs to completion without ever
/// leaving threaded code. Defers all accounting: the caller records the
/// returned number of complete executions via JitProgram::note_runs. On a
/// memory fault, charges completed internal runs, books the completed
/// prefix of the partial run per-slot into `st`, sets pc to the faulting
/// instruction, and rethrows. The caller must have cleared `branch_taken`
/// and guaranteed budget >= max_runs * t.n, max_runs >= 1.
std::uint64_t run_trace_full(Trace& t, ExecContext& c, Stats& st,
                             std::uint64_t max_runs);

}  // namespace sfrv::sim::jit
