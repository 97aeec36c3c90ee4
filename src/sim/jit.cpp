// Trace translation and execution for Engine::Jit (see jit.hpp).
//
// One executor, run_trace_full, runs a trace in place over the decoded
// program through computed-goto threaded dispatch (GCC and Clang support
// address-of-label; the repo builds with nothing else). Each micro-op's
// `cont` is the label of its token here, and a straight-line token's label
// expands the same body (sim/bodies.hpp) as its cold-tier handler, minus
// the pc bump. The executor books nothing per op and restarts internally
// on a taken back-edge to the trace head (hot loops never leave the
// executor); run_trace_full books the complete executions when the trace
// exits, and JitProgram::flush their per-op and per-pc counts when
// Core::run returns. A step budget shorter than the trace never reaches it:
// Core::run_jit hands that budget to the cold tier instead.
//
// Fault model: the only ops in a trace that can throw are the memory ops —
// the fourteen scalar loads/stores (the context's cached-base accessors,
// gated by the same predicate Memory uses) plus VMem, the VL-governed
// vector load/store whose handler faults through the same accessors. Every
// other body is total (FP ops saturate/flag, integer division is fully
// defined, set_x cannot fault). Memory labels therefore record the op's
// offset in `tr.cursor` before touching memory; the unwind path books the
// completed prefix and parks pc on the faulting instruction, exactly as the
// cold tier leaves it.
#include "sim/jit.hpp"

#include <chrono>
#include <cstdint>

#include "sim/bodies.hpp"
#include "sim/exec.hpp"

namespace sfrv::sim::jit {

namespace {

/// Book one retired straight-line op directly into `st` (fault unwinding).
/// Mirrors Core::account(); a straight-line op has no dynamic timing part.
inline void book_op(Stats& st, const DecodedOp& u, std::uint32_t idx) {
  st.cycles += u.cycles;
  ++st.instructions;
  switch (u.tclass) {
    case TimingClass::Load: ++st.load_count; break;
    case TimingClass::Store: ++st.store_count; break;
    default: break;
  }
  ++st.op_count[static_cast<std::size_t>(u.op)];
  st.pc_cycles[idx] += u.cycles;
}

// The six branch terminators: N = TOp name, OP = isa::Op condition.
#define SFRV_JIT_BRANCH_LIST(B) \
  B(Beq, BEQ) B(Bne, BNE) B(Blt, BLT) B(Bge, BGE) B(Bltu, BLTU) B(Bgeu, BGEU)

#if !defined(__GNUC__)
#error "the trace executor needs computed goto (GCC or Clang)"
#endif

/// The threaded trace executor. Query mode (`t == nullptr`): fill `labels`
/// (TOp order) and return — decode stores these as each micro-op's `cont`.
/// Execute mode: run the ops of `t` in place in `ops` to the trace end with
/// zero per-op accounting.
void trace_threaded(Trace* t, const DecodedOp* ops, ExecContext* cp,
                    const void** labels) {
  if (t == nullptr) {
#define SFRV_JIT_X(name) labels[static_cast<int>(TOp::name)] = &&L_##name;
    SFRV_TOP_LIST(SFRV_JIT_X)
#undef SFRV_JIT_X
    return;
  }
  Trace& tr = *t;
  ExecContext& c = *cp;
  const DecodedOp* const head = ops + tr.start_idx;
  const DecodedOp* s = head;
  goto* s->cont;

#define SFRV_JIT_NEXT() \
  do {                  \
    ++s;                \
    goto* s->cont;      \
  } while (0)

#define SFRV_JIT_S(name, body) \
  L_##name : {                 \
    const DecodedOp& u = *s;   \
    (void)u;                   \
    body;                      \
  }                            \
  SFRV_JIT_NEXT();
#define SFRV_JIT_M(name, body)                             \
  L_##name : {                                             \
    tr.cursor = static_cast<std::uint32_t>(s - head);      \
    const DecodedOp& u = *s;                               \
    body;                                                  \
  }                                                        \
  SFRV_JIT_NEXT();
  SFRV_STRAIGHT_BODIES(SFRV_JIT_S, SFRV_JIT_M)
  // The handler's pc bump is a dead store here: exits re-materialize pc.
  SFRV_JIT_M(VMem, u.fn(c, u))
  SFRV_JIT_S(CallUop, u.fn(c, u))
#undef SFRV_JIT_S
#undef SFRV_JIT_M

// Taken back-edge to the trace's own head: restart internally while the
// caller's run budget lasts — the whole loop executes without leaving
// threaded code. Any other ending is an exit; a taken one sets
// branch_taken for run_trace_full's booking.
#define SFRV_JIT_B(name, OP)                                          \
  L_##name : if (branch_taken<isa::Op::OP>(c.x[s->rs1], c.x[s->rs2])) { \
    if (s->p0 == tr.base_pc && tr.runs_left != 0) {                   \
      --tr.runs_left;                                                 \
      ++tr.runs_done;                                                 \
      s = head;                                                       \
      goto* s->cont;                                                  \
    }                                                                 \
    c.branch_taken = true;                                            \
    c.pc = s->p0;                                                     \
  }                                                                   \
  else {                                                              \
    c.pc = s->p1;                                                     \
  }                                                                   \
  return;
  SFRV_JIT_BRANCH_LIST(SFRV_JIT_B)
#undef SFRV_JIT_B

L_Jal:
  c.set_x(s->rd, s->p1);
  c.pc = s->p0;
  return;
L_Jalr : {
  const std::uint32_t target =
      (c.x[s->rs1] + static_cast<std::uint32_t>(s->imm)) & ~1u;
  c.set_x(s->rd, s->p1);
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

const void* const* threaded_labels() {
  static const void* labels[kNumTOps] = {};
  static const bool init = [] {
    trace_threaded(nullptr, nullptr, nullptr, labels);
    return true;
  }();
  (void)init;
  return labels;
}

}  // namespace

const void* token_label(TOp t) {
  return threaded_labels()[static_cast<int>(t)];
}

void Trace::charge(Stats& st, std::uint64_t runs, std::uint64_t taken) {
  st.cycles += runs * sum_cycles + taken * taken_extra;
  st.instructions += runs * n;
  st.load_count += runs * n_loads;
  st.store_count += runs * n_stores;
  pending_runs += runs;
  pending_taken += taken;
}

void Trace::flush(Stats& st, const std::vector<DecodedOp>& uops) {
  if (pending_runs == 0) return;
  for (const auto& [op, cnt] : op_counts) {
    st.op_count[op] += pending_runs * cnt;
  }
  for (std::uint32_t i = start_idx; i < start_idx + n; ++i) {
    st.pc_cycles[i] += pending_runs * uops[i].cycles;
  }
  st.pc_cycles[start_idx + n - 1] += pending_taken * taken_extra;
  pending_runs = 0;
  pending_taken = 0;
}

std::uint64_t run_trace_full(Trace& t, const std::vector<DecodedOp>& uops,
                             ExecContext& c, Stats& st,
                             std::uint64_t max_runs) {
  t.cursor = 0;
  t.runs_done = 0;
  t.runs_left = max_runs - 1 > 0x7fffffffu
                    ? 0x7fffffffu
                    : static_cast<std::uint32_t>(max_runs - 1);
  // Terminators publish the taken flag the way the cold tier does (cleared,
  // then set only by a taken branch).
  c.branch_taken = false;
  try {
    trace_threaded(&t, uops.data(), &c, nullptr);
  } catch (...) {
    // Book the internally-looped complete runs (each ended in its taken
    // back-edge), then the partial run: only memory ops fault, and the
    // faulting op recorded itself in cursor before the access, so
    // [0, cursor) is the completed prefix (none of which can be the branch
    // terminator).
    if (t.runs_done != 0) t.charge(st, t.runs_done, t.runs_done);
    for (std::uint32_t i = t.start_idx; i < t.start_idx + t.cursor; ++i) {
      book_op(st, uops[i], i);
    }
    c.pc = t.base_pc + 4 * t.cursor;
    throw;
  }
  // Every internal restart ended in the taken back-edge; the final run
  // ended in a taken branch only if the executor set branch_taken.
  const std::uint64_t runs = t.runs_done + 1;
  t.charge(st, runs, t.runs_done + (c.branch_taken ? 1 : 0));
  return runs;
}

void JitProgram::flush(Stats& st, const std::vector<DecodedOp>& uops) {
  for (Trace& t : traces_) t.flush(st, uops);
}

// ---- translation ------------------------------------------------------------

void JitProgram::on_code_change(std::size_t n_insts) {
  if (!traces_.empty()) ++stats_.invalidations;
  traces_.clear();
  trace_of_.assign(n_insts, -1);
}

Trace* JitProgram::lookup(std::uint32_t idx) {
  ++stats_.lookups;
  const std::int32_t id = trace_of_[idx];
  if (id < 0) return nullptr;
  ++stats_.hits;
  return &traces_[static_cast<std::size_t>(id)];
}

Trace* JitProgram::translate(std::uint32_t idx,
                             const std::vector<DecodedOp>& uops,
                             const Timing& timing, std::uint32_t text_base) {
  // A stop-class op leads no trace: the cold tier retires it.
  if (uops[idx].top == TOp::Exit) return nullptr;
  const auto t0 = std::chrono::steady_clock::now();

  // The maximal run: through the first terminator, or up to the first
  // stop-class op. The sentinel after the text is stop-class, so the walk
  // never leaves the program.
  std::uint32_t end = idx;
  while (uops[end].top != TOp::Exit) {
    if (is_terminator(uops[end++].top)) break;
  }

  Trace t;
  t.start_idx = idx;
  t.n = end - idx;
  t.base_pc = text_base + 4 * idx;
  t.taken_extra = static_cast<std::uint16_t>(timing.branch_taken_penalty);
  for (std::uint32_t j = idx; j < end; ++j) {
    const DecodedOp& u = uops[j];
    t.sum_cycles += u.cycles;
    if (u.tclass == TimingClass::Load) ++t.n_loads;
    else if (u.tclass == TimingClass::Store) ++t.n_stores;
    const auto op = static_cast<std::uint16_t>(u.op);
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

  trace_of_[idx] = static_cast<std::int32_t>(traces_.size());
  traces_.push_back(std::move(t));
  ++stats_.translations;
  stats_.ops += traces_.back().n;
  stats_.translate_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return &traces_.back();
}

}  // namespace sfrv::sim::jit
