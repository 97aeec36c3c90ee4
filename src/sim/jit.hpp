// Engine::Jit: threaded-code trace execution over the decoded micro-op
// program.
//
// The cold tier (Core::run_cold) pays, per retired instruction, one indirect
// call plus operand unpacking and a handful of accounting stores. This layer
// removes those by running every straight-line run as a *trace*:
//
//  * A trace is a range [start, start+n) of the decoded program (held by
//    text index, so it survives a Core move) plus pre-aggregated accounting.
//    It copies nothing: decode already gave every micro-op its executor
//    token and label (`cont`) and folded every constant the interpreter
//    would recompute per visit -- absolute branch/jump targets, link values
//    (pc+4), lui/auipc values, and the op's fixed cycle cost.
//    `JitProgram::translate` finds the maximal run from a text index: up to
//    and including the next terminator (branch/jump/halt), or up to the
//    next stop-class op (CSR op, unsupported or decoder-gap op, or the
//    sentinel after the last instruction), which the run never includes.
//    `setvl` is straight-line, so a strip-mined loop body is one trace.
//  * The trace executor (jit.cpp) runs the decoded program in place from
//    the trace head, dispatching op to op with computed goto (`cont` holds
//    the label address; GCC and Clang both support it): no per-op indirect
//    call for the integer/memory/control core of the ISA, and the common FP
//    shapes inlined as bodies that call the bound softfloat pointer
//    directly — under the fast backend that pointer is the fast kernel. The
//    straight-line bodies are the same ones the cold-tier handlers run
//    (sim/bodies.hpp). Everything else (remaining softfloat ops, converts)
//    keeps the micro-op's handler call, minus the accounting overhead.
//  * Interior ops never write `pc`: control-flow constants are absolute, so
//    `pc` materializes only at exits (terminators, the stop-class op after
//    an open trace, or a memory fault).
//  * A branch terminator whose taken target is the trace's own head (the
//    compiled shape of every inner loop) restarts the trace *inside* the
//    executor, up to the step budget: a hot loop pays the driver's
//    lookup/dispatch cost once per entry, not once per iteration.
//
// Cycle identity. The executor books *nothing* per op: the translator
// aggregates the trace's total cycles, instruction/load/store counts, and
// per-op retirement counts, and run_trace_full multiplies them out into
// `Stats` — including the per-pc cycle attribution — when the trace exits,
// for the complete executions of that call and the taken endings among them.
// `Stats` is therefore exact whenever control is outside the executor. CSR
// ops stay stop-class because the ops before them in the same trace run
// would not be booked yet. A fault books the completed prefix per op, and a
// step budget shorter than the trace runs on the cold tier, which books
// every op as it retires, so simulated cycles, fflags, and architectural
// digests stay bit-identical to Engine::Reference.
//
// Translation cache. Every block compiles on its first entry. Traces are
// keyed on the starting text index alone within a (backend, code version)
// generation; there is at most one per index, so the cache is bounded by
// the text. A trace is valid at every dynamic vector length: packed bodies
// read the live vl CSR on every visit, exactly as the handlers do, so a
// strip-mined loop re-entering its body under a new VL replays the same
// trace. `Core::set_backend` and `load_program` re-decode the program and
// call `on_code_change`, which drops every trace. A stop-class op cannot
// lead a trace: `translate` rejects it and the cold tier retires it alone,
// after which the rest of its block compiles as a suffix trace. Mid-block
// `jalr` entry likewise misses the cache at that index and compiles a
// suffix trace — architecturally identical either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/decode.hpp"
#include "sim/stats.hpp"
#include "sim/timing.hpp"

namespace sfrv::sim::jit {

/// A compiled straight-line trace: the decoded ops [start_idx,
/// start_idx + n) plus their pre-aggregated accounting. The last op is a
/// terminator, or the op after the range is stop-class (an open trace).
struct Trace {
  std::uint32_t start_idx = 0;  ///< text index of the first op
  std::uint32_t n = 0;          ///< instructions retired by a full execution
  std::uint32_t base_pc = 0;    ///< text_base + 4 * start_idx
  std::uint64_t sum_cycles = 0;  ///< sum of the ops' cycles (no taken penalty)
  std::uint32_t n_loads = 0;
  std::uint32_t n_stores = 0;
  std::uint16_t taken_extra = 0;  ///< timing.branch_taken_penalty
  /// Deduplicated (isa::Op, count) pairs for op_count booking.
  std::vector<std::pair<std::uint16_t, std::uint32_t>> op_counts;

  /// Offset of the last *memory* op entered by the current execution; a
  /// fault can only originate there (every other body is total), so the
  /// unwind path books ops [0, cursor) and re-materializes pc.
  std::uint32_t cursor = 0;

  // Loop scratch for run_trace_full: when the trace's branch terminator is
  // taken *back to this trace's own head* (the compiled shape of every
  // inner loop), the executor restarts from the head internally instead of
  // exiting to run_jit — `runs_left` caps the restarts (budget / n - 1)
  // and `runs_done` counts them. Each internal restart is a complete
  // execution ending in a taken branch.
  std::uint32_t runs_left = 0;
  std::uint32_t runs_done = 0;

  /// Book `runs` complete executions (of which `taken` ended in a taken
  /// branch) of this range of `uops` into `st`.
  void charge(Stats& st, const std::vector<DecodedOp>& uops,
              std::uint64_t runs, std::uint64_t taken) const;
};

/// Translation/execution telemetry (bench columns, tests).
struct JitStats {
  std::uint64_t lookups = 0;       ///< block entries routed through the cache
  std::uint64_t hits = 0;          ///< entries that found a compiled trace
  std::uint64_t translations = 0;  ///< traces compiled
  std::uint64_t ops = 0;           ///< ops covered by compiled traces
  /// Cold-tier entries from Core::run: a stop-class op, or a step budget
  /// that ends inside a trace.
  std::uint64_t interp_entries = 0;
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

/// The per-core translation cache. It moves with its Core (Core is
/// move-only); traces are stored in a deque so pointers handed to the
/// executor stay stable while the cache grows.
class JitProgram {
 public:
  /// New text segment or re-decoded backend: drop every trace. `n_insts`
  /// is the text size.
  void on_code_change(std::size_t n_insts);

  /// The compiled trace starting at text index `idx`, or null. Counts
  /// toward the hit rate.
  [[nodiscard]] Trace* lookup(std::uint32_t idx);

  /// Compile the straight-line run of `uops` (a decode_program result)
  /// starting at `idx`. Returns null when the op at `idx` itself is
  /// stop-class: the cold tier retires it, booking it at once (CSR reads
  /// observe live counters).
  Trace* translate(std::uint32_t idx, const std::vector<DecodedOp>& uops,
                   const Timing& timing, std::uint32_t text_base);

  /// Record `runs` complete executions from one run_trace_full call: the
  /// first `runs - 1` ended in the taken back-edge that restarted the trace
  /// (internal loops), so they count as cache hits — each back-edge is a
  /// block entry that found compiled code.
  void note_runs(std::uint64_t runs) {
    stats_.lookups += runs - 1;
    stats_.hits += runs - 1;
  }

  /// Record one cold-tier entry from Core::run.
  void note_interp() { ++stats_.interp_entries; }

  [[nodiscard]] std::size_t size() const { return traces_.size(); }
  [[nodiscard]] const JitStats& stats() const { return stats_; }

 private:
  std::deque<Trace> traces_;
  /// Direct-mapped text index -> trace id (-1 = none): the per-block-entry
  /// lookup is one array load, not a hash probe.
  std::vector<std::int32_t> trace_of_;
  JitStats stats_;
};

/// Execute `t` in place over `uops` to its end, restarting internally (up
/// to `max_runs` total executions) whenever the branch terminator takes its
/// back-edge to the trace's own head — a hot inner loop runs to completion
/// without ever leaving threaded code — then book the complete executions
/// into `st` and return their number. On a memory fault, books the
/// completed internal runs and the completed prefix of the partial run per
/// op, sets pc to the faulting instruction, and rethrows. The caller must
/// guarantee budget >= max_runs * t.n, max_runs >= 1.
std::uint64_t run_trace_full(Trace& t, const std::vector<DecodedOp>& uops,
                             ExecContext& c, Stats& st,
                             std::uint64_t max_runs);

}  // namespace sfrv::sim::jit
