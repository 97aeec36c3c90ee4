// RV32IMF + smallFloat functional simulator with a RISCY-like timing model.
//
// Substitution note: this core stands in for the PULP virtual platform. It
// executes the same instruction stream a RISCY + FPnew core would, produces
// bit-accurate FP results through the soft-float library, and accounts cycles
// with the in-order single-issue model of timing.hpp. FP registers are FLEN
// bits wide; packed-SIMD lanes follow paper Table II.
//
// Scalar sub-FLEN results are written NaN-boxed (upper bits all ones, the
// RISC-V convention); reads take the low bits without a box check because the
// vectorial extension legitimately leaves packed data in the registers (the
// same relaxation the PULP FPU makes when Xfvec is enabled).
//
// Two execution engines share the architectural state (ExecContext):
//  * Engine::Jit (default): load_program decodes the text once into the
//    micro-op program (sim/decode.hpp): each op carries its executor token,
//    a resolved handler pointer, lane plan, pre-bound softfloat entry
//    points, timing class, and its folded targets and fixed cycles. Every
//    block compiles on its first entry into a trace (sim/jit.hpp): a range
//    of the same micro-ops plus aggregated accounting, run in place by the
//    threaded executor, which books the aggregates as the trace exits. The
//    cold tier (run_cold) is the only micro-op walker: it retires a
//    stop-class op, the one op of step(), and the ops a step budget still
//    covers when it ends inside a trace.
//  * Engine::Reference: the original switch-tree interpreter, retained both
//    as the oracle for the differential suite and as the baseline the
//    dispatch bench measures against.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "asmb/program.hpp"
#include "isa/isa.hpp"
#include "sim/decode.hpp"
#include "sim/exec.hpp"
#include "sim/jit.hpp"
#include "sim/memory.hpp"
#include "sim/stats.hpp"
#include "sim/timing.hpp"

namespace sfrv::sim {

/// Execution engine selection (see Core's header comment). The values are
/// stable identifiers; 0 and 2 belonged to retired engines and stay unused.
enum class Engine : std::uint8_t { Reference = 1, Jit = 3 };

/// Every engine with its stable lowercase name, in listing order. The
/// single source for engine_name/engine_from_name and sfrv-eval's usage
/// text, `--list engines`, and `--engine` error.
struct EngineEntry {
  Engine engine;
  std::string_view name;
};
inline constexpr std::array<EngineEntry, 2> kEngines{{
    {Engine::Reference, "reference"},
    {Engine::Jit, "jit"},
}};

/// The kEngines names used by the CLI and the eval report JSON.
[[nodiscard]] std::string_view engine_name(Engine e);
/// Every engine name, '|'-separated ("reference|jit").
[[nodiscard]] std::string engine_names();
/// Parse an engine name; throws std::runtime_error on an unknown one.
[[nodiscard]] Engine engine_from_name(std::string_view name);

namespace detail {
/// The memberwise-movable state of a Core, split into a base so Core's
/// move operations can delegate the member list to the compiler and only fix
/// up the context's environment pointers afterwards. Memory is move-only, so
/// this state is too.
struct CoreState {
  isa::IsaConfig cfg_;
  Memory mem_;
  Timing timing_;
  Stats stats_;
  ExecContext ctx_;
  Engine engine_ = Engine::Jit;
  fp::MathBackend backend_ = fp::MathBackend::Grs;

  std::uint32_t text_base_ = 0;
  std::vector<isa::Inst> decoded_;   // predecoded text (no self-modifying code)
  std::vector<DecodedOp> uops_;      // decoded program: same indexing + sentinel
  jit::JitProgram jit_;              // translation cache (Engine::Jit)
};
}  // namespace detail

class Core : private detail::CoreState {
 public:
  explicit Core(isa::IsaConfig cfg = isa::IsaConfig::full(),
                MemConfig mem_cfg = {}, Timing timing = {});

  // Move-only, like its Memory. A move re-points the context's environment
  // pointers at this instance's Memory/Stats (the context otherwise keeps
  // aiming at the source Core's members), and re-points the source's at its
  // own emptied Memory, so the moved-from Core's cached base is null and
  // every access throws instead of reaching the mapping it handed over.
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;
  Core(Core&& other) noexcept : detail::CoreState(std::move(other)) {
    rebind_context();
    other.rebind_context();  // NOLINT(bugprone-use-after-move)
  }
  Core& operator=(Core&& other) noexcept {
    if (this != &other) {
      detail::CoreState::operator=(std::move(other));
      rebind_context();
      other.rebind_context();  // NOLINT(bugprone-use-after-move)
    }
    return *this;
  }
  ~Core() = default;

  using Engine = sim::Engine;
  /// Select the execution engine; takes effect at the next run()/step().
  void set_engine(Engine e) { engine_ = e; }
  [[nodiscard]] Engine engine() const { return engine_; }

  /// Select the softfloat math backend (fp::MathBackend). The jit engine
  /// binds its micro-op entry points from the selected table family, so
  /// switching after load_program re-decodes the text and drops every
  /// compiled trace. The reference interpreter is the frozen
  /// pre-refactor oracle and always computes through the Grs routines; the
  /// backends are bit- and fflags-identical, so architectural results never
  /// depend on this choice (the conformance suites enforce it).
  void set_backend(fp::MathBackend b);
  [[nodiscard]] fp::MathBackend backend() const { return backend_; }

  /// Copy a program image into memory, point the PC at its entry, set up the
  /// stack pointer, and decode the text into the micro-op program.
  void load_program(const asmb::Program& prog);

  enum class RunResult { Halted, MaxStepsReached };

  /// Execute until ebreak/ecall or the step limit.
  RunResult run(std::uint64_t max_steps = 400'000'000);

  /// Execute a single instruction.
  void step();

  [[nodiscard]] bool halted() const { return ctx_.halted; }
  [[nodiscard]] std::uint32_t exit_code() const { return ctx_.x[10]; }

  // ---- architectural state (owned by the ExecContext) ----
  [[nodiscard]] std::uint32_t pc() const { return ctx_.pc; }
  void set_pc(std::uint32_t pc) { ctx_.pc = pc; }
  [[nodiscard]] std::uint32_t x(unsigned i) const { return ctx_.x[i & 31]; }
  void set_x(unsigned i, std::uint32_t v) { ctx_.set_x(i, v); }
  /// Raw FP register bits (low `flen` bits are valid).
  [[nodiscard]] std::uint64_t f_bits(unsigned i) const {
    return ctx_.f[i & 31];
  }
  void set_f_bits(unsigned i, std::uint64_t v) {
    ctx_.f[i & 31] = v & ctx_.flen_mask;
  }
  [[nodiscard]] std::uint8_t fflags() const { return ctx_.fflags; }
  void set_fflags(std::uint8_t v) { ctx_.fflags = v & 0x1f; }
  [[nodiscard]] fp::RoundingMode frm() const { return ctx_.frm_mode(); }
  void set_frm(fp::RoundingMode rm) {
    ctx_.frm = static_cast<std::uint8_t>(rm);
  }

  [[nodiscard]] Memory& memory() { return mem_; }
  [[nodiscard]] const Memory& memory() const { return mem_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void clear_stats() { stats_.clear(); }
  [[nodiscard]] const isa::IsaConfig& config() const { return cfg_; }
  [[nodiscard]] const Timing& timing() const { return timing_; }

  /// Direct access to the execution context (for piecewise engine tests).
  [[nodiscard]] ExecContext& context() { return ctx_; }

  // ---- Engine::Jit telemetry (sim/jit.hpp) ----
  /// Compiled traces currently cached (at most one per text index).
  [[nodiscard]] std::size_t jit_cache_size() const { return jit_.size(); }
  [[nodiscard]] const jit::JitStats& jit_stats() const {
    return jit_.stats();
  }

 private:
  void rebind_context() {
    ctx_.mem_base = mem_.data();
    ctx_.mem_size = mem_.size();
    ctx_.stats = &stats_;
  }

  /// pc -> micro-op index with the fetch checks of step(); throws SimError.
  [[nodiscard]] std::uint32_t fetch_index(std::uint32_t pc) const;
  /// Post-execution bookkeeping for one micro-op retired by the cold tier:
  /// dynamic-outcome timing, cycle/instret counters, per-op and per-pc
  /// attribution.
  void account(const DecodedOp& u, std::uint32_t idx);

  // Trace-compilation engine (Engine::Jit, see sim/jit.hpp).
  RunResult run_jit(std::uint64_t max_steps);
  /// The JIT's cold tier and the only micro-op walker: retire exactly
  /// `count` micro-ops from text index `idx` (already fetch-checked),
  /// booking each as it retires. `count` is 1 (a stop-class op, or step())
  /// or a step budget that ends inside the trace at `idx`, whose first
  /// `count` ops are then straight-line.
  void run_cold(std::uint32_t idx, std::uint64_t count);

  // Reference interpreter (the retained pre-refactor execute path).
  void step_reference(std::uint32_t idx);
  void execute(const isa::Inst& i);
  void exec_int(const isa::Inst& i);
  void exec_fp_scalar(const isa::Inst& i);
  void exec_fp_vector(const isa::Inst& i);
  void exec_csr(const isa::Inst& i);
  [[nodiscard]] std::uint32_t csr_read(std::int32_t addr) const;
  void csr_write(std::int32_t addr, std::uint32_t v);

  [[nodiscard]] std::uint64_t mask_flen(std::uint64_t v) const {
    return v & ctx_.flen_mask;
  }
  [[nodiscard]] std::uint64_t read_fp(unsigned reg, int width) const {
    return ctx_.read_fp(reg, width);
  }
  void write_fp(unsigned reg, int width, std::uint64_t bits) {
    ctx_.write_fp(reg, width, bits);
  }
  [[nodiscard]] fp::RoundingMode resolve_rm(std::uint8_t rm_field) const {
    return ctx_.resolve_rm(rm_field);
  }
};

}  // namespace sfrv::sim
