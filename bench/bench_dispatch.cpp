// Simulator dispatch bench: instruction throughput (MIPS) of both engines
// -- the reference interpreter and the jit trace-compilation engine -- on
// five loop shapes: integer-only ALU, scalar binary32 FP, packed-SIMD
// f8/f16, and a realistic vectorized kernel inner loop over non-zero and
// over all-zero data. The jit rows also record the translation-time share
// of wall clock and the trace-cache hit rate. The jit is additionally
// measured under both math backends (grs = guard/round/sticky softfloat,
// fast = exact host-double intermediates for f8 through f32, rounded once);
// the backend column is the speedup of fast over grs on the jit. Writes BENCH_dispatch.json
// (path overridable via argv[1]) so the speedups from the jit and the math
// backend land in the bench trajectory.
// The second section measures *simulated cycles* of glue-bound lowered
// kernels at each post-lowering optimization level (ir/opt.hpp O0/O1/O2):
// unrolling + pointer strength reduction + dead-glue elimination attack the
// scalar address-generation and loop-control glue this file's wall-clock
// rows showed dominating the paper-sized kernels. The "kernel_opt" JSON
// array records the per-level cycle counts and the O2/O0 reduction.
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "asmb/assembler.hpp"
#include "kernels/polybench.hpp"
#include "kernels/runner.hpp"
#include "sim/core.hpp"

namespace {

using sfrv::asmb::Assembler;
using sfrv::isa::Op;
using sfrv::sim::Core;
namespace reg = sfrv::asmb::reg;

struct Workload {
  std::string name;
  sfrv::asmb::Program prog;
};

constexpr int kIters = 400'000;

/// Wrap `body` in a kIters countdown loop (t0 is the counter).
sfrv::asmb::Program make_loop(const std::function<void(Assembler&)>& body) {
  Assembler a;
  a.li(reg::t0, kIters);
  const auto loop = a.here();
  body(a);
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);
  a.ebreak();
  return a.finish();
}

Workload int_alu_loop() {
  return {"int_alu", make_loop([](Assembler& a) {
            a.add(reg::a0, reg::a1, reg::a2);
            a.emit({.op = Op::XOR, .rd = reg::a3, .rs1 = reg::a0, .rs2 = reg::a1});
            a.slli(reg::a4, reg::a0, 3);
            a.sub(reg::a5, reg::a4, reg::a2);
            a.emit({.op = Op::AND, .rd = reg::a6, .rs1 = reg::a5, .rs2 = reg::a3});
            a.emit({.op = Op::OR, .rd = reg::a7, .rs1 = reg::a6, .rs2 = reg::a0});
            a.emit({.op = Op::SLT, .rd = reg::t1, .rs1 = reg::a5, .rs2 = reg::a7});
            a.srli(reg::t2, reg::a7, 5);
            a.addi(reg::t3, reg::t2, 17);
            a.add(reg::t4, reg::t3, reg::t1);
            a.emit({.op = Op::SLTU, .rd = reg::t5, .rs1 = reg::t4, .rs2 = reg::a0});
            a.sub(reg::t6, reg::t4, reg::t5);
          })};
}

Workload scalar_fp_loop() {
  return {"scalar_fp", make_loop([](Assembler& a) {
            a.fp_rrr(Op::FADD_S, reg::fa0, reg::fa1, reg::fa2);
            a.fp_rrr(Op::FMUL_S, reg::fa3, reg::fa1, reg::fa2);
            a.fp_rrr(Op::FSUB_S, reg::fa4, reg::fa3, reg::fa0);
            a.fp_rrr(Op::FMIN_S, reg::fa5, reg::fa0, reg::fa3);
            a.fp_rrr(Op::FMAX_S, reg::fa6, reg::fa0, reg::fa3);
            a.fp_rrr(Op::FSGNJX_S, reg::fa7, reg::fa4, reg::fa5);
            a.fp_r4(Op::FMADD_S, reg::ft0, reg::fa1, reg::fa2, reg::fa3);
            a.fp_rrr(Op::FADD_S, reg::ft1, reg::fa6, reg::fa7);
            a.fp_rrr(Op::FMUL_S, reg::ft2, reg::fa5, reg::fa1);
            a.fp_rrr(Op::FSUB_S, reg::ft3, reg::ft2, reg::ft1);
          })};
}

/// The shape `ir::lower` actually emits for a vectorized kernel inner loop
/// (gemm/svm manual-vec: loads, one packed mac, store, address bumps,
/// back-edge) — the packed-SIMD loop the end-to-end campaign executes. The
/// packed-ALU loop below is the math-bound extreme; this one carries the
/// realistic glue-to-math ratio the jit targets. Its buffer holds the
/// binary16 pairs {1.5, -1.0} and {0.5, 2.0}, so every mac has normal
/// operands; with `zero_data` the buffer is all zeros and every mac takes
/// the zero-operand rules instead.
Workload packed_simd_kernel_loop(bool zero_data) {
  Assembler a;
  std::array<std::uint16_t, 32> halves{};
  if (!zero_data) halves = {0x3e00, 0xbc00, 0, 0, 0x3800, 0x4000};
  const std::uint32_t buf = a.data_bytes(halves.data(), sizeof halves);
  a.la(reg::s0, buf);
  a.li(reg::t0, kIters);
  const auto loop = a.here();
  a.emit({.op = Op::FLW, .rd = reg::fs0, .rs1 = reg::s0, .imm = 0});
  a.emit({.op = Op::FLW, .rd = reg::fs1, .rs1 = reg::s0, .imm = 8});
  a.fp_rrr(Op::VFMAC_R_H, reg::fs2, reg::fs0, reg::fs1);
  a.emit({.op = Op::FSW, .rs1 = reg::s0, .rs2 = reg::fs2, .imm = 16});
  a.addi(reg::a0, reg::a0, 4);
  a.addi(reg::a1, reg::a1, 4);
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);
  a.ebreak();
  return {zero_data ? "packed_simd_kernel_zero" : "packed_simd_kernel",
          a.finish()};
}

Workload packed_simd_loop() {
  return {"packed_simd_f8_f16", make_loop([](Assembler& a) {
            // 4-lane binary8 block.
            a.fp_rrr(Op::VFADD_B, reg::fa0, reg::fa1, reg::fa2);
            a.fp_rrr(Op::VFMUL_B, reg::fa3, reg::fa1, reg::fa2);
            a.fp_rrr(Op::VFSUB_B, reg::fa4, reg::fa3, reg::fa0);
            a.fp_rrr(Op::VFMIN_B, reg::fa5, reg::fa0, reg::fa3);
            a.fp_rrr(Op::VFMAX_B, reg::fa6, reg::fa0, reg::fa3);
            a.fp_rrr(Op::VFSGNJ_B, reg::fa7, reg::fa4, reg::fa5);
            // 2-lane binary16 block.
            a.fp_rrr(Op::VFADD_H, reg::ft0, reg::ft1, reg::ft2);
            a.fp_rrr(Op::VFMUL_H, reg::ft3, reg::ft1, reg::ft2);
            a.fp_rrr(Op::VFSUB_H, reg::ft4, reg::ft3, reg::ft0);
            a.fp_rrr(Op::VFMIN_H, reg::ft5, reg::ft0, reg::ft3);
            a.fp_rrr(Op::VFADD_R_B, reg::ft6, reg::fa1, reg::fa2);
            a.fp_rrr(Op::VFMUL_R_H, reg::ft7, reg::ft1, reg::ft2);
          })};
}

/// Seed FP registers with benign packed values (1.0 / 2.0 patterns) so the
/// loops exercise the normal-number arithmetic paths.
void seed_fp(Core& core) {
  for (unsigned r = 0; r < 32; ++r) {
    core.set_f_bits(r, (r & 1) != 0 ? 0x3c3c3c3cull : 0x40404040ull);
  }
  core.set_f_bits(reg::ft1, 0x3c003c00ull);  // 1.0 x2 binary16
  core.set_f_bits(reg::ft2, 0x40004000ull);  // 2.0 x2 binary16
  core.set_f_bits(reg::fa1, 0x3c3c3c3cull);  // 1.0 x4 binary8
  core.set_f_bits(reg::fa2, 0x40404040ull);  // 2.0 x4 binary8
  core.set_f_bits(reg::fa2 + 1, 0x3c3c3c3cull);
}

struct Measurement {
  double mips;
  std::uint64_t instructions;
  // Engine::Jit telemetry from the best rep (zero for other engines).
  double translate_share = 0;  ///< translation wall time / total wall time
  double hit_rate = 0;         ///< trace-cache hits / block entries
};

/// Simulated cycles of a lowered kernel at one optimization level, run on
/// the jit engine with the grs backend (deterministic: the count is the
/// same on every engine, backend, and host).
std::uint64_t kernel_cycles(const sfrv::kernels::KernelSpec& spec,
                            sfrv::ir::CodegenMode mode,
                            const sfrv::ir::OptConfig& opt) {
  const auto r = sfrv::kernels::run_kernel(
      spec, mode, {}, sfrv::isa::IsaConfig::full(), sfrv::sim::Engine::Jit,
      sfrv::fp::MathBackend::Grs, opt);
  return r.stats.cycles;
}

struct KernelOptRow {
  std::string name;
  std::uint64_t o0 = 0, o1 = 0, o2 = 0;
};

/// Glue-bound paper-sized kernels, one per code-generator story: the
/// manual-vec packed loop, the auto-vectorizer's indexed loop, and two
/// scalar pipelines (compute-heavy gemm, stencil fdtd2d).
std::vector<KernelOptRow> measure_kernel_opt() {
  using sfrv::ir::CodegenMode;
  using sfrv::ir::OptConfig;
  using sfrv::ir::ScalarType;
  using sfrv::kernels::TypeConfig;
  struct Case {
    const char* name;
    sfrv::kernels::KernelSpec spec;
    CodegenMode mode;
  };
  std::vector<Case> cases;
  cases.push_back({"gemm_f16_manualvec",
                   sfrv::kernels::make_gemm(TypeConfig::uniform(ScalarType::F16)),
                   CodegenMode::ManualVec});
  cases.push_back({"gemm_f16_autovec",
                   sfrv::kernels::make_gemm(TypeConfig::uniform(ScalarType::F16)),
                   CodegenMode::AutoVec});
  cases.push_back({"gemm_f32_scalar",
                   sfrv::kernels::make_gemm(TypeConfig::uniform(ScalarType::F32)),
                   CodegenMode::Scalar});
  cases.push_back({"atax_f16_autovec",
                   sfrv::kernels::make_atax(TypeConfig::uniform(ScalarType::F16)),
                   CodegenMode::AutoVec});
  cases.push_back({"fdtd2d_f16_scalar",
                   sfrv::kernels::make_fdtd2d(TypeConfig::uniform(ScalarType::F16)),
                   CodegenMode::Scalar});
  std::vector<KernelOptRow> rows;
  for (const auto& c : cases) {
    KernelOptRow row;
    row.name = c.name;
    row.o0 = kernel_cycles(c.spec, c.mode, OptConfig::O0());
    row.o1 = kernel_cycles(c.spec, c.mode, OptConfig::O1());
    row.o2 = kernel_cycles(c.spec, c.mode, OptConfig::O2());
    rows.push_back(std::move(row));
  }
  return rows;
}

Measurement measure(const Workload& w, Core::Engine engine,
                    sfrv::fp::MathBackend backend = sfrv::fp::MathBackend::Grs) {
  // Best-of-many short reps: each run is a few tens of milliseconds, so on
  // a contended/throttled host at least one rep per engine lands in a clean
  // scheduling window and the recorded MIPS reflects engine capability, not
  // which engine happened to overlap a throttle interval.
  Measurement m{0, 0};
  for (int rep = 0; rep < 9; ++rep) {
    Core core;
    core.set_engine(engine);
    core.set_backend(backend);
    core.load_program(w.prog);
    seed_fp(core);
    const auto t0 = std::chrono::steady_clock::now();
    if (core.run() != Core::RunResult::Halted) {
      std::fprintf(stderr, "workload %s did not halt\n", w.name.c_str());
      std::exit(1);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    m.instructions = core.stats().instructions;
    const double mips = static_cast<double>(m.instructions) / sec / 1e6;
    if (mips > m.mips) {
      m.mips = mips;
      if (engine == Core::Engine::Jit) {
        const auto& js = core.jit_stats();
        m.translate_share =
            static_cast<double>(js.translate_ns) / 1e9 / sec;
        m.hit_rate = js.hit_rate();
      }
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_dispatch.json";
  const std::vector<Workload> workloads = {
      int_alu_loop(), scalar_fp_loop(), packed_simd_loop(),
      packed_simd_kernel_loop(false), packed_simd_kernel_loop(true)};

  std::printf("%-22s %9s %9s %9s %9s %9s %7s %7s\n", "workload", "ref MIPS",
              "jit MIPS", "jit-fast", "jit/ref", "fast/grs", "xlate%",
              "hit%");
  std::string json = "{\n  \"bench\": \"dispatch\",\n  \"workloads\": [\n";
  bool first = true;
  for (const auto& w : workloads) {
    const auto ref = measure(w, Core::Engine::Reference);
    const auto jit = measure(w, Core::Engine::Jit);
    const auto jit_fast =
        measure(w, Core::Engine::Jit, sfrv::fp::MathBackend::Fast);
    const double speedup = jit.mips / ref.mips;
    const double backend_gain = jit_fast.mips / jit.mips;
    std::printf("%-22s %9.1f %9.1f %9.1f %8.2fx %8.2fx %6.2f%% %6.1f%%\n",
                w.name.c_str(), ref.mips, jit.mips, jit_fast.mips, speedup,
                backend_gain, 100 * jit.translate_share, 100 * jit.hit_rate);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s    {\"name\": \"%s\", \"instructions\": %llu, "
                  "\"ref_mips\": %.1f, \"jit_mips\": %.1f, "
                  "\"jit_fast_mips\": %.1f, \"speedup\": %.3f, "
                  "\"jit_translate_share\": %.4f, "
                  "\"jit_cache_hit_rate\": %.4f, \"backend_gain\": %.3f}",
                  first ? "" : ",\n", w.name.c_str(),
                  static_cast<unsigned long long>(jit.instructions), ref.mips,
                  jit.mips, jit_fast.mips, speedup, jit.translate_share,
                  jit.hit_rate, backend_gain);
    json += buf;
    first = false;
  }
  json += "\n  ],\n  \"kernel_opt\": [\n";

  std::printf("\n%-22s %12s %12s %12s %8s %8s\n", "kernel (sim cycles)",
              "O0", "O1", "O2", "O1x", "O2x");
  const auto kernel_rows = measure_kernel_opt();
  first = true;
  for (const auto& r : kernel_rows) {
    const double x1 = static_cast<double>(r.o0) / static_cast<double>(r.o1);
    const double x2 = static_cast<double>(r.o0) / static_cast<double>(r.o2);
    std::printf("%-22s %12llu %12llu %12llu %7.2fx %7.2fx\n", r.name.c_str(),
                static_cast<unsigned long long>(r.o0),
                static_cast<unsigned long long>(r.o1),
                static_cast<unsigned long long>(r.o2), x1, x2);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s    {\"name\": \"%s\", \"o0_cycles\": %llu, "
                  "\"o1_cycles\": %llu, \"o2_cycles\": %llu, "
                  "\"o2_cycle_reduction\": %.3f}",
                  first ? "" : ",\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.o0),
                  static_cast<unsigned long long>(r.o1),
                  static_cast<unsigned long long>(r.o2), x2);
    json += buf;
    first = false;
  }
  json += "\n  ]\n}\n";

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
