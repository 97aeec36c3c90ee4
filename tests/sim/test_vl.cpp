// Dynamic vector length (setvl) conformance: grant rules at the ISA level,
// vl=0 no-op semantics, one JIT trace replayed when a block is re-entered
// under a different VL, and the strip-mined kernel lowering — O2's unrolled
// setvl loops must match O0's bit-for-bit (outputs and fflags), and
// elementwise kernels must be bit-identical across every VL choice.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "asmb/assembler.hpp"
#include "kernels/nn.hpp"
#include "kernels/runner.hpp"
#include "sim/core.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using isa::Op;
namespace reg = asmb::reg;

constexpr sim::Engine kEngines[] = {sim::Engine::Reference,
                                    sim::Engine::Predecoded, sim::Engine::Jit};

sim::Core run_on(const asmb::Program& prog, sim::Engine e) {
  sim::Core core(isa::IsaConfig::full());
  core.set_engine(e);
  if (e == sim::Engine::Jit) core.set_jit_threshold(0);
  core.load_program(prog);
  EXPECT_EQ(core.run(1'000'000), sim::Core::RunResult::Halted)
      << sim::engine_name(e);
  return core;
}

TEST(Setvl, GrantRules) {
  // vl = min(AVL, VLMAX for the element width, cap when nonzero). At
  // FLEN=32, VLMAX is 4 byte lanes (ew=0) or 2 halfword lanes (ew=1).
  struct Case {
    std::uint32_t avl;
    int ew;
    int cap;
    std::uint32_t want;
  };
  const Case cases[] = {
      {0, 1, 0, 0},    // AVL 0: nothing granted
      {1, 1, 0, 1},    // sub-lane grant
      {2, 1, 0, 2},    // exactly VLMAX
      {3, 1, 0, 2},    // AVL above VLMAX clamps
      {100, 1, 0, 2},  //
      {100, 0, 0, 4},  // byte lanes: VLMAX 4
      {3, 0, 0, 3},    // non-dividing tail grant
      {100, 0, 3, 3},  // explicit cap below VLMAX
      {2, 0, 3, 2},    // AVL below the cap wins
      {1, 0, 3, 1},    //
  };
  for (const auto& c : cases) {
    Assembler a;
    a.li(reg::t1, static_cast<std::int32_t>(c.avl));
    a.setvl(reg::t2, reg::t1, c.ew, c.cap);
    a.ebreak();
    const asmb::Program prog = a.finish();
    for (const auto e : kEngines) {
      sim::Core core = run_on(prog, e);
      EXPECT_EQ(core.x(reg::t2), c.want)
          << "avl=" << c.avl << " ew=" << c.ew << " cap=" << c.cap
          << " engine=" << sim::engine_name(e);
      EXPECT_EQ(core.context().vl, c.want);
    }
  }
}

TEST(Setvl, VlZeroMakesVecMemopsNoOps) {
  Assembler a;
  const std::uint32_t buf = a.data_zero(64);
  a.la(reg::s0, buf);
  a.li(reg::t0, 0x1234abcd);
  a.sw(reg::t0, 0, reg::s0);
  // Full VL: the packed load observes the pattern.
  a.li(reg::t1, 4);
  a.setvl(reg::zero, reg::t1, 1, 0);
  a.vflh(1, 0, reg::s0);
  // VL 0: neither the load nor the store may touch anything.
  a.li(reg::t1, 0);
  a.setvl(reg::zero, reg::t1, 1, 0);
  a.vflh(1, 8, reg::s0);   // must leave f1 unchanged
  a.vfsh(1, 16, reg::s0);  // must write nothing
  a.ebreak();
  const asmb::Program prog = a.finish();

  for (const auto e : kEngines) {
    sim::Core core = run_on(prog, e);
    EXPECT_EQ(core.f_bits(1) & 0xffffffffull, 0x1234abcdull)
        << sim::engine_name(e);
    std::uint8_t tail[4] = {1, 2, 3, 4};
    core.memory().read_block(buf + 16, tail, sizeof tail);
    for (const std::uint8_t b : tail) {
      EXPECT_EQ(b, 0) << sim::engine_name(e);
    }
  }
}

TEST(Setvl, JitTraceReplaysUnderEveryVl) {
  // One compiled trace must serve every vector length: a strip-mined loop
  // re-enters its body under AVL 7, 6, ..., 0, and the body's trace reads
  // the live vl on every visit. The body holds every packed slot shape —
  // the VMem loads/stores, the inlined VecBin (vfadd.b, and vfmul.ah on the
  // f16alt format), VecMac, VecDotp and VecExsdotp bodies, and the
  // handler-called vfsqrt.h and vfeq.h. Each inlined op accumulates into
  // its destination across iterations: the loaded inputs keep their tails
  // too, so only an accumulating destination shows a tail lane computed
  // under the wrong VL, in memory, registers or fflags.
  Assembler a;
  const std::uint8_t in_bytes[] = {
      // f1, f2: binary8 lanes
      0x3c, 0x40, 0x3e, 0x3a, 0xbd, 0x42, 0x38, 0x3f,  //
      0x3d, 0x41, 0x3b, 0xc0, 0x3c, 0x45, 0x39, 0x37,  //
      // f3, f4: binary16 lanes (f4's lane 1 is negative: vfsqrt.h yields
      // NaN and raises invalid there while that lane is active)
      0x00, 0x3c, 0x55, 0x35, 0x48, 0x42, 0x00, 0xbc,  //
      0x00, 0x3c, 0x00, 0xb8, 0x00, 0x44, 0x00, 0x3e,  //
  };
  const std::uint32_t in = a.data_bytes(in_bytes, sizeof in_bytes);
  const std::uint32_t out = a.data_zero(8 * 48);
  a.la(reg::s0, in);
  a.la(reg::s1, out);
  a.vflh(10, 16, reg::s0);  // vfmul.ah's running product, at full VL
  a.li(reg::t3, 8);
  const auto loop = a.here();
  a.addi(reg::t3, reg::t3, -1);  // AVL 7, 6, ..., 0
  a.setvl(reg::zero, reg::t3, 0, 0);
  // setvl cannot lead a trace, so jump past it: the body heads its own.
  a.emit({.op = Op::JAL, .rd = reg::zero, .imm = 4});
  a.vflb(1, 0, reg::s0);
  a.vflb(2, 8, reg::s0);
  a.vflh(3, 16, reg::s0);
  a.vflh(4, 24, reg::s0);
  a.fp_rrr(Op::VFADD_B, 5, 5, 1);
  a.fp_rrr(Op::VFMAC_H, 6, 3, 4);
  a.fp_rrr(Op::VFDOTPEX_S_B, 7, 1, 2);
  a.fp_rrr(Op::VFEXSDOTP_H_B, 8, 1, 2);
  a.fp_rr(Op::VFSQRT_H, 9, 4);
  a.fp_rrr(Op::VFEQ_H, reg::t4, 3, 4);
  a.fp_rrr(Op::VFMUL_AH, 10, 10, 4);
  a.vfsb(5, 0, reg::s1);
  a.vfsh(6, 8, reg::s1);
  a.vfsh(8, 16, reg::s1);
  a.vfsh(9, 24, reg::s1);
  a.vfsh(10, 32, reg::s1);
  a.fsw(7, 40, reg::s1);
  a.sw(reg::t4, 44, reg::s1);
  a.addi(reg::s1, reg::s1, 48);
  a.bne(reg::t3, reg::zero, loop);
  a.ebreak();
  const asmb::Program prog = a.finish();
  const std::size_t data_len = out + 8 * 48 - prog.data_base;

  const auto run = [&](int flen, sim::Engine e, fp::MathBackend b) {
    sim::Core core(isa::IsaConfig::full(flen));
    core.set_engine(e);
    core.set_backend(b);
    core.set_jit_threshold(0);
    core.load_program(prog);
    EXPECT_EQ(core.run(1'000'000), sim::Core::RunResult::Halted);
    return core;
  };
  const auto data = [&](const sim::Core& core) {
    std::vector<std::uint8_t> bytes(data_len);
    core.memory().read_block(prog.data_base, bytes.data(), bytes.size());
    return bytes;
  };

  for (const int flen : {32, 64}) {
    const sim::Core ref =
        run(flen, sim::Engine::Reference, fp::MathBackend::Grs);
    for (const auto b : {fp::MathBackend::Grs, fp::MathBackend::Fast}) {
      const sim::Core jit = run(flen, sim::Engine::Jit, b);
      const std::string what = "flen=" + std::to_string(flen) +
                               " backend=" + std::string(fp::backend_name(b));
      for (unsigned r = 0; r < 32; ++r) {
        EXPECT_EQ(jit.f_bits(r), ref.f_bits(r)) << what << " f" << r;
        EXPECT_EQ(jit.x(r), ref.x(r)) << what << " x" << r;
      }
      EXPECT_EQ(data(jit), data(ref)) << what;
      EXPECT_EQ(jit.fflags(), ref.fflags()) << what;
      EXPECT_EQ(jit.stats().cycles, ref.stats().cycles) << what;
      EXPECT_EQ(jit.stats().pc_cycles, ref.stats().pc_cycles) << what;
      // Prologue, loop head, body and halt: each compiles once.
      EXPECT_EQ(jit.jit_stats().translations, 4u) << what;
      EXPECT_EQ(jit.jit_stats().vl_invalidations, 0u) << what;
    }
  }
}

// ---- strip-mined kernel lowering -------------------------------------------

ir::OptConfig with_vl(ir::OptConfig opt, int cap) {
  opt.vl_cap = cap;
  return opt;
}

void expect_bit_identical(const kernels::RunResult& a,
                          const kernels::RunResult& b,
                          const std::vector<std::string>& outputs,
                          const std::string& what) {
  for (const auto& name : outputs) {
    const auto& va = a.outputs.at(name);
    const auto& vb = b.outputs.at(name);
    ASSERT_EQ(va.size(), vb.size()) << what << " " << name;
    for (std::size_t i = 0; i < va.size(); ++i) {
      std::uint64_t ba, bb;
      std::memcpy(&ba, &va[i], sizeof ba);
      std::memcpy(&bb, &vb[i], sizeof bb);
      EXPECT_EQ(ba, bb) << what << " " << name << "[" << i << "]";
    }
  }
  EXPECT_EQ(a.fflags, b.fflags) << what;
}

TEST(StripMine, O2MatchesO0BitForBit) {
  // The unroller may only replicate strip bodies (exhausted strips
  // self-neutralize through zero-grant setvl), never reorder element math:
  // outputs and accrued fflags must match O0 exactly at every cap, including
  // caps that do not divide the trip count (f8: 4 lanes against trips of 10).
  struct Shape {
    const char* what;
    kernels::KernelSpec spec;
    ir::CodegenMode mode;
  };
  const Shape shapes[] = {
      {"fully_connected/f16",
       kernels::make_fully_connected(
           kernels::TypeConfig::uniform(ir::ScalarType::F16), 6, 10),
       ir::CodegenMode::ManualVec},
      {"fully_connected/f8",
       kernels::make_fully_connected(
           kernels::TypeConfig::uniform(ir::ScalarType::F8), 6, 10),
       ir::CodegenMode::ManualVec},
      {"nn_train/mixed8",
       kernels::make_nn_train({ir::ScalarType::F8, ir::ScalarType::F16}, 5, 6),
       ir::CodegenMode::ManualVecExs},
  };
  for (const auto& s : shapes) {
    for (const int cap : {1, 2, 4}) {
      const auto o0 = kernels::run_kernel(
          s.spec, s.mode, {}, isa::IsaConfig::full(), sim::Engine::Predecoded,
          fp::default_backend(), with_vl(ir::OptConfig::O0(), cap));
      const auto o2 = kernels::run_kernel(
          s.spec, s.mode, {}, isa::IsaConfig::full(), sim::Engine::Predecoded,
          fp::default_backend(), with_vl(ir::OptConfig::O2(), cap));
      const std::string what =
          std::string(s.what) + " cap=" + std::to_string(cap);
      expect_bit_identical(o0, o2, s.spec.output_arrays, what);
      EXPECT_LE(o2.stats.cycles, o0.stats.cycles) << what;
    }
  }
}

TEST(StripMine, ElementwiseKernelBitIdenticalAcrossVls) {
  // conv2d accumulates each output element through the same per-element tap
  // order regardless of how elements group into lanes, so — unlike the
  // reduction kernels, whose lane order legitimately shifts with VL — its
  // outputs must be bit-identical across the legacy lowering and every cap.
  const kernels::KernelSpec spec = kernels::make_conv2d(
      kernels::TypeConfig::uniform(ir::ScalarType::F16), 6, 6, 3);
  const auto base = kernels::run_kernel(
      spec, ir::CodegenMode::ManualVec, {}, isa::IsaConfig::full(),
      sim::Engine::Predecoded, fp::default_backend(), ir::OptConfig::O0());
  for (const int cap : {1, 2, 4}) {
    const auto strip = kernels::run_kernel(
        spec, ir::CodegenMode::ManualVec, {}, isa::IsaConfig::full(),
        sim::Engine::Predecoded, fp::default_backend(),
        with_vl(ir::OptConfig::O0(), cap));
    expect_bit_identical(base, strip, spec.output_arrays,
                         "conv2d cap=" + std::to_string(cap));
  }
}

TEST(StripMine, EnginesAgreeOnStripMinedKernels) {
  // Per-VL-point conformance: the same strip-mined cell must be bit- and
  // cycle-identical across every engine (the golden matrix pins this
  // against checked-in digests; this is the direct comparison).
  const kernels::KernelSpec spec = kernels::make_fully_connected(
      {ir::ScalarType::F8, ir::ScalarType::F16}, 6, 10);
  std::vector<kernels::RunResult> runs;
  for (const auto e : kEngines) {
    runs.push_back(kernels::run_kernel(
        spec, ir::CodegenMode::ManualVecExs, {}, isa::IsaConfig::full(), e,
        fp::default_backend(), with_vl(ir::OptConfig::O0(), 2)));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_bit_identical(runs[0], runs[i], spec.output_arrays,
                         std::string("engine ") +
                             std::string(sim::engine_name(kEngines[i])));
    EXPECT_EQ(runs[0].stats.cycles, runs[i].stats.cycles);
    EXPECT_EQ(runs[0].stats.instructions, runs[i].stats.instructions);
  }
}

}  // namespace
}  // namespace sfrv::test
