// Dynamic vector length (setvl) conformance: grant rules at the ISA level,
// vl=0 no-op semantics, one JIT trace replayed when a block is re-entered
// under a different VL, a strip-mined loop compiled whole (setvl is
// straight-line), and the strip-mined kernel lowering — O2's unrolled
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
#include "sim_util.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using isa::Op;
namespace reg = asmb::reg;

sim::Core run_on(const asmb::Program& prog, const SimConfig& c,
                 int flen = 32) {
  sim::Core core = make_core(c, isa::IsaConfig::full(flen));
  core.load_program(prog);
  EXPECT_EQ(core.run(1'000'000), sim::Core::RunResult::Halted) << c.name;
  return core;
}

/// The bytes of `prog`'s data segment below `end`, as `core` left them.
std::vector<std::uint8_t> data_of(const sim::Core& core,
                                  const asmb::Program& prog,
                                  std::uint32_t end) {
  std::vector<std::uint8_t> bytes(end - prog.data_base);
  core.memory().read_block(prog.data_base, bytes.data(), bytes.size());
  return bytes;
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
    for (const SimConfig& config : kSimConfigs) {
      sim::Core core = run_on(prog, config);
      EXPECT_EQ(core.x(reg::t2), c.want)
          << "avl=" << c.avl << " ew=" << c.ew << " cap=" << c.cap << " on "
          << config.name;
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

  for (const SimConfig& c : kSimConfigs) {
    sim::Core core = run_on(prog, c);
    EXPECT_EQ(core.f_bits(1) & 0xffffffffull, 0x1234abcdull) << c.name;
    std::uint8_t tail[4] = {1, 2, 3, 4};
    core.memory().read_block(buf + 16, tail, sizeof tail);
    for (const std::uint8_t b : tail) {
      EXPECT_EQ(b, 0) << c.name;
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
  const std::uint32_t end = out + 8 * 48;

  for (const int flen : {32, 64}) {
    const sim::Core ref = run_on(prog, kReference, flen);
    for (const SimConfig& c : {kJitGrs, kJitFast}) {
      const sim::Core jit = run_on(prog, c, flen);
      const std::string what =
          "flen=" + std::to_string(flen) + " " + c.name;
      for (unsigned r = 0; r < 32; ++r) {
        EXPECT_EQ(jit.f_bits(r), ref.f_bits(r)) << what << " f" << r;
        EXPECT_EQ(jit.x(r), ref.x(r)) << what << " x" << r;
      }
      EXPECT_EQ(data_of(jit, prog, end), data_of(ref, prog, end)) << what;
      EXPECT_EQ(jit.fflags(), ref.fflags()) << what;
      EXPECT_EQ(jit.stats().cycles, ref.stats().cycles) << what;
      EXPECT_EQ(jit.stats().pc_cycles, ref.stats().pc_cycles) << what;
      // The prologue (through the first iteration), the loop and the halt
      // each compile once; the loop's trace restarts internally.
      EXPECT_EQ(jit.jit_stats().translations, 3u) << what;
      EXPECT_EQ(jit.jit_stats().vl_invalidations, 0u) << what;
    }
  }
}

TEST(Setvl, StripMinedLoopRunsCompiled) {
  // The shape the strip-mining lowering emits: a guard branch, then
  // `sub avl; setvl gvl; body; pointer and induction bumps; blt`, with a
  // cap (3) that does not divide the trip count (11): strips of 3, 3, 3
  // and 2 elements. setvl is straight-line, so one trace covers the whole
  // loop and restarts internally for every strip after the first, and
  // nothing runs on the cold tier.
  constexpr int kTrip = 11;
  constexpr int kCap = 3;
  constexpr int kStrips = (kTrip + kCap - 1) / kCap;
  const std::uint8_t x_bytes[kTrip] = {0x3c, 0x40, 0x3e, 0x3a, 0xbd, 0x42,
                                       0x38, 0x3f, 0x3d, 0x41, 0x3b};
  const std::uint8_t y_bytes[kTrip] = {0x3d, 0x41, 0x3b, 0xc0, 0x3c, 0x45,
                                       0x39, 0x37, 0x3e, 0xb9, 0x43};
  Assembler a;
  const std::uint32_t x = a.data_bytes(x_bytes, sizeof x_bytes);
  const std::uint32_t y = a.data_bytes(y_bytes, sizeof y_bytes);
  const std::uint32_t out = a.data_zero(16);
  a.la(reg::s0, x);
  a.la(reg::s1, y);
  a.la(reg::s2, out);
  a.li(reg::a0, kTrip);  // trip end
  a.li(reg::a1, 0);      // induction variable
  const auto done = a.make_label();
  a.bge(reg::a1, reg::a0, done);
  const auto loop = a.here();
  a.sub(reg::t0, reg::a0, reg::a1);
  a.setvl(reg::t1, reg::t0, 0, kCap);
  a.vflb(1, 0, reg::s0);
  a.vflb(2, 0, reg::s1);
  a.fp_rrr(Op::VFMUL_B, 3, 1, 2);
  a.fp_rrr(Op::VFMAC_B, 4, 1, 2);  // accumulates across strips
  a.vfsb(3, 0, reg::s2);
  a.add(reg::s0, reg::s0, reg::t1);
  a.add(reg::s1, reg::s1, reg::t1);
  a.add(reg::s2, reg::s2, reg::t1);
  a.add(reg::a1, reg::a1, reg::t1);
  a.blt(reg::a1, reg::a0, loop);
  a.bind(done);
  a.ebreak();
  const asmb::Program prog = a.finish();
  const std::uint32_t end = out + 16;

  const sim::Core ref = run_on(prog, kReference);
  ASSERT_EQ(ref.x(reg::a1), static_cast<std::uint32_t>(kTrip));
  for (const SimConfig& c : {kJitGrs, kJitFast}) {
    const sim::Core jit = run_on(prog, c);
    const std::string what = c.name;
    const sim::jit::JitStats& st = jit.jit_stats();
    EXPECT_EQ(st.interp_entries, 0u) << what;
    // The prologue through the guard, the loop and the halt: the three
    // traces cover the text, so one of them is `sub; setvl; ...; blt`.
    EXPECT_EQ(st.translations, 3u) << what;
    EXPECT_EQ(st.ops, prog.text.size()) << what;
    EXPECT_GE(st.hits, static_cast<std::uint64_t>(kStrips - 1)) << what;
    for (unsigned r = 0; r < 32; ++r) {
      EXPECT_EQ(jit.f_bits(r), ref.f_bits(r)) << what << " f" << r;
      EXPECT_EQ(jit.x(r), ref.x(r)) << what << " x" << r;
    }
    EXPECT_EQ(data_of(jit, prog, end), data_of(ref, prog, end)) << what;
    EXPECT_EQ(jit.fflags(), ref.fflags()) << what;
    EXPECT_EQ(jit.stats().cycles, ref.stats().cycles) << what;
    EXPECT_EQ(jit.stats().pc_cycles, ref.stats().pc_cycles) << what;
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
          s.spec, s.mode, {}, isa::IsaConfig::full(), sim::Engine::Jit,
          fp::MathBackend::Grs, with_vl(ir::OptConfig::O0(), cap));
      const auto o2 = kernels::run_kernel(
          s.spec, s.mode, {}, isa::IsaConfig::full(), sim::Engine::Jit,
          fp::MathBackend::Grs, with_vl(ir::OptConfig::O2(), cap));
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
      sim::Engine::Jit, fp::MathBackend::Grs, ir::OptConfig::O0());
  for (const int cap : {1, 2, 4}) {
    const auto strip = kernels::run_kernel(
        spec, ir::CodegenMode::ManualVec, {}, isa::IsaConfig::full(),
        sim::Engine::Jit, fp::MathBackend::Grs,
        with_vl(ir::OptConfig::O0(), cap));
    expect_bit_identical(base, strip, spec.output_arrays,
                         "conv2d cap=" + std::to_string(cap));
  }
}

TEST(StripMine, EnginesAgreeOnStripMinedKernels) {
  // Per-VL-point conformance: the same strip-mined cell must be bit- and
  // cycle-identical on every simulator configuration (the golden matrix
  // pins this against checked-in digests; this is the direct comparison).
  const kernels::KernelSpec spec = kernels::make_fully_connected(
      {ir::ScalarType::F8, ir::ScalarType::F16}, 6, 10);
  std::vector<kernels::RunResult> runs;
  for (const SimConfig& c : kSimConfigs) {
    runs.push_back(kernels::run_kernel(
        spec, ir::CodegenMode::ManualVecExs, {}, isa::IsaConfig::full(),
        c.engine, c.backend, with_vl(ir::OptConfig::O0(), 2)));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_bit_identical(runs[0], runs[i], spec.output_arrays,
                         kSimConfigs[i].name);
    EXPECT_EQ(runs[0].stats.cycles, runs[i].stats.cycles);
    EXPECT_EQ(runs[0].stats.instructions, runs[i].stats.instructions);
  }
}

}  // namespace
}  // namespace sfrv::test
