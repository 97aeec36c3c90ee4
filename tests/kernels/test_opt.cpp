// Post-lowering optimizer (ir/opt.hpp) test suite.
//
//  * Differential matrix: every smoke-suite kernel at every type config and
//    code generator (ExSdotp included) must produce bit-identical outputs,
//    fflags, and array digests at O1/O2 vs O0, on every simulator
//    configuration — the optimizer's core contract (per-element FP
//    operation order preserved).
//  * Dead-glue elimination unit tests on synthetic programs: load/load and
//    store/load forwarding, addi-chain merging, liveness DCE, branch
//    retargeting after compaction, alias conservatism, and the bail-out on
//    position-dependent control flow.
//  * Regression tests for the cycle-attribution bugfixes: ideal_cycles
//    overlap dedup + vl validation, and inner_ranges normalization.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "asmb/assembler.hpp"
#include "eval/campaign.hpp"
#include "ir/opt.hpp"
#include "kernels/polybench.hpp"
#include "kernels/runner.hpp"
#include "sim/core.hpp"
#include "sim_util.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using ir::OptConfig;
namespace reg = asmb::reg;

// ---- OptConfig plumbing -----------------------------------------------------

TEST(OptConfig, LevelNamesRoundTrip) {
  EXPECT_EQ(ir::opt_name(OptConfig::O0()), "O0");
  EXPECT_EQ(ir::opt_name(OptConfig::O1()), "O1");
  EXPECT_EQ(ir::opt_name(OptConfig::O2()), "O2");
  EXPECT_EQ(ir::opt_name(OptConfig{2, true, false}), "custom");
  for (const char* name : {"O0", "O1", "O2"}) {
    EXPECT_EQ(ir::opt_name(ir::opt_from_name(name)), name);
  }
  EXPECT_THROW((void)ir::opt_from_name("O3"), std::runtime_error);
  EXPECT_THROW((void)ir::opt_from_name(""), std::runtime_error);
}

TEST(OptConfig, ValidateRejectsBadUnrollFactors) {
  for (const int bad : {0, -1, 3, 5, 6, 7, 16}) {
    EXPECT_THROW(ir::validate(OptConfig{bad, false, false}),
                 std::runtime_error)
        << "unroll factor " << bad;
  }
  for (const int ok : {1, 2, 4, 8}) {
    EXPECT_NO_THROW(ir::validate(OptConfig{ok, true, true}));
  }
}

// ---- differential matrix ----------------------------------------------------

std::uint64_t output_digest(const kernels::RunResult& r,
                            const std::vector<std::string>& names) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& name : names) {
    const auto& v = r.outputs.at(name);
    mix(v.data(), v.size() * sizeof(double));
  }
  return h;
}

TEST(OptDifferential, BitIdenticalAcrossLevelsEnginesBackends) {
  const auto& suite = eval::eval_suite(eval::SuiteScale::Smoke);
  for (const auto& b : suite) {
    for (const auto& tc : eval::default_type_configs()) {
      for (const auto mode :
           {ir::CodegenMode::Scalar, ir::CodegenMode::AutoVec,
            ir::CodegenMode::ManualVec, ir::CodegenMode::ManualVecExs}) {
        const kernels::KernelSpec spec = b.bench.make(tc.tc);
        const auto base = kernels::run_kernel(
            spec, mode, {}, isa::IsaConfig::full(), sim::Engine::Jit,
            fp::MathBackend::Grs, OptConfig::O0());
        const auto base_digest = output_digest(base, spec.output_arrays);
        for (const auto& opt : {OptConfig::O1(), OptConfig::O2()}) {
          for (const SimConfig& c : kSimConfigs) {
            const auto r =
                kernels::run_kernel(spec, mode, {}, isa::IsaConfig::full(),
                                    c.engine, c.backend, opt);
            const std::string where = b.bench.name + "/" + tc.name + "/" +
                                      std::string(ir::mode_name(mode)) + "/" +
                                      std::string(ir::opt_name(opt)) + "/" +
                                      c.name;
            EXPECT_EQ(r.fflags, base.fflags) << where;
            EXPECT_EQ(output_digest(r, spec.output_arrays), base_digest)
                << where;
            for (const auto& name : spec.output_arrays) {
              const auto& got = r.outputs.at(name);
              const auto& want = base.outputs.at(name);
              ASSERT_EQ(got.size(), want.size()) << where;
              EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                    got.size() * sizeof(double)),
                        0)
                  << where << " array " << name;
            }
          }
        }
      }
    }
  }
}

TEST(OptDifferential, OptimizedLevelsReduceCycles) {
  // The glue-bound kernels the bench records: O2 must be a real win, not a
  // wash (the >= 1.3x acceptance bar lives in bench_dispatch's JSON; here a
  // conservative floor guards against regressions at smoke sizes).
  const auto tc = kernels::TypeConfig::uniform(ir::ScalarType::F16);
  const auto spec = kernels::make_gemm(tc, 16, 16, 16);
  for (const auto mode :
       {ir::CodegenMode::Scalar, ir::CodegenMode::AutoVec,
        ir::CodegenMode::ManualVec}) {
    const auto o0 = kernels::run_kernel(spec, mode, {}, isa::IsaConfig::full(),
                                        sim::Engine::Jit, fp::MathBackend::Grs,
                                        OptConfig::O0());
    const auto o2 = kernels::run_kernel(spec, mode, {}, isa::IsaConfig::full(),
                                        sim::Engine::Jit, fp::MathBackend::Grs,
                                        OptConfig::O2());
    EXPECT_LT(static_cast<double>(o2.cycles()),
              0.85 * static_cast<double>(o0.cycles()))
        << ir::mode_name(mode);
  }
}

TEST(OptDifferential, StencilForwardingFires) {
  // fdtd2d's +-1 column offsets make unrolled lanes reload their neighbor's
  // value: the dead-glue pass must forward at least some of those loads.
  const auto tc = kernels::TypeConfig::uniform(ir::ScalarType::F16);
  const auto spec = kernels::make_fdtd2d(tc, 2, 8, 8);
  const auto r = kernels::run_kernel(spec, ir::CodegenMode::Scalar, {},
                                     isa::IsaConfig::full(), sim::Engine::Jit,
                                     fp::MathBackend::Grs, OptConfig::O2());
  EXPECT_GE(r.lowered.glue.loads_forwarded, 1);
  EXPECT_EQ(ir::opt_name(r.lowered.opt), "O2");
}

// ---- campaign-level QoR invariance ------------------------------------------

TEST(Campaign, QorIsOptInvariant) {
  eval::CampaignSpec spec = eval::CampaignSpec::smoke();
  spec.benchmarks = {"gemm", "fdtd2d"};
  spec.tuner_study = false;
  spec.opt = OptConfig::O0();
  const auto o0 = eval::run_campaign(spec, 2);
  spec.opt = OptConfig::O2();
  const auto o2 = eval::run_campaign(spec, 2);
  ASSERT_EQ(o0.cells.size(), o2.cells.size());
  std::uint64_t c0 = 0, c2 = 0;
  for (std::size_t i = 0; i < o0.cells.size(); ++i) {
    EXPECT_EQ(o0.cells[i].sqnr_db, o2.cells[i].sqnr_db)
        << o0.cells[i].benchmark << "/" << o0.cells[i].type_config;
    EXPECT_EQ(o0.cells[i].accuracy, o2.cells[i].accuracy);
    EXPECT_LE(o2.cells[i].cycles, o0.cells[i].cycles);
    c0 += o0.cells[i].cycles;
    c2 += o2.cells[i].cycles;
  }
  EXPECT_LT(c2, c0);
  EXPECT_EQ(o0.opt, "O0");
  EXPECT_EQ(o2.opt, "O2");
}

// ---- cycle-attribution bugfix regressions -----------------------------------

TEST(IdealCycles, RejectsBadVectorLength) {
  const auto tc = kernels::TypeConfig::uniform(ir::ScalarType::F16);
  const auto r = kernels::run_kernel(kernels::make_gemm(tc, 8, 8, 8),
                                     ir::CodegenMode::Scalar);
  EXPECT_THROW((void)r.ideal_cycles(0), std::invalid_argument);
  EXPECT_THROW((void)r.ideal_cycles(-2), std::invalid_argument);
  EXPECT_GT(r.ideal_cycles(2), 0.0);
}

TEST(IdealCycles, OverlappingRangesAttributedOnce) {
  kernels::RunResult r;
  r.text_base = 0x1000;
  r.stats.cycles = 40;
  r.stats.pc_cycles = {10, 10, 10, 10};
  // Overlapping + duplicate ranges used to double-count the shared slots
  // (inner = 60 > total = 40, driving ideal_cycles negative-ish).
  r.lowered.inner_ranges = {{0x1000, 0x1010}, {0x1008, 0x1010},
                            {0x1008, 0x1010}};
  // Merged coverage is the whole text: inner = 40, ideal = 40 - 40 + 40/2.
  EXPECT_DOUBLE_EQ(r.ideal_cycles(2), 20.0);
  EXPECT_DOUBLE_EQ(r.ideal_cycles(1), 40.0);
}

TEST(Lowering, InnerRangesAreNormalized) {
  const auto tc = kernels::TypeConfig::uniform(ir::ScalarType::F16);
  for (const auto& opt : {OptConfig::O0(), OptConfig::O2()}) {
    const auto spec = kernels::make_fdtd2d(tc, 2, 8, 8);
    const auto lk =
        ir::lower(spec.kernel, ir::CodegenMode::ManualVec, spec.init, opt);
    std::uint32_t prev_end = 0;
    for (const auto& [b, e] : lk.inner_ranges) {
      EXPECT_LT(b, e);
      EXPECT_GE(b, prev_end);  // sorted, non-overlapping
      EXPECT_GE(b, lk.program.text_base);
      EXPECT_EQ((b - lk.program.text_base) % 4, 0u);
      EXPECT_EQ((e - lk.program.text_base) % 4, 0u);
      prev_end = e;
    }
    EXPECT_FALSE(lk.inner_ranges.empty());
  }
}

// ---- dead-glue elimination unit tests ---------------------------------------

struct ArchState {
  std::array<std::uint32_t, 32> x{};
  std::array<std::uint64_t, 32> f{};
  std::uint8_t fflags = 0;
  std::vector<std::uint8_t> data;
};

ArchState execute(const asmb::Program& p) {
  sim::Core core;
  core.load_program(p);
  EXPECT_EQ(core.run(), sim::Core::RunResult::Halted);
  ArchState s;
  for (unsigned i = 0; i < 32; ++i) {
    s.x[i] = core.x(i);
    s.f[i] = core.f_bits(i);
  }
  s.fflags = core.fflags();
  s.data.resize(p.data.size());
  if (!s.data.empty()) {
    core.memory().read_block(p.data_base, s.data.data(), s.data.size());
  }
  return s;
}

void expect_same_arch(const asmb::Program& a, const asmb::Program& b) {
  const ArchState sa = execute(a);
  const ArchState sb = execute(b);
  EXPECT_EQ(sa.x, sb.x);
  EXPECT_EQ(sa.f, sb.f);
  EXPECT_EQ(sa.fflags, sb.fflags);
  EXPECT_EQ(sa.data, sb.data);
}

std::size_t count_op(const asmb::Program& p, isa::Op op) {
  std::size_t n = 0;
  for (const auto& i : p.text) n += i.op == op ? 1 : 0;
  return n;
}

using Ranges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

TEST(DeadGlue, ForwardsStoreToLoadAndLoadToLoad) {
  Assembler a;
  const auto buf = a.data_zero(16);
  a.la(reg::t0, buf);
  a.li(reg::t1, 0x3f800000);  // 1.0f
  a.fp_rr(isa::Op::FMV_S_X, reg::ft0, reg::t1);
  a.fsw(reg::ft0, 0, reg::t0);
  a.flw(reg::ft1, 0, reg::t0);  // store-to-load: becomes a copy of ft0
  a.flw(reg::ft2, 0, reg::t0);  // load-to-load: becomes a copy too
  a.fp_rrr(isa::Op::FADD_S, reg::ft3, reg::ft1, reg::ft2);
  a.ebreak();
  auto prog = a.finish();
  const auto original = prog;
  Ranges ranges;
  const auto gs = ir::dead_glue_elim(prog, ranges);
  EXPECT_EQ(gs.loads_forwarded, 2);
  EXPECT_EQ(count_op(prog, isa::Op::FLW), 0u);
  EXPECT_EQ(count_op(prog, isa::Op::FSGNJ_S), 2u);
  expect_same_arch(original, prog);
}

TEST(DeadGlue, DeletesReloadIntoSameRegister) {
  Assembler a;
  const auto buf = a.data_zero(16);
  a.la(reg::t0, buf);
  a.flw(reg::ft1, 4, reg::t0);
  a.flw(reg::ft1, 4, reg::t0);  // exact reload: deleted outright
  a.fp_rrr(isa::Op::FADD_S, reg::ft2, reg::ft1, reg::ft1);
  a.ebreak();
  auto prog = a.finish();
  const auto original = prog;
  Ranges ranges;
  const auto gs = ir::dead_glue_elim(prog, ranges);
  EXPECT_GE(gs.insts_deleted, 1);
  EXPECT_EQ(count_op(prog, isa::Op::FLW), 1u);
  expect_same_arch(original, prog);
}

TEST(DeadGlue, AliasingStoreKillsForwarding) {
  Assembler a;
  const std::uint32_t words[4] = {0, 0x3f800000u, 0, 0};  // buf[4..8) = 1.0f
  const auto buf = a.data_bytes(words, sizeof words, 4);
  a.la(reg::t0, buf);
  a.la(reg::t1, buf + 4);
  a.li(reg::t2, 0x40000000);  // 2.0f
  a.fp_rr(isa::Op::FMV_S_X, reg::ft0, reg::t2);
  a.flw(reg::ft1, 4, reg::t0);  // 1.0f
  a.fsw(reg::ft0, 0, reg::t1);  // same address through another base: aliases
  a.flw(reg::ft2, 4, reg::t0);  // must NOT be forwarded (reads 2.0f)
  a.ebreak();
  auto prog = a.finish();
  const auto original = prog;
  Ranges ranges;
  (void)ir::dead_glue_elim(prog, ranges);
  EXPECT_EQ(count_op(prog, isa::Op::FLW), 2u);
  expect_same_arch(original, prog);
}

TEST(DeadGlue, DisjointSameBaseStoreKeepsForwarding) {
  Assembler a;
  const auto buf = a.data_zero(16);
  a.la(reg::t0, buf);
  a.flw(reg::ft1, 4, reg::t0);
  a.fsw(reg::ft0, 8, reg::t0);  // same base, provably disjoint interval
  a.flw(reg::ft2, 4, reg::t0);  // forwarded from ft1
  a.ebreak();
  auto prog = a.finish();
  const auto original = prog;
  Ranges ranges;
  const auto gs = ir::dead_glue_elim(prog, ranges);
  EXPECT_EQ(gs.loads_forwarded, 1);
  EXPECT_EQ(count_op(prog, isa::Op::FLW), 1u);
  expect_same_arch(original, prog);
}

TEST(DeadGlue, MergesAddiChains) {
  Assembler a;
  a.li(reg::t2, 100);
  a.addi(reg::t2, reg::t2, 4);
  a.addi(reg::t2, reg::t2, 8);  // merged into a single +12
  a.ebreak();
  auto prog = a.finish();
  const auto original = prog;
  Ranges ranges;
  const auto gs = ir::dead_glue_elim(prog, ranges);
  EXPECT_EQ(gs.addis_merged, 1);
  expect_same_arch(original, prog);
}

TEST(DeadGlue, InterveningReadBlocksAddiMerge) {
  Assembler a;
  a.li(reg::t2, 100);
  a.addi(reg::t2, reg::t2, 4);
  a.add(reg::t3, reg::t2, reg::t2);  // reads the intermediate value
  a.addi(reg::t2, reg::t2, 8);
  a.ebreak();
  auto prog = a.finish();
  const auto original = prog;
  Ranges ranges;
  const auto gs = ir::dead_glue_elim(prog, ranges);
  EXPECT_EQ(gs.addis_merged, 0);
  expect_same_arch(original, prog);
}

TEST(DeadGlue, DeletesDeadWritesAndRetargetsBranches) {
  Assembler a;
  a.li(reg::t0, 3);
  const auto loop = a.here();
  a.addi(reg::t4, reg::zero, 1);  // dead: overwritten before any read
  a.addi(reg::t4, reg::zero, 2);
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);  // back-edge lands on a deleted slot
  a.ebreak();
  auto prog = a.finish();
  const auto original = prog;
  Ranges ranges{{original.text_base + 8,
                 original.text_base + 12}};  // covers the second addi
  const auto gs = ir::dead_glue_elim(prog, ranges);
  EXPECT_GE(gs.insts_deleted, 1);
  EXPECT_EQ(prog.text.size(), original.text.size() - 1);
  // The inner range followed the compaction.
  EXPECT_EQ(ranges[0].first, original.text_base + 4);
  EXPECT_EQ(ranges[0].second, original.text_base + 8);
  expect_same_arch(original, prog);
}

TEST(DeadGlue, BailsOutOnIndirectControlFlow) {
  Assembler a;
  a.li(reg::t0, 0);
  a.jalr(reg::zero, reg::ra, 0);
  a.ebreak();
  auto prog = a.finish();
  const auto before = prog.text;
  Ranges ranges;
  const auto gs = ir::dead_glue_elim(prog, ranges);
  EXPECT_FALSE(gs.any());
  EXPECT_EQ(prog.text, before);
}

TEST(DeadGlue, EncodedWordsStayInSyncAfterCompaction) {
  Assembler a;
  const auto buf = a.data_zero(16);
  a.la(reg::t0, buf);
  a.flw(reg::ft1, 0, reg::t0);
  a.flw(reg::ft1, 0, reg::t0);
  a.ebreak();
  auto prog = a.finish();
  Ranges ranges;
  (void)ir::dead_glue_elim(prog, ranges);
  ASSERT_EQ(prog.text.size(), prog.text_words.size());
  for (std::size_t i = 0; i < prog.text.size(); ++i) {
    EXPECT_EQ(isa::encode(prog.text[i]), prog.text_words[i]) << i;
  }
}

}  // namespace
}  // namespace sfrv::test
