// Engine::Jit translation-cache unit tests: compilation on first entry
// (no block runs on the cold tier), a stop-class loop head (it retires on
// the cold tier and the rest of its block compiles as a suffix trace),
// wholesale invalidation on Core::set_backend (the re-decoded program binds
// new softfloat pointers), mid-block jalr entry (a dynamic target that is
// not a cached trace start), long straight-line runs (a trace has no length
// cap), and the cache bound (at most one trace per text index). Architectural
// identity across all of it is the fuzzer's job (test_ab_equivalence.cpp);
// these tests pin the cache *mechanics* plus spot-check results against
// Engine::Reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "asmb/assembler.hpp"
#include "sim/core.hpp"

namespace sfrv::test {
namespace {

using isa::Op;
using sim::Engine;
namespace reg = asmb::reg;

/// count-iteration counting loop; the loop head is (re-)entered via the
/// taken back-edge `count - 1` times.
asmb::Program counting_loop(int count) {
  asmb::Assembler a;
  a.li(reg::t0, count);
  a.addi(reg::t1, reg::zero, 0);
  const auto loop = a.here();
  a.addi(reg::t1, reg::t1, 3);
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);
  a.ebreak();
  return a.finish();
}

sim::Core make_jit_core(const asmb::Program& prog) {
  sim::Core core;
  core.set_engine(Engine::Jit);
  core.load_program(prog);
  return core;
}

void expect_matches_reference(sim::Core& jit, const asmb::Program& prog) {
  sim::Core ref;
  ref.set_engine(Engine::Reference);
  ref.load_program(prog);
  ASSERT_EQ(ref.run(), sim::Core::RunResult::Halted);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(jit.x(r), ref.x(r)) << "x" << r;
    EXPECT_EQ(jit.f_bits(r), ref.f_bits(r)) << "f" << r;
  }
  EXPECT_EQ(jit.pc(), ref.pc());
  EXPECT_EQ(jit.fflags(), ref.fflags());
  EXPECT_EQ(jit.stats().cycles, ref.stats().cycles);
  EXPECT_EQ(jit.stats().instructions, ref.stats().instructions);
}

TEST(JitCache, EveryBlockCompilesOnFirstEntry) {
  // The entry block (li, addi, then the loop body through bne) compiles on
  // its first entry; the taken bne re-enters at the loop head, which
  // compiles a trace that restarts internally; the ebreak compiles last.
  // Nothing runs on the cold tier.
  for (const int count : {1, 2, 5}) {
    const asmb::Program prog = counting_loop(count);
    sim::Core core = make_jit_core(prog);
    ASSERT_EQ(core.run(), sim::Core::RunResult::Halted);
    const sim::jit::JitStats& st = core.jit_stats();
    EXPECT_EQ(st.interp_entries, 0u) << count;
    EXPECT_EQ(st.translations, count == 1 ? 2u : 3u) << count;
    EXPECT_EQ(core.jit_cache_size(), st.translations) << count;
    // The loop-head trace's first run is its translation; every later
    // iteration is an internal restart, which counts as a hit.
    EXPECT_EQ(st.hits, count > 2 ? static_cast<std::uint64_t>(count - 2) : 0u)
        << count;
    expect_matches_reference(core, prog);
  }
}

TEST(JitCache, StopClassLoopHeadRunsColdOncePerIteration) {
  // The loop head reads the cycle CSR, which observes every cycle retired
  // so far: it is stop-class, so each iteration retires it on the cold
  // tier, after the trace before it booked its cycles on exit. The rest of
  // the loop compiles once as a suffix trace. The accumulated reads in t2
  // pin the booking against Reference.
  constexpr int kIters = 10;
  asmb::Assembler a;
  a.li(reg::t0, kIters);
  const auto loop = a.here();
  a.csrrs(reg::t1, 0xc00, reg::zero);  // rdcycle
  a.add(reg::t2, reg::t2, reg::t1);
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);
  a.ebreak();
  const asmb::Program prog = a.finish();

  sim::Core core = make_jit_core(prog);
  ASSERT_EQ(core.run(), sim::Core::RunResult::Halted);
  const sim::jit::JitStats& st = core.jit_stats();
  EXPECT_EQ(st.interp_entries, static_cast<std::uint64_t>(kIters));
  // Entry block, the suffix after the CSR op, and the ebreak.
  EXPECT_EQ(st.translations, 3u);
  EXPECT_NE(core.x(reg::t2), 0u);
  expect_matches_reference(core, prog);
}

TEST(JitCache, SetBackendInvalidatesAndRecompiles) {
  // FP ops bind softfloat table entries into the micro-ops, which compiled
  // traces capture; switching the backend must drop every trace.
  asmb::Assembler a;
  a.li(reg::t0, 20);
  a.li(reg::t1, 0x3c003c00);
  a.emit({.op = Op::FMV_S_X, .rd = 1, .rs1 = reg::t1});
  const auto loop = a.here();
  a.fp_rrr(Op::VFADD_H, 2, 1, 1);
  a.fp_rrr(Op::FMUL_S, 3, 1, 2);
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);
  a.ebreak();
  const asmb::Program prog = a.finish();

  sim::Core core = make_jit_core(prog);
  ASSERT_EQ(core.run(), sim::Core::RunResult::Halted);
  ASSERT_GT(core.jit_cache_size(), 0u);

  // A fresh core binds grs; switch it to fast.
  ASSERT_EQ(core.backend(), fp::MathBackend::Grs);
  core.set_backend(fp::MathBackend::Fast);
  EXPECT_EQ(core.jit_cache_size(), 0u);
  EXPECT_GE(core.jit_stats().invalidations, 1u);

  // A rerun under the new backend recompiles and still matches reference.
  core.load_program(prog);
  core.clear_stats();
  ASSERT_EQ(core.run(), sim::Core::RunResult::Halted);
  EXPECT_GT(core.jit_cache_size(), 0u);
  expect_matches_reference(core, prog);
}

TEST(JitCache, MidBlockJalrEntryCompilesSuffix) {
  // The jalr lands 12 bytes past the auipc — on the *middle* of the trace
  // compiled from the entry block. That index is not a cached trace start:
  // the driver misses and compiles a suffix trace at the landing pc. Both
  // paths must retire identically.
  asmb::Assembler a;
  a.emit({.op = Op::AUIPC, .rd = reg::t2, .imm = 0});
  a.emit({.op = Op::JALR, .rd = reg::ra, .rs1 = reg::t2, .imm = 12});
  a.addi(reg::s1, reg::zero, 111);  // skipped
  a.addi(reg::s2, reg::zero, 222);  // jalr target: mid-trace index
  a.addi(reg::s3, reg::zero, 333);
  a.ebreak();
  const asmb::Program prog = a.finish();

  sim::Core core = make_jit_core(prog);
  ASSERT_EQ(core.run(), sim::Core::RunResult::Halted);
  EXPECT_EQ(core.x(reg::s1), 0u);
  EXPECT_EQ(core.x(reg::s2), 222u);
  EXPECT_EQ(core.x(reg::s3), 333u);
  // Entry trace + the suffix trace at the landing index.
  EXPECT_EQ(core.jit_stats().translations, 2u);
  expect_matches_reference(core, prog);
}

TEST(JitCache, LongStraightLineBlockCompilesAsOneTrace) {
  // 600 straight-line ops -- integer ALU, loads/stores, scalar and packed
  // FP -- then ebreak: one trace covers the whole block, however long.
  asmb::Assembler a;
  const std::uint32_t buf = a.data_zero(256);
  a.li(reg::s0, static_cast<std::int32_t>(buf));
  a.li(reg::t1, 0x3c003c00);
  a.emit({.op = Op::FMV_S_X, .rd = 1, .rs1 = reg::t1});
  for (int i = 0; i < 100; ++i) {  // 6 ops per round
    a.addi(reg::t0, reg::t0, i);
    a.sw(reg::t0, 4 * (i % 64), reg::s0);
    a.lw(reg::t2, 4 * (i % 32), reg::s0);
    a.add(reg::t1, reg::t1, reg::t2);
    a.fp_rrr(Op::VFADD_H, 2, 2, 1);
    a.fp_rrr(Op::FMUL_S, 3, 3, 1);
  }
  a.ebreak();
  const asmb::Program prog = a.finish();
  ASSERT_GT(prog.text.size(), 600u);

  // The entry block is the whole program (li expands to straight-line
  // ops): one trace, compiled on first entry.
  sim::Core core = make_jit_core(prog);
  ASSERT_EQ(core.run(), sim::Core::RunResult::Halted);
  EXPECT_EQ(core.jit_stats().translations, 1u);
  EXPECT_EQ(core.jit_stats().ops, prog.text.size());
  expect_matches_reference(core, prog);

  sim::Core ref;
  ref.set_engine(Engine::Reference);
  ref.load_program(prog);
  ASSERT_EQ(ref.run(), sim::Core::RunResult::Halted);
  EXPECT_EQ(core.stats().pc_cycles, ref.stats().pc_cycles);
  std::vector<std::uint8_t> mj(256), mr(256);
  core.memory().read_block(buf, mj.data(), mj.size());
  ref.memory().read_block(buf, mr.data(), mr.size());
  EXPECT_EQ(mj, mr);
}

TEST(JitCache, TelemetryAndKnobAccessors) {
  const asmb::Program prog = counting_loop(50);
  sim::Core core = make_jit_core(prog);
  ASSERT_EQ(core.run(), sim::Core::RunResult::Halted);
  const sim::jit::JitStats& st = core.jit_stats();
  EXPECT_GT(st.lookups, 0u);
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.hit_rate(), 0.0);
  EXPECT_LE(st.hit_rate(), 1.0);
  EXPECT_GT(st.ops, 0u);
  // At most one trace per text index: the cache is bounded by the text.
  EXPECT_GE(core.jit_cache_size(), 1u);
  EXPECT_LE(core.jit_cache_size(), prog.text.size());
}

}  // namespace
}  // namespace sfrv::test
