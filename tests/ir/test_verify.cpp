// Pipeline verifier test suite (ir/verify.hpp + sim/verify.hpp).
//
//  * Positive matrix: real kernels lowered at every mode x opt level and
//    their compiled traces must all check clean.
//  * Negative corpus: hand-corrupted Inst streams and trace slots — every
//    diagnostic class must fire, anchored at the right text index, and the
//    *_or_throw hooks must stamp the right pass name.
//  * Regression: scalar vars must be zeroed in the lowering prologue (an
//    accumulating var used to read the simulator's reset state — the first
//    latent bug this verifier flushed out).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "asmb/assembler.hpp"
#include "ir/lower.hpp"
#include "ir/opt.hpp"
#include "ir/verify.hpp"
#include "isa/encoding.hpp"
#include "kernels/polybench.hpp"
#include "kernels/runner.hpp"
#include "sim/decode.hpp"
#include "sim/jit.hpp"
#include "sim/verify.hpp"
#include "softfloat/runtime.hpp"
#include "util/verify.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using ir::LoweredKernel;
using ir::OptConfig;
using isa::Op;
using verify::Diag;
namespace reg = asmb::reg;

const sim::Timing kTim{};
const sim::MemConfig kMem{};

/// True when some diagnostic mentions `sub` (and, unless -2, is anchored at
/// `index`).
bool has_diag(const std::vector<Diag>& ds, std::string_view sub,
              std::int64_t index = -2) {
  for (const auto& d : ds) {
    if (d.message.find(sub) != std::string::npos &&
        (index == -2 || d.index == index)) {
      return true;
    }
  }
  return false;
}

std::string render_all(const std::vector<Diag>& ds) {
  std::string s;
  for (const auto& d : ds) s += verify::render(d) + "\n";
  return s;
}

LoweredKernel make_lk(asmb::Program prog) {
  LoweredKernel lk;
  lk.program = std::move(prog);
  lk.opt = OptConfig::O0();
  return lk;
}

/// Re-encode one instruction after corrupting it (keeps text_words in sync
/// so only the intended diagnostic fires). Only for corruptions that stay
/// encodable — out-of-range fields must NOT be re-encoded (encode asserts).
void resync(LoweredKernel& lk, std::size_t i) {
  lk.program.text_words[i] = isa::encode(lk.program.text[i]);
}

std::size_t find_op(const asmb::Program& p, Op op) {
  for (std::size_t i = 0; i < p.text.size(); ++i) {
    if (p.text[i].op == op) return i;
  }
  ADD_FAILURE() << "op not found in text";
  return 0;
}

/// li t0, 3; loop: addi t0, t0, -1; bne t0, zero, loop; ebreak.
asmb::Program loop_program() {
  Assembler a;
  a.li(reg::t0, 3);
  const auto loop = a.here();
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);
  a.ebreak();
  return a.finish();
}

// ---- ir::Verifier: positive -------------------------------------------------

TEST(IrVerifier, RealKernelsCheckCleanAtEveryModeAndLevel) {
  const auto tc = kernels::TypeConfig::uniform(ir::ScalarType::F16);
  const auto spec = kernels::make_gemm(tc, 8, 8, 8);
  const ir::Verifier v;
  for (const auto mode :
       {ir::CodegenMode::Scalar, ir::CodegenMode::AutoVec,
        ir::CodegenMode::ManualVec}) {
    for (const auto& opt : {OptConfig::O0(), OptConfig::O1(), OptConfig::O2()}) {
      const auto lk = ir::lower(spec.kernel, mode, spec.init, opt);
      const auto ds = v.check(lk);
      EXPECT_TRUE(ds.empty()) << ir::mode_name(mode) << "/"
                              << ir::opt_name(opt) << "\n" << render_all(ds);
    }
  }
}

TEST(IrVerifier, SetvlDominatedVectorMemopIsClean) {
  Assembler a;
  const auto buf = a.data_zero(64);
  a.la(reg::t0, buf);
  a.li(reg::t1, 4);
  a.setvl(reg::t2, reg::t1, 1);
  a.vflh(reg::ft0, 0, reg::t0);
  a.ebreak();
  const auto ds = ir::Verifier().check(make_lk(a.finish()));
  EXPECT_TRUE(ds.empty()) << render_all(ds);
}

// ---- ir::Verifier: negative corpus ------------------------------------------

TEST(IrVerifier, FlagsTextWordsSizeMismatch) {
  auto lk = make_lk(loop_program());
  lk.program.text_words.pop_back();
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk),
                       "text_words/text size mismatch", -1));
}

TEST(IrVerifier, FlagsStaleEncodedWord) {
  auto lk = make_lk(loop_program());
  const auto i = find_op(lk.program, Op::ADDI);
  lk.program.text[i].imm = -2;  // mutated Inst, stale word
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "text_words out of sync",
                       static_cast<std::int64_t>(i)));
}

TEST(IrVerifier, FlagsRegisterIndexOutOfRange) {
  auto lk = make_lk(loop_program());
  const auto i = find_op(lk.program, Op::ADDI);
  lk.program.text[i].rd = 40;
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk),
                       "rd register index 40 out of range",
                       static_cast<std::int64_t>(i)));
}

TEST(IrVerifier, FlagsNonzeroUnusedField) {
  auto lk = make_lk(loop_program());
  const auto i = find_op(lk.program, Op::ADDI);
  lk.program.text[i].rs2 = 3;  // Iimm layout has no rs2 operand
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "unused field rs2 is 3",
                       static_cast<std::int64_t>(i)));
}

TEST(IrVerifier, FlagsReservedRoundingMode) {
  Assembler a;
  a.fp_rrr(isa::Op::FADD_S, reg::ft2, reg::ft0, reg::ft1);
  a.ebreak();
  auto lk = make_lk(a.finish());
  lk.program.text[0].rm = 5;
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "reserved rounding mode 5",
                       0));
}

TEST(IrVerifier, FlagsImmediateOutOfRange) {
  auto lk = make_lk(loop_program());
  const auto i = find_op(lk.program, Op::ADDI);
  lk.program.text[i].imm = 4096;
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk),
                       "immediate 4096 out of range",
                       static_cast<std::int64_t>(i)));
}

TEST(IrVerifier, FlagsBranchTargetOutOfBounds) {
  auto lk = make_lk(loop_program());
  const auto i = find_op(lk.program, Op::BNE);
  lk.program.text[i].imm = 400;  // aligned but way past the end
  resync(lk, i);
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "outside the text segment",
                       static_cast<std::int64_t>(i)));
}

TEST(IrVerifier, FlagsMisalignedBranchTarget) {
  auto lk = make_lk(loop_program());
  const auto i = find_op(lk.program, Op::BNE);
  lk.program.text[i].imm = 2;
  resync(lk, i);
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk),
                       "control-flow target not instruction-aligned",
                       static_cast<std::int64_t>(i)));
}

TEST(IrVerifier, FlagsIntUseBeforeDef) {
  Assembler a;
  a.addi(reg::t1, reg::t0, 0);  // t0 never defined
  a.ebreak();
  const auto ds = ir::Verifier().check(make_lk(a.finish()));
  EXPECT_TRUE(has_diag(ds, "no definition on some path", 0)) << render_all(ds);
  EXPECT_TRUE(has_diag(ds, "t0"));
}

TEST(IrVerifier, FlagsFpUseBeforeDef) {
  Assembler a;
  a.fp_rrr(isa::Op::FADD_S, reg::ft3, reg::ft1, reg::ft2);
  a.ebreak();
  const auto ds = ir::Verifier().check(make_lk(a.finish()));
  EXPECT_TRUE(has_diag(ds, "no definition on some path", 0)) << render_all(ds);
  EXPECT_TRUE(has_diag(ds, "ft1, ft2"));
}

TEST(IrVerifier, FlagsDefOnOnlyOnePath) {
  // The definition of t1 is skippable: must-analysis reports the use.
  Assembler a;
  a.li(reg::t0, 1);
  const auto skip = a.make_label();
  a.beq(reg::t0, reg::zero, skip);
  a.li(reg::t1, 7);
  a.bind(skip);
  a.addi(reg::t2, reg::t1, 0);
  a.ebreak();
  const auto ds = ir::Verifier().check(make_lk(a.finish()));
  EXPECT_TRUE(has_diag(ds, "no definition on some path")) << render_all(ds);
}

TEST(IrVerifier, AcceptsLoopCarriedDefinition) {
  // t0 is defined before the back-edge target: the loop-aware analysis must
  // not flag the re-use across iterations.
  const auto ds = ir::Verifier().check(make_lk(loop_program()));
  EXPECT_TRUE(ds.empty()) << render_all(ds);
}

TEST(IrVerifier, FlagsVectorMemopWithoutSetvl) {
  Assembler a;
  const auto buf = a.data_zero(64);
  a.la(reg::t0, buf);
  a.vflh(reg::ft0, 0, reg::t0);
  a.ebreak();
  const auto ds = ir::Verifier().check(make_lk(a.finish()));
  EXPECT_TRUE(has_diag(ds, "not dominated by a setvl")) << render_all(ds);
}

TEST(IrVerifier, FlagsBadInnerRanges) {
  auto lk = make_lk(loop_program());
  const std::uint32_t base = lk.program.text_base;
  lk.inner_ranges = {{base + 2, base + 6}};
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "not 4-aligned"));
  lk.inner_ranges = {{base + 4, base + 4}};
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "empty or inverted"));
  lk.inner_ranges = {{base, base + 8}, {base + 4, base + 12}};
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "overlaps or is unsorted"));
  lk.inner_ranges = {{base, base + 400}};
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "outside the text segment"));
}

TEST(IrVerifier, FlagsMemArrayCorruption) {
  Assembler a;
  const auto buf = a.data_zero(16);
  a.la(reg::t0, buf);
  a.flw(reg::ft0, 0, reg::t0);
  a.ebreak();
  auto lk = make_lk(a.finish());
  const std::size_t n = lk.program.text.size();
  lk.mem_array.assign(1, -1);  // wrong size
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "mem_array size", -1));
  lk.mem_array.assign(n, -1);
  lk.mem_array[find_op(lk.program, Op::FLW)] = 3;  // no arrays: max id is 0
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk),
                       "provenance id 3 outside [-1, 0]"));
  lk.mem_array.assign(n, -1);
  lk.mem_array[0] = 0;  // la's first inst is not a memory op
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk),
                       "attached to a non-memory instruction", 0));
}

TEST(IrVerifier, FlagsInvalidOptProvenance) {
  auto lk = make_lk(loop_program());
  lk.opt = OptConfig{3, false, false};  // unroll factor 3 is not a power of 2
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk),
                       "invalid OptConfig provenance", -1));
}

TEST(IrVerifier, EntryLiveWhitelistSuppressesDiagnostic) {
  Assembler a;
  a.addi(reg::t1, reg::a0, 0);  // a0 undefined unless whitelisted
  a.ebreak();
  const auto lk = make_lk(a.finish());
  EXPECT_TRUE(has_diag(ir::Verifier().check(lk), "no definition"));
  ir::Verifier v;
  v.add_entry_live(reg::a0);
  EXPECT_TRUE(v.check(lk).empty());
}

TEST(IrVerifier, VerifyOrThrowStampsPassName) {
  Assembler a;
  a.addi(reg::t1, reg::t0, 0);
  a.ebreak();
  const auto lk = make_lk(a.finish());
  try {
    ir::verify_or_throw(lk, "dead-glue-elim");
    FAIL() << "expected VerifyError";
  } catch (const verify::VerifyError& e) {
    EXPECT_EQ(e.pass(), "dead-glue-elim");
    ASSERT_FALSE(e.diags().empty());
    EXPECT_EQ(e.diags()[0].pass, "dead-glue-elim");
    EXPECT_EQ(e.diags()[0].index, 0);
    EXPECT_NE(std::string(e.what()).find("pass 'dead-glue-elim'"),
              std::string::npos);
  }
}

// ---- var zero-init regression (first latent bug the verifier found) ---------

TEST(IrVerifier, ScalarVarsAreZeroedInThePrologue) {
  // {acc += A[j]*B[j]; y[j] += A[j]*acc}: the accumulator var's home
  // register is read in its own defining loop. Lowering used to allocate it
  // without initialization — silently relying on the simulator's zeroed
  // register file — which the def-before-use analysis reports. The prologue
  // must carry an explicit fmv.s.x from x0.
  ir::Kernel k;
  k.name = "acc_read";
  const int n = 8;
  const int A = k.add_array("A", ir::ScalarType::F16, 1, n);
  const int B = k.add_array("B", ir::ScalarType::F16, 1, n);
  const int Y = k.add_array("y", ir::ScalarType::F16, 1, n);
  const int acc = k.add_var("acc", ir::ScalarType::F32);
  const int j = k.fresh_loop_var();
  auto ref = [&](int arr) {
    return ir::ArrayRef{arr, ir::Index::constant(0), ir::Index{j, 0}};
  };
  ir::Loop lj{j, 0, ir::Bound::fixed(n), {}};
  lj.body.push_back(ir::accum_var(
      acc, ir::Expr::mul(ir::Expr::load(ref(A)), ir::Expr::load(ref(B)))));
  lj.body.push_back(ir::accum(
      ref(Y), ir::Expr::mul(ir::Expr::load(ref(A)), ir::Expr::variable(acc))));
  k.body.push_back(std::move(lj));
  (void)Y;

  for (const auto mode :
       {ir::CodegenMode::Scalar, ir::CodegenMode::AutoVec,
        ir::CodegenMode::ManualVec}) {
    for (const auto& opt : {OptConfig::O0(), OptConfig::O2()}) {
      const auto lk = ir::lower(k, mode, {}, opt);
      const auto ds = ir::Verifier().check(lk);
      EXPECT_TRUE(ds.empty()) << ir::mode_name(mode) << "/"
                              << ir::opt_name(opt) << "\n" << render_all(ds);
      bool zeroed = false;
      for (const auto& in : lk.program.text) {
        if (in.op == Op::FMV_S_X && in.rs1 == reg::zero) zeroed = true;
      }
      EXPECT_TRUE(zeroed) << "no fmv.s.x zero-init in the prologue ("
                          << ir::mode_name(mode) << ")";
    }
  }
}

// ---- trace checker ----------------------------------------------------------

std::vector<sim::DecodedOp> decode_all(
    const asmb::Program& p, fp::MathBackend b = fp::default_backend()) {
  return sim::decode_program(p.text, isa::IsaConfig::full(), kTim, b);
}

struct TraceFixture {
  asmb::Program prog;
  std::vector<sim::DecodedOp> uops;
  sim::jit::JitProgram jp;
  sim::Stats st;
  sim::jit::Trace* t = nullptr;

  explicit TraceFixture(asmb::Program p, std::uint32_t idx = 0,
                        fp::MathBackend b = fp::default_backend())
      : prog(std::move(p)), uops(decode_all(prog, b)) {
    jp.on_code_change(uops.size());
    t = jp.translate(idx, uops, kTim, kMem, prog.text_base, st);
  }

  [[nodiscard]] std::vector<Diag> check(const sim::jit::Trace& tr) const {
    return sim::check_trace(tr, uops, kTim, kMem, prog.text_base);
  }
};

asmb::Program straightline_program() {
  Assembler a;
  a.li(reg::t0, 1);
  a.addi(reg::t1, reg::t0, 1);
  a.add(reg::t2, reg::t0, reg::t1);
  a.ebreak();
  return a.finish();
}

/// Scalar and packed FP ops the trace inlines as handler-shape slots.
asmb::Program fp_program() {
  Assembler a;
  a.fp_rrr(Op::FADD_S, 1, 2, 3);
  a.fp_rrr(Op::VFMAC_H, 4, 5, 6);
  a.ebreak();
  return a.finish();
}

asmb::Program csr_split_program() {
  Assembler a;
  a.li(reg::t0, 1);
  a.addi(reg::t1, reg::t0, 1);
  a.csrrs(reg::t3, 0x001, reg::zero);  // untranslatable: ends the trace open
  a.ebreak();
  return a.finish();
}

TEST(TraceChecker, CleanTranslationPasses) {
  TraceFixture f(straightline_program());
  ASSERT_NE(f.t, nullptr);
  const auto ds = f.check(*f.t);
  EXPECT_TRUE(ds.empty()) << render_all(ds);
}

TEST(TraceChecker, FlagsWrongBasePc) {
  TraceFixture f(straightline_program());
  ASSERT_NE(f.t, nullptr);
  sim::jit::Trace tt = *f.t;
  tt.base_pc += 4;
  EXPECT_TRUE(has_diag(f.check(tt), "base_pc"));
}

TEST(TraceChecker, FastBackendUsesGenericSlots) {
  // Under the fast backend the handler-shape slots call the bound pointer,
  // which is the fast kernel itself: no backend-specific token exists.
  TraceFixture f(fp_program(), 0, fp::MathBackend::Fast);
  ASSERT_NE(f.t, nullptr);
  ASSERT_EQ(f.t->n, 3u);
  const sim::jit::TraceSlot& add = f.t->slots[0];
  EXPECT_EQ(add.top, sim::jit::TOp::FpBin);
  EXPECT_EQ(add.u.fp1.bin,
            fp::rt_ops(fp::FpFormat::F32, fp::MathBackend::Fast).add);
  const sim::jit::TraceSlot& mac = f.t->slots[1];
  EXPECT_EQ(mac.top, sim::jit::TOp::VecMac);
  EXPECT_EQ(mac.u.fp1.vtern,
            fp::rt_vec_ops(fp::FpFormat::F16, fp::MathBackend::Fast).mac);
  const auto ds = f.check(*f.t);
  EXPECT_TRUE(ds.empty()) << render_all(ds);
}

TEST(TraceChecker, FlagsEmbeddedLaneDrift) {
  // Packed slots read the live vl, so the embedded lane count must be the
  // source op's hardware lane count, unchanged.
  TraceFixture f(fp_program());
  ASSERT_NE(f.t, nullptr);
  {
    const auto ds = f.check(*f.t);
    EXPECT_TRUE(ds.empty()) << render_all(ds);
  }
  sim::jit::Trace tt = *f.t;
  ASSERT_EQ(tt.slots[1].top, sim::jit::TOp::VecMac);
  ASSERT_GT(tt.slots[1].u.lanes, 1);
  tt.slots[1].u.lanes -= 1;
  EXPECT_TRUE(has_diag(f.check(tt), "embedded micro-op differs",
                       static_cast<std::int64_t>(tt.start_idx) + 1));
}

TEST(TraceChecker, FlagsStartPastEndAndBadSlotCount) {
  TraceFixture f(straightline_program());
  ASSERT_NE(f.t, nullptr);
  sim::jit::Trace tt = *f.t;
  tt.start_idx = 1000;
  EXPECT_TRUE(has_diag(f.check(tt), "starts past the end"));
  tt = *f.t;
  tt.n = 0;
  EXPECT_TRUE(has_diag(f.check(tt), "retiring slot count"));
}

TEST(TraceChecker, FlagsSlotCycleCorruption) {
  TraceFixture f(straightline_program());
  ASSERT_NE(f.t, nullptr);
  sim::jit::Trace tt = *f.t;
  tt.slots[1].cycles += 1;
  EXPECT_TRUE(has_diag(f.check(tt), "precomputed slot cycles",
                       static_cast<std::int64_t>(tt.start_idx) + 1));
}

TEST(TraceChecker, FlagsWrongToken) {
  TraceFixture f(straightline_program());
  ASSERT_NE(f.t, nullptr);
  sim::jit::Trace tt = *f.t;
  ASSERT_EQ(tt.slots[1].top, sim::jit::TOp::Addi);
  tt.slots[1].top = sim::jit::TOp::Add;
  EXPECT_TRUE(has_diag(f.check(tt), "ALU token mismatch (expected Addi)"));
}

TEST(TraceChecker, FlagsFoldedBranchTargetDrift) {
  // Trace at the loop head: addi + bne terminator with folded targets.
  TraceFixture f(loop_program(), /*idx=*/1);
  ASSERT_NE(f.t, nullptr);
  ASSERT_EQ(f.t->n, 2u);
  sim::jit::Trace tt = *f.t;
  tt.slots[1].p0 += 4;
  EXPECT_TRUE(has_diag(f.check(tt), "folded branch target"));
}

TEST(TraceChecker, FlagsAggregateDrift) {
  TraceFixture f(straightline_program());
  ASSERT_NE(f.t, nullptr);
  sim::jit::Trace tt = *f.t;
  tt.n_loads += 1;
  EXPECT_TRUE(has_diag(f.check(tt), "aggregate load/store counts"));
  tt = *f.t;
  tt.sum_cycles += 1;
  EXPECT_TRUE(has_diag(f.check(tt), "aggregate sum_cycles"));
  tt = *f.t;
  ASSERT_FALSE(tt.op_counts.empty());
  tt.op_counts[0].second += 1;
  EXPECT_TRUE(has_diag(f.check(tt), "per-op retirement counts"));
  tt = *f.t;
  tt.taken_extra += 1;
  EXPECT_TRUE(has_diag(f.check(tt), "taken_extra"));
}

TEST(TraceChecker, FlagsExitSlotDrift) {
  TraceFixture f(csr_split_program());
  ASSERT_NE(f.t, nullptr);
  ASSERT_EQ(f.t->slots.size(), f.t->n + 1u);  // open trace: Exit appended
  {
    const auto ds = f.check(*f.t);
    EXPECT_TRUE(ds.empty()) << render_all(ds);
  }
  sim::jit::Trace tt = *f.t;
  tt.slots[tt.n].p1 += 4;
  EXPECT_TRUE(has_diag(f.check(tt), "Exit fall-through pc"));
  tt = *f.t;
  tt.slots.pop_back();
  EXPECT_TRUE(has_diag(f.check(tt), "missing its Exit slot"));
}

TEST(TraceChecker, ThrowHookStampsTranslationPass) {
  TraceFixture f(straightline_program());
  ASSERT_NE(f.t, nullptr);
  sim::jit::Trace tt = *f.t;
  tt.slots[1].cycles += 1;
  try {
    sim::verify_trace_or_throw(tt, f.uops, kTim, kMem, f.prog.text_base);
    FAIL() << "expected VerifyError";
  } catch (const verify::VerifyError& e) {
    EXPECT_EQ(e.pass(), "translation");
    EXPECT_NE(std::string(e.what()).find("pass 'translation'"),
              std::string::npos);
  }
}

// ---- runtime switch ---------------------------------------------------------

TEST(VerifySwitch, SetEnabledOverridesEnvironment) {
  const bool before = verify::enabled();
  verify::set_enabled(false);
  EXPECT_FALSE(verify::enabled());
  verify::set_enabled(true);
  EXPECT_TRUE(verify::enabled());
  verify::set_enabled(before);
}

}  // namespace
}  // namespace sfrv::test
