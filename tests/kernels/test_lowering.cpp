// Compiler-layer validation: the three code generators (scalar, auto-vec,
// manual-vec) must compute the same results.
//
// For kernels without scalar-reduction reordering (GEMM, SYRK, SYR2K,
// FDTD-2D: all accumulate element-wise in memory), the vectorized code is
// bit-identical to scalar code. Kernels with reductions (ATAX, SVM) may
// legally differ by reassociation, so they are held to golden-reference SQNR
// proximity instead.
#include <gtest/gtest.h>

#include "kernels/qor.hpp"
#include "kernels/suite.hpp"

namespace sfrv::kernels {
namespace {

using ir::CodegenMode;
using ir::ScalarType;

std::vector<double> run_outputs(const KernelSpec& spec, CodegenMode mode) {
  const auto r = run_kernel(spec, mode);
  return r.concat_outputs(spec.output_arrays);
}

std::vector<double> golden_concat(const KernelSpec& spec) {
  std::vector<double> all;
  for (const auto& g : spec.golden) all.insert(all.end(), g.begin(), g.end());
  return all;
}

struct Case {
  const char* bench;
  ScalarType type;
};

class ElementwiseBitExact : public ::testing::TestWithParam<Case> {};

TEST_P(ElementwiseBitExact, AllModesProduceIdenticalBits) {
  const auto [bench, type] = GetParam();
  KernelSpec spec;
  for (const auto& b : benchmark_suite()) {
    if (b.name == bench) spec = b.make(TypeConfig::uniform(type));
  }
  const auto scalar = run_outputs(spec, CodegenMode::Scalar);
  const auto autov = run_outputs(spec, CodegenMode::AutoVec);
  const auto manual = run_outputs(spec, CodegenMode::ManualVec);
  ASSERT_EQ(scalar.size(), autov.size());
  ASSERT_EQ(scalar.size(), manual.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(scalar[i], autov[i]) << bench << " elem " << i << " (auto)";
    ASSERT_EQ(scalar[i], manual[i]) << bench << " elem " << i << " (manual)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ElementwiseBitExact,
    ::testing::Values(Case{"gemm", ScalarType::F16},
                      Case{"gemm", ScalarType::F16Alt},
                      Case{"gemm", ScalarType::F8},
                      Case{"syrk", ScalarType::F16},
                      Case{"syrk", ScalarType::F8},
                      Case{"syr2k", ScalarType::F16},
                      Case{"syr2k", ScalarType::F8},
                      Case{"fdtd2d", ScalarType::F16},
                      Case{"fdtd2d", ScalarType::F16Alt},
                      Case{"fdtd2d", ScalarType::F8}),
    [](const auto& info) {
      return std::string(info.param.bench) + "_" +
             std::string(ir::type_name(info.param.type));
    });

class ReductionSqnrClose : public ::testing::TestWithParam<Case> {};

TEST_P(ReductionSqnrClose, ModesAgreeWithinReassociationNoise) {
  const auto [bench, type] = GetParam();
  KernelSpec spec;
  for (const auto& b : benchmark_suite()) {
    if (b.name == bench) spec = b.make(TypeConfig::uniform(type));
  }
  const auto gold = golden_concat(spec);
  const double s_scalar = sqnr_db(gold, run_outputs(spec, CodegenMode::Scalar));
  const double s_auto = sqnr_db(gold, run_outputs(spec, CodegenMode::AutoVec));
  const double s_manual =
      sqnr_db(gold, run_outputs(spec, CodegenMode::ManualVec));
  // Reassociation may move results, and typically *improves* long reductions
  // (the packed accumulator forms partial sums). Allow a modest loss and a
  // larger gain.
  EXPECT_GT(s_auto, s_scalar - 4.0) << bench;
  EXPECT_LT(s_auto, s_scalar + 16.0) << bench;
  EXPECT_GT(s_manual, s_scalar - 4.0) << bench;
  EXPECT_LT(s_manual, s_scalar + 16.0) << bench;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ReductionSqnrClose,
    ::testing::Values(Case{"atax", ScalarType::F16},
                      Case{"atax", ScalarType::F16Alt},
                      Case{"svm", ScalarType::F16},
                      Case{"svm", ScalarType::F16Alt}),
    [](const auto& info) {
      return std::string(info.param.bench) + "_" +
             std::string(ir::type_name(info.param.type));
    });

TEST(LoweringFloat32, ScalarIsAccurate) {
  for (const auto& b : benchmark_suite()) {
    const auto spec = b.make(TypeConfig::uniform(ScalarType::F32));
    const auto out = run_outputs(spec, CodegenMode::Scalar);
    const double s = sqnr_db(golden_concat(spec), out);
    EXPECT_GT(s, 100.0) << b.name << " float32 scalar SQNR " << s;
  }
}

TEST(LoweringFloat32, VectorModesFallBackToScalar) {
  // float cannot be packed at FLEN=32: auto/manual must emit scalar code
  // with zero vector instructions, and match scalar bit-for-bit.
  const auto spec = make_gemm(TypeConfig::uniform(ScalarType::F32));
  const auto rs = run_kernel(spec, CodegenMode::Scalar);
  const auto rm = run_kernel(spec, CodegenMode::ManualVec);
  EXPECT_EQ(rm.stats.count_where([](isa::Op op) { return isa::is_vector(op); }),
            0u);
  EXPECT_EQ(rs.outputs.at("C"), rm.outputs.at("C"));
}

TEST(LoweringVector, VectorInstructionsActuallyUsed) {
  const auto spec = make_gemm(TypeConfig::uniform(ScalarType::F16));
  const auto r = run_kernel(spec, CodegenMode::ManualVec);
  EXPECT_GT(r.stats.count(isa::Op::VFMAC_R_H), 0u) << "GEMM should vfmac.r";
  const auto spec8 = make_gemm(TypeConfig::uniform(ScalarType::F8));
  const auto r8 = run_kernel(spec8, CodegenMode::ManualVec);
  EXPECT_GT(r8.stats.count(isa::Op::VFMAC_R_B), 0u);
}

TEST(LoweringVector, VectorizationReducesCycles) {
  for (const char* name : {"gemm", "atax", "syrk", "fdtd2d"}) {
    KernelSpec s16;
    for (const auto& b : benchmark_suite()) {
      if (b.name == name) s16 = b.make(TypeConfig::uniform(ScalarType::F16));
    }
    const auto scal = run_kernel(s16, CodegenMode::Scalar);
    const auto man = run_kernel(s16, CodegenMode::ManualVec);
    EXPECT_LT(man.cycles(), scal.cycles()) << name;
  }
}

TEST(LoweringVector, F8FasterThanF16Manual) {
  const auto s16 = make_gemm(TypeConfig::uniform(ScalarType::F16));
  const auto s8 = make_gemm(TypeConfig::uniform(ScalarType::F8));
  const auto r16 = run_kernel(s16, CodegenMode::ManualVec);
  const auto r8 = run_kernel(s8, CodegenMode::ManualVec);
  EXPECT_LT(r8.cycles(), r16.cycles());
}

TEST(LoweringMixed, ManualUsesXfauxAutoUsesConversions) {
  // The Fig. 4/5 signature: mixed precision (f32 accumulator over f16 data).
  const auto& f = svm_fixture();
  const auto spec = make_svm({ScalarType::F16, ScalarType::F32}, f);
  const auto man = run_kernel(spec, CodegenMode::ManualVec);
  EXPECT_GT(man.stats.count(isa::Op::VFDOTPEX_S_H), 0u);
  EXPECT_EQ(man.stats.count(isa::Op::FCVT_S_H), 0u)
      << "manual code needs no conversion instructions";
  const auto aut = run_kernel(spec, CodegenMode::AutoVec);
  EXPECT_GT(aut.stats.count(isa::Op::FCVT_S_H), 0u)
      << "auto-vectorized code converts each product lane";
  EXPECT_GT(aut.stats.count(isa::Op::VFMUL_H), 0u);
  EXPECT_EQ(aut.stats.count(isa::Op::VFDOTPEX_S_H), 0u);
}

TEST(LoweringMixed, ManualMatchesScalarBitForBit) {
  // fmacex (scalar) and vfdotpex (vector) accumulate in the same order with
  // the same single-rounding steps, so mixed manual == mixed scalar exactly.
  const auto& f = svm_fixture();
  const auto spec = make_svm({ScalarType::F16, ScalarType::F32}, f);
  const auto scal = run_kernel(spec, CodegenMode::Scalar);
  const auto man = run_kernel(spec, CodegenMode::ManualVec);
  EXPECT_EQ(scal.outputs.at("scores"), man.outputs.at("scores"));
}

TEST(LoweringExs, WideningConfigsUseTheExSdotpUnit) {
  // The ExSdotp generator's signature shape: a (data, one-step-wider acc)
  // reduction lowers to the packed widening dot product — one vfexsdotp per
  // vector chunk, no per-lane conversion instructions, and none of the
  // 32-bit-accumulator vfdotpex ops.
  const auto& f = svm_fixture();
  struct Pair {
    ScalarType data, acc;
    isa::Op op;
  };
  const Pair pairs[] = {
      {ScalarType::F16, ScalarType::F32, isa::Op::VFEXSDOTP_S_H},
      {ScalarType::F16Alt, ScalarType::F32, isa::Op::VFEXSDOTP_S_AH},
      {ScalarType::F8, ScalarType::F16, isa::Op::VFEXSDOTP_H_B},
      {ScalarType::P8, ScalarType::P16, isa::Op::VFEXSDOTP_P16_P8},
  };
  for (const auto& p : pairs) {
    const auto spec = make_svm({p.data, p.acc}, f);
    const auto exs = run_kernel(spec, CodegenMode::ManualVecExs);
    EXPECT_GT(exs.stats.count(p.op), 0u)
        << ir::type_name(p.data) << "/" << ir::type_name(p.acc);
    EXPECT_EQ(exs.stats.count(isa::Op::VFDOTPEX_S_H) +
                  exs.stats.count(isa::Op::VFDOTPEX_S_AH) +
                  exs.stats.count(isa::Op::VFDOTPEX_S_B),
              0u)
        << ir::type_name(p.data) << ": exsdotp replaces the dotpex family";
    EXPECT_EQ(exs.stats.count(isa::Op::FCVT_S_H), 0u)
        << ir::type_name(p.data) << ": no per-lane conversions";
    // And the reduction is computed correctly (association differs from
    // scalar, so hold to golden proximity like the other reduction modes).
    const double s_scal =
        sqnr_db(golden_concat(spec), run_outputs(spec, CodegenMode::Scalar));
    const double s_exs = sqnr_db(golden_concat(spec), run_outputs(spec, CodegenMode::ManualVecExs));
    EXPECT_GT(s_exs, s_scal - 4.0)
        << ir::type_name(p.data) << "/" << ir::type_name(p.acc);
  }
}

TEST(LoweringExs, UniformConfigsLowerIdenticallyToManualVec) {
  // Without a one-step-wider accumulator there is nothing for the ExSdotp
  // unit to do: the generator must produce the same code as ManualVec —
  // same instruction and cycle counts, bit-identical outputs.
  for (const ScalarType t :
       {ScalarType::F16, ScalarType::F8, ScalarType::P8}) {
    const auto spec = make_gemm(TypeConfig::uniform(t));
    const auto man = run_kernel(spec, CodegenMode::ManualVec);
    const auto exs = run_kernel(spec, CodegenMode::ManualVecExs);
    EXPECT_EQ(man.stats.instructions, exs.stats.instructions)
        << ir::type_name(t);
    EXPECT_EQ(man.cycles(), exs.cycles()) << ir::type_name(t);
    EXPECT_EQ(man.outputs.at("C"), exs.outputs.at("C")) << ir::type_name(t);
    EXPECT_EQ(exs.stats.count(ir::exsdotp_op(t)), 0u) << ir::type_name(t);
  }
}

TEST(LoweringExs, ExpandingF32AccumulatorStillUsesDotpex) {
  // data + F32 accumulator where F32 is NOT one step wider (f8 data): the
  // ExSdotp generator has no opcode for the two-step widening and must keep
  // the ManualVec expanding dot product.
  const auto& f = svm_fixture();
  const auto spec = make_svm({ScalarType::F8, ScalarType::F32}, f);
  const auto exs = run_kernel(spec, CodegenMode::ManualVecExs);
  EXPECT_GT(exs.stats.count(isa::Op::VFDOTPEX_S_B), 0u);
  EXPECT_EQ(exs.stats.count(isa::Op::VFEXSDOTP_H_B), 0u);
  const auto man = run_kernel(spec, CodegenMode::ManualVec);
  EXPECT_EQ(man.outputs.at("scores"), exs.outputs.at("scores"));
}

TEST(LoweringIdeal, IdealCyclesBracketMeasured) {
  const auto spec = make_gemm(TypeConfig::uniform(ScalarType::F16));
  const auto scal = run_kernel(spec, CodegenMode::Scalar);
  const auto man = run_kernel(spec, CodegenMode::ManualVec);
  const double ideal = scal.ideal_cycles(2);
  EXPECT_LT(ideal, static_cast<double>(scal.cycles()));
  // Measured vectorized cycles cannot beat the ideal by more than noise.
  EXPECT_GT(static_cast<double>(man.cycles()), 0.95 * ideal);
}

TEST(LoweringMixed, InvariantVarOperandInVectorLoop) {
  // The atax shape that mixed precision exposes: y[j] += A[i][j] * s with a
  // float accumulator s feeding float16 lanes. The vectorizer must convert
  // s once in the preheader, and all modes must agree bit for bit with the
  // scalar code's rounding-per-element semantics... or at least compute a
  // correct result; atax reductions reassociate, so hold to SQNR proximity.
  const auto spec = make_atax({ScalarType::F16, ScalarType::F32});
  const auto gold = golden_concat(spec);
  for (const auto mode :
       {CodegenMode::Scalar, CodegenMode::AutoVec, CodegenMode::ManualVec}) {
    const auto out = run_outputs(spec, mode);
    EXPECT_GT(sqnr_db(gold, out), 55.0) << ir::mode_name(mode);
  }
}

TEST(LoweringFallback, AllInvariantAccumulateRunsAsScalar) {
  // y[j] += s with s loop-invariant: no streaming operand carries the lanes,
  // so the vectorizer must reject the loop and fall back to scalar code
  // (previously an assert / a silent miscompile in release builds).
  KernelSpec spec;
  ir::Kernel& k = spec.kernel;
  k.name = "invariant_accum";
  const int n = 6;
  const int Y = k.add_array("y", ScalarType::F16, 1, n);
  const int s = k.add_var("s", ScalarType::F16);
  const int i = k.fresh_loop_var();
  const int j = k.fresh_loop_var();
  ir::Loop li{i, 0, ir::Bound::fixed(1), {}};
  li.body.push_back(ir::assign_var(s, ir::Expr::constant(0.25)));
  ir::Loop lj{j, 0, ir::Bound::fixed(n), {}};
  lj.body.push_back(
      ir::accum(ir::ArrayRef{Y, ir::Index::constant(0), ir::Index{j, 0}},
                ir::Expr::variable(s)));
  li.body.push_back(std::move(lj));
  k.body.push_back(std::move(li));
  spec.init.resize(1);
  spec.output_arrays = {"y"};

  for (const auto mode :
       {CodegenMode::Scalar, CodegenMode::AutoVec, CodegenMode::ManualVec}) {
    const auto r = run_kernel(spec, mode);
    for (const double v : r.outputs.at("y")) {
      EXPECT_EQ(v, 0.25) << ir::mode_name(mode);
    }
  }
}

TEST(LoweringFallback, AccumulatedVarReadInSameLoopRunsAsScalar) {
  // {acc += A[j]*B[j]; y[j] += A[j]*acc} reads the reduction variable as an
  // operand of the same loop: the packed accumulator lanes are not the home
  // register, so the loop must not vectorize. All modes then share the
  // scalar lowering and must agree bit for bit.
  KernelSpec spec;
  ir::Kernel& k = spec.kernel;
  k.name = "acc_read";
  const int n = 8;
  const int A = k.add_array("A", ScalarType::F16, 1, n);
  const int B = k.add_array("B", ScalarType::F16, 1, n);
  const int Y = k.add_array("y", ScalarType::F16, 1, n);
  const int acc = k.add_var("acc", ScalarType::F32);
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
  spec.init.resize(3);
  spec.init[static_cast<std::size_t>(A)] = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.init[static_cast<std::size_t>(B)] = {0.5, 0.5, 0.5, 0.5, 1, 1, 1, 1};
  spec.output_arrays = {"y"};

  const auto scal = run_kernel(spec, CodegenMode::Scalar);
  const auto man = run_kernel(spec, CodegenMode::ManualVec);
  const auto aut = run_kernel(spec, CodegenMode::AutoVec);
  EXPECT_EQ(scal.outputs.at("y"), man.outputs.at("y"));
  EXPECT_EQ(scal.outputs.at("y"), aut.outputs.at("y"));
  // Sanity: the first element saw acc = 0.5 (1*0.5), so y[0] = 1 * 0.5.
  EXPECT_EQ(scal.outputs.at("y").front(), 0.5);
}

TEST(LoweringEpilogue, OddTripCountsStayCorrect) {
  // 30 columns: f8 vectors (4 lanes) leave a 2-element epilogue; results must
  // match the scalar code bit-for-bit on the elementwise kernel.
  const auto spec = make_fdtd2d(TypeConfig::uniform(ScalarType::F8), 2, 9, 9);
  const auto scal = run_kernel(spec, CodegenMode::Scalar);
  const auto man = run_kernel(spec, CodegenMode::ManualVec);
  const auto aut = run_kernel(spec, CodegenMode::AutoVec);
  EXPECT_EQ(scal.outputs.at("hz"), man.outputs.at("hz"));
  EXPECT_EQ(scal.outputs.at("hz"), aut.outputs.at("hz"));
  EXPECT_EQ(scal.outputs.at("ex"), man.outputs.at("ex"));
  EXPECT_EQ(scal.outputs.at("ey"), aut.outputs.at("ey"));
}

}  // namespace
}  // namespace sfrv::kernels
