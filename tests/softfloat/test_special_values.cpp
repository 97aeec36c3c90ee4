// Directed tests for IEEE special values: NaN propagation and canonicalization,
// infinities, signed zeros, min/max semantics, classification, and the
// RISC-V-specific corner cases (canonical NaN, fmin(-0,+0), FMA NV rule).
#include <gtest/gtest.h>

#include "softfloat/softfloat.hpp"
#include "test_util.hpp"

namespace sfrv::test {
namespace {

template <class F>
struct SpecialValues : public ::testing::Test {};

using AllFormats =
    ::testing::Types<Binary8, Binary16, Binary16Alt, Binary32, Binary64>;
TYPED_TEST_SUITE(SpecialValues, AllFormats);

TYPED_TEST(SpecialValues, NanPropagationIsCanonical) {
  using F = TypeParam;
  const auto qnan = Float<F>::quiet_nan();
  // A NaN with payload bits must still produce the canonical NaN.
  const auto payload_nan = Float<F>::from_parts(
      true, static_cast<unsigned>(F::exp_field_max), F::man_mask);
  const auto one = Float<F>::one();
  Flags fl;
  EXPECT_EQ(fp::add(payload_nan, one, RoundingMode::RNE, fl).bits, qnan.bits);
  EXPECT_EQ(fp::mul(one, payload_nan, RoundingMode::RNE, fl).bits, qnan.bits);
  EXPECT_EQ(fp::div(payload_nan, payload_nan, RoundingMode::RNE, fl).bits,
            qnan.bits);
  EXPECT_EQ(fl.bits, 0u) << "quiet NaN operands must not raise flags";
}

TYPED_TEST(SpecialValues, SignalingNanRaisesInvalid) {
  using F = TypeParam;
  const auto snan = Float<F>::from_parts(
      false, static_cast<unsigned>(F::exp_field_max), 1);  // quiet bit clear
  ASSERT_TRUE(snan.is_signaling_nan());
  const auto one = Float<F>::one();
  Flags fl;
  const auto r = fp::add(snan, one, RoundingMode::RNE, fl);
  EXPECT_TRUE(r.is_quiet_nan());
  EXPECT_TRUE(fl.test(Flags::NV));
}

TYPED_TEST(SpecialValues, InfinityArithmetic) {
  using F = TypeParam;
  const auto pinf = Float<F>::inf(false);
  const auto ninf = Float<F>::inf(true);
  const auto one = Float<F>::one();
  Flags fl;
  EXPECT_EQ(fp::add(pinf, one, RoundingMode::RNE, fl).bits, pinf.bits);
  EXPECT_EQ(fp::add(pinf, pinf, RoundingMode::RNE, fl).bits, pinf.bits);
  EXPECT_EQ(fl.bits, 0u);
  // inf - inf is invalid.
  const auto r = fp::add(pinf, ninf, RoundingMode::RNE, fl);
  EXPECT_TRUE(r.is_quiet_nan());
  EXPECT_TRUE(fl.test(Flags::NV));
  // inf * 0 is invalid.
  fl.clear();
  const auto r2 = fp::mul(pinf, Float<F>::zero(), RoundingMode::RNE, fl);
  EXPECT_TRUE(r2.is_quiet_nan());
  EXPECT_TRUE(fl.test(Flags::NV));
}

TYPED_TEST(SpecialValues, DivisionSpecials) {
  using F = TypeParam;
  const auto one = Float<F>::one();
  const auto zero = Float<F>::zero();
  Flags fl;
  const auto r = fp::div(one, zero, RoundingMode::RNE, fl);
  EXPECT_TRUE(r.is_inf());
  EXPECT_FALSE(r.sign());
  EXPECT_TRUE(fl.test(Flags::DZ));
  fl.clear();
  const auto r2 = fp::div(zero, zero, RoundingMode::RNE, fl);
  EXPECT_TRUE(r2.is_quiet_nan());
  EXPECT_TRUE(fl.test(Flags::NV));
  EXPECT_FALSE(fl.test(Flags::DZ)) << "0/0 is NV, not DZ";
  fl.clear();
  const auto r3 = fp::div(Float<F>::one(true), zero, RoundingMode::RNE, fl);
  EXPECT_TRUE(r3.is_inf());
  EXPECT_TRUE(r3.sign());
}

TYPED_TEST(SpecialValues, SignedZeroRules) {
  using F = TypeParam;
  const auto pz = Float<F>::zero(false);
  const auto nz = Float<F>::zero(true);
  Flags fl;
  // (+0) + (-0) = +0 except in RDN where it is -0.
  EXPECT_FALSE(fp::add(pz, nz, RoundingMode::RNE, fl).sign());
  EXPECT_TRUE(fp::add(pz, nz, RoundingMode::RDN, fl).sign());
  EXPECT_TRUE(fp::add(nz, nz, RoundingMode::RNE, fl).sign());
  // x - x = +0 (RNE) / -0 (RDN) for finite x.
  const auto one = Float<F>::one();
  EXPECT_FALSE(fp::sub(one, one, RoundingMode::RNE, fl).sign());
  EXPECT_TRUE(fp::sub(one, one, RoundingMode::RDN, fl).sign());
  // A zero product leaves the addend; with a zero addend the signs follow
  // the add rule, exactly and with no flags.
  const auto minus_one = Float<F>::one(true);
  fl.clear();
  EXPECT_EQ(fp::fma(nz, one, one, RoundingMode::RNE, fl).bits, one.bits);
  EXPECT_FALSE(fp::fma(pz, one, nz, RoundingMode::RNE, fl).sign());
  EXPECT_TRUE(fp::fma(pz, one, nz, RoundingMode::RDN, fl).sign());
  EXPECT_FALSE(fp::fma(pz, minus_one, pz, RoundingMode::RUP, fl).sign());
  EXPECT_TRUE(fp::fma(pz, minus_one, nz, RoundingMode::RUP, fl).sign());
  EXPECT_EQ(fl.bits, 0u);
  // sqrt(-0) = -0 with no flags.
  fl.clear();
  const auto r = fp::sqrt(nz, RoundingMode::RNE, fl);
  EXPECT_TRUE(r.is_zero());
  EXPECT_TRUE(r.sign());
  EXPECT_EQ(fl.bits, 0u);
}

TYPED_TEST(SpecialValues, SqrtOfNegativeIsInvalid) {
  using F = TypeParam;
  Flags fl;
  const auto r = fp::sqrt(Float<F>::one(true), RoundingMode::RNE, fl);
  EXPECT_TRUE(r.is_quiet_nan());
  EXPECT_TRUE(fl.test(Flags::NV));
}

TYPED_TEST(SpecialValues, MinMaxNanAndZeroSemantics) {
  using F = TypeParam;
  const auto one = Float<F>::one();
  const auto qnan = Float<F>::quiet_nan();
  Flags fl;
  // One NaN operand: return the other operand (754-2008 minNum/maxNum).
  EXPECT_EQ(fp::fmin(qnan, one, fl).bits, one.bits);
  EXPECT_EQ(fp::fmax(one, qnan, fl).bits, one.bits);
  EXPECT_EQ(fl.bits, 0u);
  // Both NaN: canonical NaN.
  EXPECT_EQ(fp::fmin(qnan, qnan, fl).bits, Float<F>::quiet_nan().bits);
  // Signaling NaN raises NV but still returns the other operand.
  const auto snan = Float<F>::from_parts(
      false, static_cast<unsigned>(F::exp_field_max), 1);
  fl.clear();
  EXPECT_EQ(fp::fmin(snan, one, fl).bits, one.bits);
  EXPECT_TRUE(fl.test(Flags::NV));
  // fmin(-0,+0) = -0; fmax(-0,+0) = +0.
  const auto pz = Float<F>::zero(false);
  const auto nz = Float<F>::zero(true);
  fl.clear();
  EXPECT_TRUE(fp::fmin(nz, pz, fl).sign());
  EXPECT_TRUE(fp::fmin(pz, nz, fl).sign());
  EXPECT_FALSE(fp::fmax(nz, pz, fl).sign());
  EXPECT_FALSE(fp::fmax(pz, nz, fl).sign());
}

TYPED_TEST(SpecialValues, FmaInvalidRule) {
  using F = TypeParam;
  // RISC-V: fma(0, inf, c) raises NV even when c is a quiet NaN.
  Flags fl;
  const auto r = fp::fma(Float<F>::zero(), Float<F>::inf(),
                         Float<F>::quiet_nan(), RoundingMode::RNE, fl);
  EXPECT_TRUE(r.is_quiet_nan());
  EXPECT_TRUE(fl.test(Flags::NV));
  // fma(inf, 1, -inf) is also invalid.
  fl.clear();
  const auto r2 = fp::fma(Float<F>::inf(), Float<F>::one(), Float<F>::inf(true),
                          RoundingMode::RNE, fl);
  EXPECT_TRUE(r2.is_quiet_nan());
  EXPECT_TRUE(fl.test(Flags::NV));
  // fma(inf, 1, qNaN) without the 0*inf case: quiet NaN, no NV.
  fl.clear();
  const auto r3 = fp::fma(Float<F>::inf(), Float<F>::one(),
                          Float<F>::quiet_nan(), RoundingMode::RNE, fl);
  EXPECT_TRUE(r3.is_quiet_nan());
  EXPECT_FALSE(fl.test(Flags::NV));
}

TYPED_TEST(SpecialValues, Classify) {
  using F = TypeParam;
  using fp::FpClass;
  auto cls = [](Float<F> x) { return fp::classify(x); };
  EXPECT_EQ(cls(Float<F>::inf(true)), static_cast<std::uint16_t>(FpClass::NegInf));
  EXPECT_EQ(cls(Float<F>::one(true)),
            static_cast<std::uint16_t>(FpClass::NegNormal));
  EXPECT_EQ(cls(Float<F>::min_subnormal(true)),
            static_cast<std::uint16_t>(FpClass::NegSubnormal));
  EXPECT_EQ(cls(Float<F>::zero(true)),
            static_cast<std::uint16_t>(FpClass::NegZero));
  EXPECT_EQ(cls(Float<F>::zero(false)),
            static_cast<std::uint16_t>(FpClass::PosZero));
  EXPECT_EQ(cls(Float<F>::min_subnormal(false)),
            static_cast<std::uint16_t>(FpClass::PosSubnormal));
  EXPECT_EQ(cls(Float<F>::one(false)),
            static_cast<std::uint16_t>(FpClass::PosNormal));
  EXPECT_EQ(cls(Float<F>::inf(false)),
            static_cast<std::uint16_t>(FpClass::PosInf));
  const auto snan =
      Float<F>::from_parts(false, static_cast<unsigned>(F::exp_field_max), 1);
  EXPECT_EQ(cls(snan), static_cast<std::uint16_t>(FpClass::SignalingNan));
  EXPECT_EQ(cls(Float<F>::quiet_nan()),
            static_cast<std::uint16_t>(FpClass::QuietNan));
}

TYPED_TEST(SpecialValues, SignInjection) {
  using F = TypeParam;
  const auto pos = Float<F>::one(false);
  const auto neg = Float<F>::one(true);
  EXPECT_TRUE(fp::copy_sign(pos, neg).sign());
  EXPECT_FALSE(fp::copy_sign(neg, pos).sign());
  EXPECT_TRUE(fp::copy_sign_neg(pos, pos).sign());
  EXPECT_FALSE(fp::copy_sign_neg(pos, neg).sign());
  EXPECT_TRUE(fp::copy_sign_xor(neg, pos).sign());
  EXPECT_FALSE(fp::copy_sign_xor(neg, neg).sign());
  // Sign injection must preserve NaN payloads (it is a raw bit operation).
  const auto snan =
      Float<F>::from_parts(false, static_cast<unsigned>(F::exp_field_max), 1);
  EXPECT_EQ(fp::copy_sign(snan, pos).man_field(), snan.man_field());
}

}  // namespace
}  // namespace sfrv::test
