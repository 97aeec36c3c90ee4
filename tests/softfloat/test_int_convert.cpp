// FP <-> int32/uint32 conversions with RISC-V clamping and flag semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "softfloat/softfloat.hpp"
#include "test_util.hpp"

namespace sfrv::test {
namespace {

template <class F>
struct IntConvert : public ::testing::Test {};

using AllFormats =
    ::testing::Types<Binary8, Binary16, Binary16Alt, Binary32, Binary64>;
TYPED_TEST_SUITE(IntConvert, AllFormats);

/// Host-side reference for FP -> int32 with RISC-V clamping.
std::int32_t ref_to_int32(double v, RoundingMode rm, bool& invalid) {
  invalid = false;
  if (std::isnan(v)) {
    invalid = true;
    return std::numeric_limits<std::int32_t>::max();
  }
  double r;
  switch (rm) {
    case RoundingMode::RNE: r = std::nearbyint(v); break;  // host default RNE
    case RoundingMode::RTZ: r = std::trunc(v); break;
    case RoundingMode::RDN: r = std::floor(v); break;
    case RoundingMode::RUP: r = std::ceil(v); break;
    case RoundingMode::RMM: r = std::round(v); break;
  }
  if (r > 2147483647.0) {
    invalid = true;
    return std::numeric_limits<std::int32_t>::max();
  }
  if (r < -2147483648.0) {
    invalid = true;
    return std::numeric_limits<std::int32_t>::min();
  }
  return static_cast<std::int32_t>(r);
}

TYPED_TEST(IntConvert, ToInt32MatchesReference) {
  using F = TypeParam;
  for (RoundingMode rm : kAllRoundingModes) {
    for (int i = 0; i < 50'000; ++i) {
      const auto a = random_bits<F>();
      Flags fl;
      const auto got = fp::to_int32(a, rm, fl);
      bool invalid = false;
      const auto want = ref_to_int32(fp::to_double(a), rm, invalid);
      ASSERT_EQ(got, want)
          << "bits=0x" << std::hex << static_cast<std::uint64_t>(a.bits)
          << " rm=" << fp::rounding_mode_name(rm);
      ASSERT_EQ(fl.test(Flags::NV), invalid)
          << "bits=0x" << std::hex << static_cast<std::uint64_t>(a.bits);
    }
  }
}

TYPED_TEST(IntConvert, ToUint32Negative) {
  using F = TypeParam;
  Flags fl;
  // -1.0 converts to 0 with NV.
  EXPECT_EQ(fp::to_uint32(Float<F>::one(true), RoundingMode::RTZ, fl), 0u);
  EXPECT_TRUE(fl.test(Flags::NV));
  // -0.25 truncates to 0: inexact but valid.
  fl.clear();
  const auto small_neg = fp::from_double<F>(-0.25);
  EXPECT_EQ(fp::to_uint32(small_neg, RoundingMode::RTZ, fl), 0u);
  EXPECT_FALSE(fl.test(Flags::NV));
  EXPECT_TRUE(fl.test(Flags::NX));
  // -0.0 converts to 0 exactly.
  fl.clear();
  EXPECT_EQ(fp::to_uint32(Float<F>::zero(true), RoundingMode::RNE, fl), 0u);
  EXPECT_EQ(fl.bits, 0u);
}

TYPED_TEST(IntConvert, NanAndInfClamp) {
  using F = TypeParam;
  Flags fl;
  EXPECT_EQ(fp::to_int32(Float<F>::quiet_nan(), RoundingMode::RNE, fl),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_TRUE(fl.test(Flags::NV));
  fl.clear();
  EXPECT_EQ(fp::to_int32(Float<F>::inf(false), RoundingMode::RNE, fl),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(fp::to_int32(Float<F>::inf(true), RoundingMode::RNE, fl),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(fp::to_uint32(Float<F>::inf(true), RoundingMode::RNE, fl), 0u);
  EXPECT_EQ(fp::to_uint32(Float<F>::quiet_nan(), RoundingMode::RNE, fl),
            std::numeric_limits<std::uint32_t>::max());
}

TYPED_TEST(IntConvert, FromInt32RoundTripSmall) {
  using F = TypeParam;
  // Integers up to the significand width convert exactly and round-trip.
  const int maxexact = (1 << std::min(F::man_bits + 1, 10)) - 1;
  for (int v = -maxexact; v <= maxexact; ++v) {
    Flags fl;
    const auto f = fp::from_int32<F>(v, RoundingMode::RNE, fl);
    EXPECT_EQ(fl.bits, 0u) << v;
    EXPECT_EQ(fp::to_double(f), static_cast<double>(v)) << v;
    const auto back = fp::to_int32(f, RoundingMode::RNE, fl);
    EXPECT_EQ(back, v);
  }
}

TYPED_TEST(IntConvert, FromInt32MatchesHost) {
  using F = TypeParam;
  for (RoundingMode rm : kHostRoundingModes) {
    for (int i = 0; i < 50'000; ++i) {
      const auto v = static_cast<std::int32_t>(rng()());
      Flags fl;
      const auto got = fp::from_int32<F>(v, rm, fl);
      Flags fl2;
      const auto want = fp::from_double<F>(static_cast<double>(v), rm, fl2);
      ASSERT_TRUE(same_value(got, want))
          << v << " rm=" << fp::rounding_mode_name(rm);
    }
  }
}

TYPED_TEST(IntConvert, FromUint32MatchesHost) {
  using F = TypeParam;
  for (RoundingMode rm : kHostRoundingModes) {
    for (int i = 0; i < 50'000; ++i) {
      const auto v = static_cast<std::uint32_t>(rng()());
      Flags fl;
      const auto got = fp::from_uint32<F>(v, rm, fl);
      Flags fl2;
      const auto want = fp::from_double<F>(static_cast<double>(v), rm, fl2);
      ASSERT_TRUE(same_value(got, want))
          << v << " rm=" << fp::rounding_mode_name(rm);
    }
  }
}

TEST(IntConvertEdge, Uint32MaxIntoBinary32) {
  // 0xffffffff rounds to 2^32 in binary32 (inexact).
  Flags fl;
  const auto f = fp::from_uint32<Binary32>(0xffffffffu, RoundingMode::RNE, fl);
  EXPECT_TRUE(fl.test(Flags::NX));
  EXPECT_EQ(fp::to_double(f), 4294967296.0);
}

TEST(IntConvertEdge, Int32MinExactInBinary32) {
  Flags fl;
  const auto f = fp::from_int32<Binary32>(std::numeric_limits<std::int32_t>::min(),
                                          RoundingMode::RNE, fl);
  EXPECT_EQ(fl.bits, 0u);
  EXPECT_EQ(fp::to_double(f), -2147483648.0);
  const auto back = fp::to_int32(f, RoundingMode::RNE, fl);
  EXPECT_EQ(back, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(fl.bits, 0u);
}

TEST(IntConvertEdge, Binary8Saturation) {
  // binary8 max finite is 57344; large ints overflow to inf on the FP side
  // but FP->int of max finite stays in range.
  Flags fl;
  const auto maxf = fp::F8::max_finite(false);
  EXPECT_EQ(fp::to_int32(maxf, RoundingMode::RNE, fl), 57344);
  EXPECT_EQ(fl.bits, 0u);
  fl.clear();
  const auto f = fp::from_int32<Binary8>(100000, RoundingMode::RNE, fl);
  EXPECT_TRUE(f.is_inf());
  EXPECT_TRUE(fl.test(Flags::OF));
}

// ---- exhaustive saturation/flag audit (f8 / f16 / f16alt) -------------------
//
// The RISC-V F-extension flag contract for FCVT.W/WU, audited value-by-value:
//  * NaN / infinity / out-of-range-after-rounding results raise NV alone and
//    return the mandated clamp value -- the NX of any discarded fraction is
//    suppressed (the operation is invalid, not inexact).
//  * In-range results raise NX exactly when rounding discarded bits,
//    including negative inputs of FCVT.WU that round to 0 (those are valid).
// The oracle computes the exact rounded integer from the (exactly
// representable) double value; every bit pattern of the 8/16-bit formats is
// checked under every rounding mode, full fflags byte compared.

/// Exact integer rounding of a finite double in mode `rm`.
double ref_round_integer(double v, RoundingMode rm) {
  switch (rm) {
    case RoundingMode::RNE: return std::nearbyint(v);  // host default mode
    case RoundingMode::RTZ: return std::trunc(v);
    case RoundingMode::RDN: return std::floor(v);
    case RoundingMode::RUP: return std::ceil(v);
    case RoundingMode::RMM: return std::round(v);  // ties away from zero
  }
  return v;
}

struct IntCvtRef {
  std::int64_t val = 0;  ///< result, reinterpreted by the caller
  std::uint8_t flags = 0;
};

IntCvtRef ref_to_int32_flags(double v, RoundingMode rm) {
  if (std::isnan(v)) return {std::numeric_limits<std::int32_t>::max(), Flags::NV};
  if (std::isinf(v)) {
    return {v < 0 ? std::numeric_limits<std::int32_t>::min()
                  : std::numeric_limits<std::int32_t>::max(),
            Flags::NV};
  }
  const double r = ref_round_integer(v, rm);
  if (r > 2147483647.0) {
    return {std::numeric_limits<std::int32_t>::max(), Flags::NV};
  }
  if (r < -2147483648.0) {
    return {std::numeric_limits<std::int32_t>::min(), Flags::NV};
  }
  return {static_cast<std::int64_t>(r),
          static_cast<std::uint8_t>(r != v ? Flags::NX : 0)};
}

IntCvtRef ref_to_uint32_flags(double v, RoundingMode rm) {
  if (std::isnan(v)) {
    return {static_cast<std::int64_t>(0xffffffffu), Flags::NV};
  }
  if (std::isinf(v)) {
    return {v < 0 ? 0 : static_cast<std::int64_t>(0xffffffffu), Flags::NV};
  }
  const double r = ref_round_integer(v, rm);
  if (r > 4294967295.0) {
    return {static_cast<std::int64_t>(0xffffffffu), Flags::NV};
  }
  if (r < 0.0) return {0, Flags::NV};  // rounded to a negative integer
  return {static_cast<std::int64_t>(r),
          static_cast<std::uint8_t>(r != v ? Flags::NX : 0)};
}

template <class F>
void audit_int_convert_format() {
  const unsigned patterns = 1u << F::width;
  for (const RoundingMode rm : kAllRoundingModes) {
    for (unsigned a = 0; a < patterns; ++a) {
      const auto fa = Float<F>::from_bits(a);
      const double v = fp::to_double(fa);

      Flags fl;
      const std::int32_t got_i = fp::to_int32(fa, rm, fl);
      const IntCvtRef want_i = ref_to_int32_flags(v, rm);
      ASSERT_EQ(got_i, static_cast<std::int32_t>(want_i.val))
          << F::name << " to_int32 a=0x" << std::hex << a
          << " rm=" << fp::rounding_mode_name(rm);
      ASSERT_EQ(fl.bits, want_i.flags)
          << F::name << " to_int32 flags a=0x" << std::hex << a
          << " rm=" << fp::rounding_mode_name(rm) << " v=" << v;

      fl.clear();
      const std::uint32_t got_u = fp::to_uint32(fa, rm, fl);
      const IntCvtRef want_u = ref_to_uint32_flags(v, rm);
      ASSERT_EQ(got_u, static_cast<std::uint32_t>(want_u.val))
          << F::name << " to_uint32 a=0x" << std::hex << a
          << " rm=" << fp::rounding_mode_name(rm);
      ASSERT_EQ(fl.bits, want_u.flags)
          << F::name << " to_uint32 flags a=0x" << std::hex << a
          << " rm=" << fp::rounding_mode_name(rm) << " v=" << v;
    }
  }
}

TEST(IntConvertAudit, Binary8AllValuesAllModes) {
  audit_int_convert_format<Binary8>();
}

TEST(IntConvertAudit, Binary16AllValuesAllModes) {
  audit_int_convert_format<Binary16>();
}

TEST(IntConvertAudit, Binary16AltAllValuesAllModes) {
  audit_int_convert_format<Binary16Alt>();
}

TEST(IntConvertAudit, FastBackendTablesAgree) {
  // The fast backend's f8 entries must reproduce the audited semantics
  // exactly (the backend suite checks fast==grs; this pins fast==oracle
  // directly).
  const fp::RtOps& f = fp::rt_ops(FpFormat::F8, fp::MathBackend::Fast);
  for (const RoundingMode rm : kAllRoundingModes) {
    for (unsigned a = 0; a < 256; ++a) {
      const double v = fp::to_double(fp::F8::from_bits(a));
      Flags fl;
      const std::int32_t got = f.to_int32(a, rm, fl);
      const IntCvtRef want = ref_to_int32_flags(v, rm);
      ASSERT_EQ(got, static_cast<std::int32_t>(want.val)) << std::hex << a;
      ASSERT_EQ(fl.bits, want.flags) << std::hex << a;
    }
  }
}

}  // namespace
}  // namespace sfrv::test
