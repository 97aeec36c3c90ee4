// Exhaustive verification of binary8 (1/5/2) arithmetic: every operand pair
// for add/sub/mul/div under every host-representable rounding mode, plus a
// full sweep of unary operations, the complete f8 <-> {f16, f32} conversion
// space, comparison/flag semantics, and the NaN-boxing contract for scalar
// sub-FLEN register writes. binary8 has only 256 bit patterns, so most of
// the operation space is checkable against the double-precision reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "sim/core.hpp"
#include "sim_util.hpp"
#include "softfloat/softfloat.hpp"
#include "test_util.hpp"

namespace sfrv::test {
namespace {

using fp::F8;

class F8ExhaustiveBinop : public ::testing::TestWithParam<RoundingMode> {};

TEST_P(F8ExhaustiveBinop, Add) {
  const RoundingMode rm = GetParam();
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const F8 fa{static_cast<std::uint8_t>(a)};
      const F8 fb{static_cast<std::uint8_t>(b)};
      Flags fl;
      const F8 got = fp::add(fa, fb, rm, fl);
      const F8 want =
          host_ref_binop(fa, fb, rm, [](double x, double y) { return x + y; });
      ASSERT_TRUE(same_value(got, want))
          << "a=0x" << std::hex << a << " b=0x" << b << " rm="
          << fp::rounding_mode_name(rm) << " got=0x" << unsigned{got.bits}
          << " want=0x" << unsigned{want.bits};
    }
  }
}

TEST_P(F8ExhaustiveBinop, Sub) {
  const RoundingMode rm = GetParam();
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const F8 fa{static_cast<std::uint8_t>(a)};
      const F8 fb{static_cast<std::uint8_t>(b)};
      Flags fl;
      const F8 got = fp::sub(fa, fb, rm, fl);
      const F8 want =
          host_ref_binop(fa, fb, rm, [](double x, double y) { return x - y; });
      ASSERT_TRUE(same_value(got, want))
          << "a=0x" << std::hex << a << " b=0x" << b << " rm="
          << fp::rounding_mode_name(rm);
    }
  }
}

TEST_P(F8ExhaustiveBinop, Mul) {
  const RoundingMode rm = GetParam();
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const F8 fa{static_cast<std::uint8_t>(a)};
      const F8 fb{static_cast<std::uint8_t>(b)};
      Flags fl;
      const F8 got = fp::mul(fa, fb, rm, fl);
      const F8 want =
          host_ref_binop(fa, fb, rm, [](double x, double y) { return x * y; });
      ASSERT_TRUE(same_value(got, want))
          << "a=0x" << std::hex << a << " b=0x" << b << " rm="
          << fp::rounding_mode_name(rm);
    }
  }
}

TEST_P(F8ExhaustiveBinop, Div) {
  const RoundingMode rm = GetParam();
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const F8 fa{static_cast<std::uint8_t>(a)};
      const F8 fb{static_cast<std::uint8_t>(b)};
      Flags fl;
      const F8 got = fp::div(fa, fb, rm, fl);
      const F8 want =
          host_ref_binop(fa, fb, rm, [](double x, double y) { return x / y; });
      ASSERT_TRUE(same_value(got, want))
          << "a=0x" << std::hex << a << " b=0x" << b << " rm="
          << fp::rounding_mode_name(rm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllHostModes, F8ExhaustiveBinop,
                         ::testing::ValuesIn(kHostRoundingModes),
                         [](const auto& info) {
                           return std::string(fp::rounding_mode_name(info.param));
                         });

TEST(F8Exhaustive, SqrtAllValues) {
  for (unsigned a = 0; a < 256; ++a) {
    const F8 fa{static_cast<std::uint8_t>(a)};
    Flags fl;
    const F8 got = fp::sqrt(fa, RoundingMode::RNE, fl);
    Flags fl2;
    const F8 want = fp::from_double<fp::Binary8>(std::sqrt(fp::to_double(fa)),
                                                 RoundingMode::RNE, fl2);
    ASSERT_TRUE(same_value(got, want)) << "a=0x" << std::hex << a;
  }
}

TEST(F8Exhaustive, FmaSampledTriples) {
  // ~2M deterministic triples against the host double fma. The reference is
  // only trusted where the narrowing is stable under a 1-ulp perturbation of
  // the double result (the three-operand fma can straddle a binary8 tie
  // point with a deviation below double precision in rare corners).
  int checked = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    const auto a = F8{static_cast<std::uint8_t>(rng()())};
    const auto b = F8{static_cast<std::uint8_t>(rng()())};
    const auto c = F8{static_cast<std::uint8_t>(rng()())};
    Flags fl;
    const F8 got = fp::fma(a, b, c, RoundingMode::RNE, fl);
    const double r =
        std::fma(fp::to_double(a), fp::to_double(b), fp::to_double(c));
    Flags fl2;
    const F8 want = fp::from_double<fp::Binary8>(r, RoundingMode::RNE, fl2);
    const F8 wlo = fp::from_double<fp::Binary8>(
        std::nextafter(r, -std::numeric_limits<double>::infinity()),
        RoundingMode::RNE, fl2);
    const F8 whi = fp::from_double<fp::Binary8>(
        std::nextafter(r, std::numeric_limits<double>::infinity()),
        RoundingMode::RNE, fl2);
    if (!same_value(want, wlo) || !same_value(want, whi)) continue;
    ++checked;
    ASSERT_TRUE(same_value(got, want))
        << "a=0x" << std::hex << unsigned{a.bits} << " b=0x" << unsigned{b.bits}
        << " c=0x" << unsigned{c.bits};
  }
  EXPECT_GT(checked, 1'500'000);
}

TEST(F8Exhaustive, WidenNarrowRoundTrip) {
  // Every binary8 value must survive widening to any larger format and back.
  for (unsigned a = 0; a < 256; ++a) {
    const F8 fa{static_cast<std::uint8_t>(a)};
    Flags fl;
    const auto f16 = fp::convert<fp::Binary16>(fa, RoundingMode::RNE, fl);
    const auto back16 = fp::convert<fp::Binary8>(f16, RoundingMode::RNE, fl);
    ASSERT_TRUE(same_value(fa, back16)) << "via binary16, a=0x" << std::hex << a;
    const auto f32 = fp::convert<fp::Binary32>(fa, RoundingMode::RNE, fl);
    const auto back32 = fp::convert<fp::Binary8>(f32, RoundingMode::RNE, fl);
    ASSERT_TRUE(same_value(fa, back32)) << "via binary32, a=0x" << std::hex << a;
  }
}

TEST(F8Exhaustive, CompareMatchesHost) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const F8 fa{static_cast<std::uint8_t>(a)};
      const F8 fb{static_cast<std::uint8_t>(b)};
      const double da = fp::to_double(fa);
      const double db = fp::to_double(fb);
      Flags fl;
      ASSERT_EQ(fp::feq(fa, fb, fl), da == db) << std::hex << a << " " << b;
      ASSERT_EQ(fp::flt(fa, fb, fl), da < db) << std::hex << a << " " << b;
      ASSERT_EQ(fp::fle(fa, fb, fl), da <= db) << std::hex << a << " " << b;
    }
  }
}

TEST(F8Exhaustive, CompareFlagSemantics) {
  // IEEE 754 / RISC-V F: flt/fle are signaling (NV on any NaN operand),
  // feq is quiet (NV only for a signaling NaN). Exhaustive over all pairs.
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const F8 fa{static_cast<std::uint8_t>(a)};
      const F8 fb{static_cast<std::uint8_t>(b)};
      const bool any_nan = fa.is_nan() || fb.is_nan();
      const bool any_snan = fa.is_signaling_nan() || fb.is_signaling_nan();
      Flags fe, fl, fle;
      (void)fp::feq(fa, fb, fe);
      (void)fp::flt(fa, fb, fl);
      (void)fp::fle(fa, fb, fle);
      ASSERT_EQ(fe.bits, any_snan ? Flags::NV : 0) << std::hex << a << " " << b;
      ASSERT_EQ(fl.bits, any_nan ? Flags::NV : 0) << std::hex << a << " " << b;
      ASSERT_EQ(fle.bits, any_nan ? Flags::NV : 0) << std::hex << a << " " << b;
    }
  }
}

// ---- conversion space f8 <-> {f16, f32} -------------------------------------

TEST(F8Exhaustive, WidenToF16MatchesOracle) {
  // Widening is exact: every value must match the host-double oracle with no
  // flags (NaNs canonicalize; signaling NaNs raise NV).
  for (unsigned a = 0; a < 256; ++a) {
    const F8 fa{static_cast<std::uint8_t>(a)};
    Flags fl;
    const auto got = fp::convert<fp::Binary16>(fa, RoundingMode::RNE, fl);
    Flags fl2;
    const auto want =
        fp::from_double<fp::Binary16>(fp::to_double(fa), RoundingMode::RNE, fl2);
    ASSERT_TRUE(same_value(got, want)) << "a=0x" << std::hex << a;
    if (!fa.is_nan()) {
      ASSERT_EQ(fl.bits, 0u) << "widening raised flags, a=0x" << std::hex << a;
    }
  }
}

TEST(F8Exhaustive, WidenToF32MatchesOracle) {
  for (unsigned a = 0; a < 256; ++a) {
    const F8 fa{static_cast<std::uint8_t>(a)};
    Flags fl;
    const auto got = fp::convert<fp::Binary32>(fa, RoundingMode::RNE, fl);
    Flags fl2;
    const auto want =
        fp::from_double<fp::Binary32>(fp::to_double(fa), RoundingMode::RNE, fl2);
    ASSERT_TRUE(same_value(got, want)) << "a=0x" << std::hex << a;
    if (!fa.is_nan()) {
      ASSERT_EQ(fl.bits, 0u) << "widening raised flags, a=0x" << std::hex << a;
    }
  }
}

class F8NarrowingConvert : public ::testing::TestWithParam<RoundingMode> {};

TEST_P(F8NarrowingConvert, FromF16Exhaustive) {
  // All 65536 binary16 inputs. binary16 is exactly representable in double,
  // so one correctly rounded double->binary8 narrowing is the oracle.
  const RoundingMode rm = GetParam();
  for (unsigned a = 0; a < 0x10000; ++a) {
    const fp::F16 fa = fp::F16::from_bits(a);
    Flags fl;
    const F8 got = fp::convert<fp::Binary8>(fa, rm, fl);
    Flags fl2;
    const F8 want = fp::from_double<fp::Binary8>(fp::to_double(fa), rm, fl2);
    ASSERT_TRUE(same_value(got, want))
        << "a=0x" << std::hex << a << " rm=" << fp::rounding_mode_name(rm)
        << " got=0x" << unsigned{got.bits} << " want=0x" << unsigned{want.bits};
  }
}

TEST_P(F8NarrowingConvert, FromF32Sampled) {
  // The f32 input space is not exhaustively checkable; 500k deterministic
  // random bit patterns per rounding mode (covering NaNs, infinities,
  // subnormals and the whole exponent range) against the same oracle.
  const RoundingMode rm = GetParam();
  for (int i = 0; i < 500'000; ++i) {
    const fp::F32 fa = fp::F32::from_bits(static_cast<std::uint32_t>(rng()()));
    Flags fl;
    const F8 got = fp::convert<fp::Binary8>(fa, rm, fl);
    Flags fl2;
    const F8 want = fp::from_double<fp::Binary8>(fp::to_double(fa), rm, fl2);
    ASSERT_TRUE(same_value(got, want))
        << "a=0x" << std::hex << fa.bits << " rm="
        << fp::rounding_mode_name(rm);
  }
}

INSTANTIATE_TEST_SUITE_P(AllHostModes, F8NarrowingConvert,
                         ::testing::ValuesIn(kHostRoundingModes),
                         [](const auto& info) {
                           return std::string(fp::rounding_mode_name(info.param));
                         });

// ---- NaN-boxing of scalar sub-FLEN writes -----------------------------------

TEST(F8NaNBoxing, ExecContextWritesBoxUpperBits) {
  // Scalar sub-FLEN writes must fill f[reg] above the value with ones up to
  // FLEN (the RISC-V NaN-boxing convention); reads take the low bits.
  for (const int flen : {32, 64}) {
    sim::ExecContext ctx;
    ctx.flen_mask = sim::width_mask(flen);
    ctx.write_fp(3, 8, 0x5a);
    EXPECT_EQ(ctx.f[3], (~std::uint64_t{0xff} & ctx.flen_mask) | 0x5a)
        << "flen=" << flen;
    EXPECT_EQ(ctx.read_fp(3, 8), 0x5au);
    ctx.write_fp(3, 16, 0x1234);
    EXPECT_EQ(ctx.f[3], (~std::uint64_t{0xffff} & ctx.flen_mask) | 0x1234)
        << "flen=" << flen;
    // A full-FLEN write leaves no box bits.
    ctx.write_fp(3, flen, 0x0123456789abcdefull);
    EXPECT_EQ(ctx.f[3], 0x0123456789abcdefull & ctx.flen_mask);
  }
}

TEST(F8NaNBoxing, ScalarOpsBoxThroughTheCore) {
  // End-to-end: fmv.b.x, flb, and fcvt.b.s all produce NaN-boxed registers,
  // under every engine (the differential contract includes the box bits).
  for (const auto engine : {sim::Engine::Reference, sim::Engine::Jit}) {
    asmb::Assembler a;
    const std::uint32_t buf = a.data_zero(16);
    a.la(asmb::reg::t0, buf);
    a.li(asmb::reg::t1, 0x3c);  // 1.0 in binary8
    a.emit({.op = isa::Op::FMV_B_X, .rd = 1, .rs1 = asmb::reg::t1});
    a.emit({.op = isa::Op::SB, .rs1 = asmb::reg::t0, .rs2 = asmb::reg::t1});
    a.emit({.op = isa::Op::FLB, .rd = 2, .rs1 = asmb::reg::t0});
    // 2.0f -> binary8 (0x40): li the f32 pattern, move, convert.
    a.li(asmb::reg::t2, 0x40000000);
    a.emit({.op = isa::Op::FMV_S_X, .rd = 3, .rs1 = asmb::reg::t2});
    a.emit({.op = isa::Op::FCVT_B_S, .rd = 4, .rs1 = 3});
    a.ebreak();

    sim::Core core(isa::IsaConfig::full());
    core.set_engine(engine);
    core.load_program(a.finish());
    ASSERT_EQ(core.run(), sim::Core::RunResult::Halted);

    const std::uint64_t boxed_one = 0xffffff3cull;
    const std::uint64_t boxed_two = 0xffffff40ull;
    EXPECT_EQ(core.f_bits(1), boxed_one) << sim::engine_name(engine);
    EXPECT_EQ(core.f_bits(2), boxed_one) << sim::engine_name(engine);
    EXPECT_EQ(core.f_bits(4), boxed_two) << sim::engine_name(engine);
    // The f32 intermediate occupies full FLEN=32: no box bits.
    EXPECT_EQ(core.f_bits(3), 0x40000000ull) << sim::engine_name(engine);
  }
}

}  // namespace
}  // namespace sfrv::test
