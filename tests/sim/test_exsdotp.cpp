// ExSdotp (widening sum-of-dot-products) execution: the vfexsdotp family
// accumulates packed narrow products into a FULL vector register of
// one-step-wider lanes — wide lane wl chains two fused steps over narrow
// lanes 2*wl and 2*wl+1, each operand widened exactly first. These tests pin
// that contract across all four (narrow, wide) pairs the unit serves:
//
//  * lane-order pinning: the result equals the documented
//    fma(w(a[2wl+1]), w(b[2wl+1]), fma(w(a[2wl]), w(b[2wl]), acc[wl]))
//    chain, and directed inputs prove the order is observable (the reversed
//    chain produces different bits);
//  * exact-wide-intermediate property: dot products whose terms overflow or
//    round in the narrow format are exact in the wide accumulator, checked
//    against an exactly-representable double reference;
//  * conformance: bits and accumulated fflags are identical across every
//    engine and both math backends.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim_util.hpp"
#include "softfloat/softfloat.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using fp::Flags;
using fp::FpFormat;
using fp::RoundingMode;
using isa::Op;
namespace reg = asmb::reg;

struct ExsCase {
  FpFormat narrow, wide;
  int w;  // narrow lane width; wide lanes are 2*w
  Op op, op_r;
};

const ExsCase kCases[] = {
    {FpFormat::F8, FpFormat::F16, 8, Op::VFEXSDOTP_H_B, Op::VFEXSDOTP_R_H_B},
    {FpFormat::F16, FpFormat::F32, 16, Op::VFEXSDOTP_S_H,
     Op::VFEXSDOTP_R_S_H},
    {FpFormat::F16Alt, FpFormat::F32, 16, Op::VFEXSDOTP_S_AH,
     Op::VFEXSDOTP_R_S_AH},
    {FpFormat::P8, FpFormat::P16, 8, Op::VFEXSDOTP_P16_P8,
     Op::VFEXSDOTP_R_P16_P8},
};

std::uint64_t lane_get(std::uint64_t v, int l, int w) {
  return (v >> (l * w)) & ((w == 64) ? ~0ull : ((1ull << w) - 1));
}

/// Encode a double into any format (IEEE or posit) through the 7x7 convert
/// table; the value must be exactly representable for directed tests.
std::uint64_t enc(FpFormat f, double v) {
  Flags fl;
  return fp::rt_convert(f, FpFormat::F64, fp::from_host(v).bits,
                        RoundingMode::RNE, fl);
}

/// The pinned reference chain, written against the scalar rt_* entry points
/// (mirroring how test_fp_vector.cpp pins the vfdotpex contract).
std::uint32_t ref_exsdotp(const ExsCase& ec, std::uint32_t va,
                          std::uint32_t vb, std::uint32_t acc, bool rep,
                          RoundingMode rm, Flags& fl) {
  const int lanes = 32 / ec.w;
  const int ww = 2 * ec.w;
  std::uint64_t wb0 = 0;
  if (rep) {
    wb0 = fp::rt_convert(ec.wide, ec.narrow, lane_get(vb, 0, ec.w),
                         RoundingMode::RNE, fl);
  }
  std::uint64_t out = 0;
  for (int wl = 0; wl < lanes / 2; ++wl) {
    std::uint64_t accl = lane_get(acc, wl, ww);
    for (int k = 0; k < 2; ++k) {
      const int l = 2 * wl + k;
      const std::uint64_t wa = fp::rt_convert(
          ec.wide, ec.narrow, lane_get(va, l, ec.w), RoundingMode::RNE, fl);
      const std::uint64_t wb =
          rep ? wb0
              : fp::rt_convert(ec.wide, ec.narrow, lane_get(vb, l, ec.w),
                               RoundingMode::RNE, fl);
      accl = fp::rt_fma(ec.wide, wa, wb, accl, rm, fl);
    }
    out |= accl << (wl * ww);
  }
  return static_cast<std::uint32_t>(out);
}

/// One vfexsdotp through the simulator: load a, b, acc, execute, halt.
sim::Core run_one(Op op, std::uint32_t va, std::uint32_t vb,
                  std::uint32_t acc, RoundingMode rm = RoundingMode::RNE) {
  return run_program([&](Assembler& a) {
    const auto da = a.data_u32(va);
    const auto db = a.data_u32(vb);
    const auto dacc = a.data_u32(acc);
    a.la(reg::s0, da);
    a.la(reg::s1, db);
    a.la(reg::s2, dacc);
    a.flw(reg::ft0, 0, reg::s0);
    a.flw(reg::ft1, 0, reg::s1);
    a.flw(reg::fa0, 0, reg::s2);
    a.set_frm(rm);
    a.fp_rrr(op, reg::fa0, reg::ft0, reg::ft1);
    a.ebreak();
  });
}

class ExSdotp : public ::testing::TestWithParam<int> {};

TEST_P(ExSdotp, MatchesPinnedLaneOrderReferenceWithFlags) {
  const ExsCase& ec = kCases[GetParam()];
  const bool posit = ec.narrow == FpFormat::P8;
  std::mt19937_64 gen(31 + GetParam());
  const RoundingMode rms[] = {RoundingMode::RNE, RoundingMode::RTZ,
                              RoundingMode::RUP};
  for (int t = 0; t < 400; ++t) {
    const auto va = static_cast<std::uint32_t>(gen());
    const auto vb = static_cast<std::uint32_t>(gen());
    const auto acc = static_cast<std::uint32_t>(gen());
    const RoundingMode rm = rms[t % 3];
    for (const bool rep : {false, true}) {
      auto core = run_one(rep ? ec.op_r : ec.op, va, vb, acc, rm);
      Flags fl;
      const std::uint32_t want = ref_exsdotp(ec, va, vb, acc, rep, rm, fl);
      ASSERT_EQ(core.f_bits(reg::fa0), want)
          << fp::format_name(ec.narrow) << " rep=" << rep << " va=0x"
          << std::hex << va << " vb=0x" << vb << " acc=0x" << acc;
      ASSERT_EQ(core.fflags(), fl.bits)
          << fp::format_name(ec.narrow) << " rep=" << rep;
      if (posit) {
        EXPECT_EQ(core.fflags(), 0u) << "posit exsdotp must not raise flags";
      }
    }
  }
}

TEST_P(ExSdotp, AccumulationOrderIsObservable) {
  // Directed non-associativity probe inside wide lane 0: with
  //   w(a0)*w(b0) = -1, w(a1)*w(b1) = tiny, acc0 = 1
  // the pinned order computes (1 - 1) + tiny = tiny, while the reversed
  // order computes (1 + tiny) - 1 = 0 because tiny is absorbed into 1 at
  // the wide precision. The executed result must be the pinned chain's.
  const ExsCase& ec = kCases[GetParam()];
  const double tiny_a = ec.narrow == FpFormat::P8 ? 0x1p-24
                        : ec.w == 8               ? 0x1p-10
                                                  : 0x1p-12;
  const std::uint64_t a0 = enc(ec.narrow, 1.0), b0 = enc(ec.narrow, -1.0);
  const std::uint64_t a1 = enc(ec.narrow, tiny_a), b1 = enc(ec.narrow, tiny_a);
  const auto va = static_cast<std::uint32_t>(a0 | (a1 << ec.w));
  const auto vb = static_cast<std::uint32_t>(b0 | (b1 << ec.w));
  const auto acc = static_cast<std::uint32_t>(enc(ec.wide, 1.0));

  auto core = run_one(ec.op, va, vb, acc);
  const std::uint64_t got = lane_get(core.f_bits(reg::fa0), 0, 2 * ec.w);
  // Pinned chain: k = 0 first, then k = 1.
  Flags fl;
  const auto w = [&](std::uint64_t n) {
    return fp::rt_convert(ec.wide, ec.narrow, n, RoundingMode::RNE, fl);
  };
  std::uint64_t pinned = fp::rt_fma(ec.wide, w(a0), w(b0), acc,
                                    RoundingMode::RNE, fl);
  pinned = fp::rt_fma(ec.wide, w(a1), w(b1), pinned, RoundingMode::RNE, fl);
  std::uint64_t reversed = fp::rt_fma(ec.wide, w(a1), w(b1), acc,
                                      RoundingMode::RNE, fl);
  reversed = fp::rt_fma(ec.wide, w(a0), w(b0), reversed, RoundingMode::RNE,
                        fl);
  ASSERT_NE(pinned, reversed)
      << fp::format_name(ec.narrow)
      << ": probe failed to make the orders distinguishable";
  ASSERT_EQ(got, pinned) << fp::format_name(ec.narrow);
}

TEST_P(ExSdotp, WideIntermediateSurvivesNarrowSaturation) {
  // A product that the narrow format cannot hold (IEEE: overflows to inf
  // with OF; posit: saturates to maxpos) is exact in the wide accumulator.
  const ExsCase& ec = kCases[GetParam()];
  struct Probe {
    double a0, b0;
  };
  Probe p{};
  switch (ec.narrow) {
    case FpFormat::F8:  // 1.25*2^7 * 1.5*2^8 = 1.875*2^15: above the f8 max
      p = {160.0, 384.0};  // (57344), below the f16 max (65504)
      break;
    case FpFormat::F16:  // 2^10 * 2^10 = 2^20: far above 65504
      p = {0x1p10, 0x1p10};
      break;
    case FpFormat::F16Alt:  // 1.4140625^2 * 2^127 ~ 1.9996*2^127: above the
      p = {1.4140625 * 0x1p60, 1.4140625 * 0x1p67};  // bf16 max, inside f32
      break;
    case FpFormat::P8:  // 2^16 * 2^16 = 2^32: above maxpos8 = 2^24
      p = {0x1p16, 0x1p16};
      break;
    default:
      FAIL();
  }
  const double exact = p.a0 * p.b0;
  const auto va = static_cast<std::uint32_t>(enc(ec.narrow, p.a0));
  const auto vb = static_cast<std::uint32_t>(enc(ec.narrow, p.b0));
  // Lane 1 (and lanes 2-3 for 8-bit formats) are zero, so only the a0*b0
  // term lands in wide lane 0; acc starts at zero.
  auto core = run_one(ec.op, va, vb, 0);
  const std::uint64_t got = lane_get(core.f_bits(reg::fa0), 0, 2 * ec.w);
  ASSERT_EQ(got, enc(ec.wide, exact))
      << fp::format_name(ec.narrow) << ": wide accumulation must be exact";

  // The same product in the NARROW format is a different (saturated) value:
  // this is the property that makes the widening unit worth having.
  Flags fl;
  const std::uint64_t narrow_fma =
      fp::rt_fma(ec.narrow, static_cast<std::uint64_t>(va),
                 static_cast<std::uint64_t>(vb), 0, RoundingMode::RNE, fl);
  Flags fl2;
  const std::uint64_t narrowed_exact =
      fp::rt_convert(ec.narrow, FpFormat::F64, fp::from_host(exact).bits,
                     RoundingMode::RNE, fl2);
  if (ec.narrow == FpFormat::P8) {
    EXPECT_EQ(narrow_fma, narrowed_exact);  // both saturate to maxpos
    EXPECT_EQ(narrow_fma, 0x7fu) << "posit8 must saturate to maxpos";
    EXPECT_EQ(fl.bits, 0u);
  } else {
    EXPECT_TRUE(fl.test(Flags::OF))
        << fp::format_name(ec.narrow) << ": narrow fma must overflow";
  }
  EXPECT_NE(fp::rt_convert(ec.wide, ec.narrow, narrow_fma, RoundingMode::RNE,
                           fl2),
            got)
      << "narrow accumulation must visibly lose the product";
}

TEST_P(ExSdotp, PrecisionFuzzAgainstExactDouble) {
  // Exact-wide-intermediate property fuzz: operand significands are sized so
  // every widened product (2*(fb+1) significant bits) and every wide-lane
  // sum (product bits + exponent spread) fits the WIDE significand exactly,
  // while products regularly exceed the narrow one. The executed result must
  // then equal the exactly-computed double dot product — and the
  // narrow-format chain must diverge on a healthy fraction of trials (that
  // divergence is the precision the widening preserves).
  const ExsCase& ec = kCases[GetParam()];
  // Per-case operand shape: fb fraction bits, exponents in [0, emod).
  // f8->f16: 2*(2+1) + 5 = 11 <= 11; f16->f32: 2*(9+1) + 3 = 23 <= 24;
  // bf16->f32: 2*(7+1) + 5 = 21 <= 24; p8->p16: sums are multiples of
  // 2^-4 below 2^6 (span <= 11 bits, scale in [-4, 5], within posit16's
  // tapered significand at those scales).
  int fb = 2, emod = 3;
  if (ec.narrow == FpFormat::F16) fb = 9, emod = 2;
  if (ec.narrow == FpFormat::F16Alt) fb = 7;
  std::mt19937_64 gen(53 + GetParam());
  const int lanes = 32 / ec.w;
  int narrow_diverged = 0;
  for (int t = 0; t < 300; ++t) {
    std::vector<double> av(lanes), bv(lanes);
    std::uint32_t va = 0, vb = 0;
    const auto draw = [&] {
      const double sig =
          1.0 + static_cast<double>(gen() % (1u << fb)) / (1u << fb);
      return sig * std::ldexp(1.0, static_cast<int>(gen() % emod)) *
             (gen() % 2 ? -1 : 1);
    };
    for (int l = 0; l < lanes; ++l) {
      av[l] = draw();
      bv[l] = draw();
      va |= static_cast<std::uint32_t>(enc(ec.narrow, av[l])) << (l * ec.w);
      vb |= static_cast<std::uint32_t>(enc(ec.narrow, bv[l])) << (l * ec.w);
    }
    auto core = run_one(ec.op, va, vb, 0);
    bool all_narrow_match = true;
    for (int wl = 0; wl < lanes / 2; ++wl) {
      const double exact =
          av[2 * wl] * bv[2 * wl] + av[2 * wl + 1] * bv[2 * wl + 1];
      ASSERT_EQ(lane_get(core.f_bits(reg::fa0), wl, 2 * ec.w),
                enc(ec.wide, exact))
          << fp::format_name(ec.narrow) << " trial " << t << " lane " << wl;
      // The same dot in the narrow format (widened afterwards for
      // comparison): inexact whenever a product or sum needs more
      // significand than the narrow format has.
      Flags fl;
      std::uint64_t nacc = 0;
      for (int k = 0; k < 2; ++k) {
        const int l = 2 * wl + k;
        nacc = fp::rt_fma(ec.narrow, lane_get(va, l, ec.w),
                          lane_get(vb, l, ec.w), nacc, RoundingMode::RNE, fl);
      }
      if (fp::rt_convert(ec.wide, ec.narrow, nacc, RoundingMode::RNE, fl) !=
          lane_get(core.f_bits(reg::fa0), wl, 2 * ec.w)) {
        all_narrow_match = false;
      }
    }
    if (!all_narrow_match) ++narrow_diverged;
  }
  EXPECT_GT(narrow_diverged, 30)
      << fp::format_name(ec.narrow)
      << ": the fuzz never exercised precision the narrow format lacks";
}

INSTANTIATE_TEST_SUITE_P(AllWideningPairs, ExSdotp, ::testing::Range(0, 4),
                         [](const auto& info) {
                           return std::string(
                               fp::format_name(kCases[info.param].narrow));
                         });

// ---- engine x backend conformance ------------------------------------------

struct Digest {
  std::uint64_t fa0, fa1, fa2, fa3;
  std::uint8_t fflags;

  bool operator==(const Digest&) const = default;
};

Digest run_matrix_program(sim::Engine e, fp::MathBackend b,
                          std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  asmb::Assembler a;
  const auto d0 = a.data_u32(static_cast<std::uint32_t>(gen()));
  a.data_u32(static_cast<std::uint32_t>(gen()));
  a.data_u32(static_cast<std::uint32_t>(gen()));
  a.data_u32(static_cast<std::uint32_t>(gen()));
  a.data_u32(static_cast<std::uint32_t>(gen()));
  a.data_u32(static_cast<std::uint32_t>(gen()));
  a.la(reg::s0, d0);
  a.flw(reg::ft0, 0, reg::s0);
  a.flw(reg::ft1, 4, reg::s0);
  a.flw(reg::fa0, 8, reg::s0);
  a.flw(reg::fa1, 12, reg::s0);
  a.flw(reg::fa2, 16, reg::s0);
  a.flw(reg::fa3, 20, reg::s0);
  // Chained exsdotp across every widening pair, accumulating in place so
  // later results depend on earlier ones (any engine/backend divergence
  // compounds instead of cancelling).
  a.fp_rrr(Op::VFEXSDOTP_H_B, reg::fa0, reg::ft0, reg::ft1);
  a.fp_rrr(Op::VFEXSDOTP_S_H, reg::fa1, reg::fa0, reg::ft1);
  a.fp_rrr(Op::VFEXSDOTP_S_AH, reg::fa2, reg::ft0, reg::fa0);
  a.fp_rrr(Op::VFEXSDOTP_P16_P8, reg::fa3, reg::ft0, reg::ft1);
  a.fp_rrr(Op::VFEXSDOTP_R_H_B, reg::fa0, reg::ft1, reg::fa3);
  a.fp_rrr(Op::VFEXSDOTP_R_P16_P8, reg::fa3, reg::ft1, reg::ft0);
  a.ebreak();

  sim::Core core;
  core.set_engine(e);
  core.set_backend(b);
  core.load_program(a.finish());
  EXPECT_EQ(core.run(), sim::Core::RunResult::Halted);
  return {core.f_bits(reg::fa0), core.f_bits(reg::fa1),
          core.f_bits(reg::fa2), core.f_bits(reg::fa3), core.fflags()};
}

TEST(ExSdotpConformance, BitsAndFlagsIdenticalAcrossEnginesAndBackends) {
  bool saw_flags = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Digest baseline =
        run_matrix_program(sim::Engine::Reference, fp::MathBackend::Grs, seed);
    saw_flags |= baseline.fflags != 0;
    for (const auto e : {sim::Engine::Reference, sim::Engine::Jit}) {
      for (const auto b : {fp::MathBackend::Grs, fp::MathBackend::Fast}) {
        const Digest d = run_matrix_program(e, b, seed);
        ASSERT_EQ(d, baseline)
            << sim::engine_name(e) << "/" << fp::backend_name(b) << " seed "
            << seed;
      }
    }
  }
  EXPECT_TRUE(saw_flags) << "no seed raised fflags; the sweep is too tame";
}

}  // namespace
}  // namespace sfrv::test
