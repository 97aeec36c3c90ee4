// Exhaustive differential validation of the posit8 implementation against an
// independent oracle, mirroring tests/softfloat/test_f8_exhaustive.cpp for
// the IEEE binary8 format.
//
// The oracle is MPFR-free and exact by construction:
//
//  * An independent pattern decoder (`oracle_value`) re-derives the real
//    value of every posit pattern with a bit-at-a-time scan (regime run,
//    es=2 exponent, fraction) assembled via std::ldexp — deliberately a
//    different algorithm shape from posit.hpp's decode(). Every posit8 value
//    is exact in double (significand <= 4 bits, scale in [-24, 24]).
//
//  * A brute-force rounding oracle (`oracle_round8`) maps a real value to a
//    posit8 pattern by searching a sorted table of all 255 real patterns.
//    Posit rounding is RNE over the *bit string*, not the value: the
//    decision boundary between adjacent patterns with bodies b and b+1 is
//    the value of the 9-bit posit with body 2b+1 — the arithmetic midpoint
//    where only fraction bits are truncated, but the geometric mean where
//    regime/exponent bits are (e.g. the boundary between 2^20 and maxpos =
//    2^24 is 2^22). The oracle derives every boundary from its own decoder
//    at width 9, keeping it independent and exact (boundaries have <= 5-bit
//    significands, scale in [-28, 28]). Ties go to the even body pattern;
//    saturation clamps to +-maxpos beyond the dynamic range and nonzero
//    values below minpos clamp to +-minpos (never to zero).
//
//  * Operation results are formed exactly before rounding. Sums and products
//    of posit8 values are exact in double (bit span <= 53 for sums, <= 8
//    significant bits for products). Quotients use the host's correctly
//    rounded double division: a 53-bit-rounded quotient cannot land on a
//    posit8 rounding boundary it wasn't already exactly on, because the
//    relative gap between a quotient of 4-bit-significand values and any
//    5-bit-significand boundary is at least 1/(15*31*15) ~ 2^-13 >> 2^-53
//    unless the difference is exactly zero. Square roots avoid host sqrt
//    entirely: sqrt(v) vs boundary m compares as v vs m^2, which is exact
//    (m^2 has <= 10 significant bits). FMA intermediates can span more than
//    64 bits, so the FMA sweep uses a correctly rounded long double
//    intermediate with a 1-ulp stability guard and asserts near-total
//    coverage.
//
// Posit arithmetic ignores the rounding mode and raises no IEEE flags; both
// properties are asserted across every operand pair. Conversions posit8 ->
// IEEE honour rm/flags and are checked against from_double of the oracle
// value; IEEE -> posit8 is checked exhaustively (all 65536 binary16
// patterns) and by directed+random binary32 sampling against oracle_round8.
//
// posit16 is sampled against the same oracle machinery (oracle_round16, a
// binary search over the value-ordered patterns with 17-bit boundaries):
// add/sub/mul/div, the scalar fma (random triples, and directed ties that
// only a far-below addend breaks), the packed posit8 and posit16 mac, and
// the posit8 -> posit16 exsdotp. Their fma oracle (oracle_fma) is exact:
// TwoSum pins the exact sum between two adjacent long doubles, and no
// rounding boundary lies strictly between two of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "softfloat/posit.hpp"
#include "softfloat/softfloat.hpp"
#include "test_util.hpp"

namespace sfrv::fp {
namespace {

using test::kAllRoundingModes;
using test::rng;

constexpr std::uint8_t kNar8 = 0x80;

// ---- independent oracle ----------------------------------------------------

/// Decode a posit pattern (es = 2) to its exact real value by scanning bits
/// one at a time. Independent of posit.hpp's field-extraction decode.
double oracle_value(unsigned bits, int width) {
  const unsigned mask = (1u << width) - 1;
  const unsigned sign_bit = 1u << (width - 1);
  bits &= mask;
  if (bits == 0) return 0.0;
  if (bits == sign_bit) return std::numeric_limits<double>::quiet_NaN();
  const bool neg = (bits & sign_bit) != 0;
  const unsigned body = neg ? (~bits + 1u) & mask : bits;  // two's complement
  int i = width - 2;
  const unsigned r0 = (body >> i) & 1u;
  int run = 0;
  while (i >= 0 && ((body >> i) & 1u) == r0) {
    ++run;
    --i;
  }
  --i;  // regime terminator (absent when the run fills the body)
  const int k = r0 ? run - 1 : -run;
  int e = 0;
  for (int j = 0; j < 2; ++j) {  // es = 2; bits cut off by the regime are 0
    e <<= 1;
    if (i >= 0) e |= static_cast<int>((body >> i) & 1u);
    --i;
  }
  double frac = 1.0, w = 0.5;
  for (; i >= 0; --i, w *= 0.5) {
    if ((body >> i) & 1u) frac += w;
  }
  const double v = std::ldexp(frac, 4 * k + e);
  return neg ? -v : v;
}

struct TableEntry {
  double value;
  std::uint8_t pattern;
};

/// All positive posit8 patterns (0x01..0x7f) sorted by value.
const std::vector<TableEntry>& positive_table() {
  static const std::vector<TableEntry> table = [] {
    std::vector<TableEntry> t;
    for (unsigned p = 1; p < 0x80; ++p)
      t.push_back({oracle_value(p, 8), static_cast<std::uint8_t>(p)});
    std::sort(t.begin(), t.end(),
              [](const TableEntry& a, const TableEntry& b) {
                return a.value < b.value;
              });
    return t;
  }();
  return table;
}

/// Nearest positive posit8 pattern to v > 0: ties to the even body pattern,
/// clamped to [minpos, maxpos] (never rounding to zero or NaR).
std::uint8_t oracle_round8_pos(long double v) {
  const auto& t = positive_table();
  if (v >= static_cast<long double>(t.back().value)) return t.back().pattern;
  if (v <= static_cast<long double>(t.front().value)) return t.front().pattern;
  // First entry with value >= v.
  auto it = std::lower_bound(t.begin(), t.end(), v,
                             [](const TableEntry& e, long double x) {
                               return static_cast<long double>(e.value) < x;
                             });
  if (static_cast<long double>(it->value) == v) return it->pattern;
  const TableEntry lo = *(it - 1), hi = *it;
  // Bit-string RNE boundary: the 9-bit posit halfway *in the encoding*
  // between body b and b+1 (see the file comment). Exact in double.
  const double mid =
      oracle_value((static_cast<unsigned>(lo.pattern) << 1) | 1u, 9);
  if (v < static_cast<long double>(mid)) return lo.pattern;
  if (v > static_cast<long double>(mid)) return hi.pattern;
  return (lo.pattern & 1u) == 0 ? lo.pattern : hi.pattern;
}

std::uint8_t oracle_round8(long double v) {
  if (std::isnan(v) || std::isinf(v)) return kNar8;
  if (v == 0) return 0;
  if (v > 0) return oracle_round8_pos(v);
  return static_cast<std::uint8_t>(-oracle_round8_pos(-v));
}

const RtOps& p8() { return rt_ops(FpFormat::P8); }

/// Run a grs-table binary op and assert posit contract invariants: no flags,
/// rm-independence, and NaR absorption. Returns the RNE result.
template <class Fn>
std::uint8_t run_bin(Fn op, unsigned a, unsigned b) {
  Flags fl;
  const auto r =
      static_cast<std::uint8_t>(op(a, b, RoundingMode::RNE, fl));
  EXPECT_EQ(fl.bits, 0u) << "posit arithmetic must not raise flags";
  for (const auto rm : kAllRoundingModes) {
    Flags fl2;
    EXPECT_EQ(static_cast<std::uint8_t>(op(a, b, rm, fl2)), r)
        << "posit arithmetic must ignore rm";
  }
  return r;
}

// ---- decoder cross-check ---------------------------------------------------

TEST(Posit8Exhaustive, IndependentDecoderAgreesWithImplementation) {
  for (unsigned a = 0; a < 256; ++a) {
    const double want = oracle_value(a, 8);
    const double got = posit_to_double<Posit8>(a);
    if (a == kNar8) {
      EXPECT_TRUE(std::isnan(got));
      continue;
    }
    EXPECT_EQ(got, want) << "pattern 0x" << std::hex << a;
  }
  // Same cross-check for the posit16 decoder (values also exact in double).
  for (unsigned a = 0; a < 65536; ++a) {
    const double want = oracle_value(a, 16);
    const double got = posit_to_double<Posit16>(a);
    if (a == 0x8000) {
      EXPECT_TRUE(std::isnan(got));
      continue;
    }
    ASSERT_EQ(got, want) << "pattern 0x" << std::hex << a;
  }
}

TEST(Posit8Exhaustive, PatternOrderIsValueOrder) {
  // The defining posit encoding property: two's-complement integer order of
  // the patterns is the value order. The sorted oracle table must come out
  // in pattern order.
  const auto& t = positive_table();
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GT(t[i].value, t[i - 1].value);
    EXPECT_EQ(t[i].pattern, t[i - 1].pattern + 1);
  }
}

// ---- exhaustive arithmetic -------------------------------------------------

TEST(Posit8Exhaustive, AddAllPairs) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t got = run_bin(p8().add, a, b);
      if (a == kNar8 || b == kNar8) {
        ASSERT_EQ(got, kNar8);
        continue;
      }
      // Exact in double: both operands are 4-bit-significand values with
      // bit-0 exponent >= -27 and magnitude <= 2^25 (span <= 53 bits).
      const double sum = oracle_value(a, 8) + oracle_value(b, 8);
      ASSERT_EQ(got, oracle_round8(sum))
          << "a=0x" << std::hex << a << " b=0x" << b;
    }
  }
}

TEST(Posit8Exhaustive, SubAllPairs) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t got = run_bin(p8().sub, a, b);
      if (a == kNar8 || b == kNar8) {
        ASSERT_EQ(got, kNar8);
        continue;
      }
      const double diff = oracle_value(a, 8) - oracle_value(b, 8);
      ASSERT_EQ(got, oracle_round8(diff))
          << "a=0x" << std::hex << a << " b=0x" << b;
    }
  }
}

TEST(Posit8Exhaustive, MulAllPairs) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t got = run_bin(p8().mul, a, b);
      if (a == kNar8 || b == kNar8) {
        ASSERT_EQ(got, kNar8);
        continue;
      }
      // Exact in double: the product of two 4-bit significands has <= 8
      // significant bits.
      const double prod = oracle_value(a, 8) * oracle_value(b, 8);
      ASSERT_EQ(got, oracle_round8(prod))
          << "a=0x" << std::hex << a << " b=0x" << b;
    }
  }
}

TEST(Posit8Exhaustive, DivAllPairs) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t got = run_bin(p8().div, a, b);
      if (a == kNar8 || b == kNar8 || b == 0) {
        ASSERT_EQ(got, kNar8) << "x/0 and NaR must produce NaR";
        continue;
      }
      // The host's correctly rounded division is a safe oracle here: the
      // quotient's distance to any posit8 value or tie midpoint is either
      // exactly zero or at least ~2^-13 relative, far above the 2^-53
      // double-rounding error (see file comment).
      const double q = oracle_value(a, 8) / oracle_value(b, 8);
      ASSERT_EQ(got, oracle_round8(q))
          << "a=0x" << std::hex << a << " b=0x" << b;
    }
  }
}

TEST(Posit8Exhaustive, SqrtAllValues) {
  // Fully exact oracle: for v > 0, sqrt(v) compares against a candidate
  // boundary m as v vs m^2, and m^2 is exact in double (<= 12-bit sig).
  const auto& t = positive_table();
  for (unsigned a = 0; a < 256; ++a) {
    Flags fl;
    const auto got =
        static_cast<std::uint8_t>(p8().sqrt(a, RoundingMode::RNE, fl));
    EXPECT_EQ(fl.bits, 0u);
    if (a == 0) {
      ASSERT_EQ(got, 0u);
      continue;
    }
    if (a & 0x80) {  // NaR and all negatives
      ASSERT_EQ(got, kNar8) << "sqrt of negative/NaR must be NaR";
      continue;
    }
    const double v = oracle_value(a, 8);
    // Nearest pattern to sqrt(v) via squared comparisons. sqrt of the posit8
    // positive range lands in [2^-12, 2^12], strictly inside the table.
    std::uint8_t want = 0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      const double lo = t[i - 1].value, hi = t[i].value;
      if (v < lo * lo || v > hi * hi) continue;
      if (v == lo * lo) {
        want = t[i - 1].pattern;
      } else if (v == hi * hi) {
        want = t[i].pattern;
      } else {
        // Bit-string RNE boundary between the two patterns, squared
        // (exact: the 9-bit boundary has a <= 5-bit significand).
        const double mid = oracle_value(
            (static_cast<unsigned>(t[i - 1].pattern) << 1) | 1u, 9);
        const double mid2 = mid * mid;
        if (v < mid2)
          want = t[i - 1].pattern;
        else if (v > mid2)
          want = t[i].pattern;
        else
          want = (t[i - 1].pattern & 1u) == 0 ? t[i - 1].pattern
                                              : t[i].pattern;
      }
      break;
    }
    ASSERT_NE(want, 0u) << "oracle failed to bracket sqrt(0x" << std::hex << a
                        << ")";
    ASSERT_EQ(got, want) << "a=0x" << std::hex << a;
  }
}

/// TwoSum: the exact error of the rounded long double sum x + y. The sum is
/// exact iff the returned error is zero.
long double two_sum_err(long double x, long double y, long double s) {
  const long double yp = s - x;
  return (x - (s - yp)) + (y - yp);
}

TEST(Posit8Exhaustive, FmaAllPairsStridedAddend) {
  // a, b exhaustive; c strided through the pattern space (zero included;
  // NaR absorption is covered on the a/b axes). The product is exact in
  // long double (<= 8 significant bits) but product + c can span more than
  // 64 bits. TwoSum recovers the exact rounding error of the long double
  // sum: when it is zero the sum is exact and the oracle (tie rule
  // included) applies directly; otherwise the true value lies strictly
  // between the sum and its neighbour in the error's direction, so the
  // triple is checkable whenever both ends of that 1-ulp interval round the
  // same way. Only a decision boundary inside a 1-ulp64 window forces a
  // skip, which is vanishingly rare on this grid.
  std::uint64_t checked = 0, skipped = 0;
  const long double inf = std::numeric_limits<long double>::infinity();
  for (unsigned c = 0; c < 256; c += 17) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        Flags fl;
        const auto got = static_cast<std::uint8_t>(
            p8().fma(a, b, c, RoundingMode::RNE, fl));
        EXPECT_EQ(fl.bits, 0u);
        if (a == kNar8 || b == kNar8 || c == kNar8) {
          ASSERT_EQ(got, kNar8);
          continue;
        }
        const long double prod =  // exact: <= 8 significant bits
            static_cast<long double>(oracle_value(a, 8)) * oracle_value(b, 8);
        const long double vc = oracle_value(c, 8);
        const long double s = prod + vc;
        const long double err = two_sum_err(prod, vc, s);
        const std::uint8_t want = oracle_round8(s);
        if (err != 0 &&
            oracle_round8(std::nextafterl(s, err > 0 ? inf : -inf)) != want) {
          ++skipped;
          continue;
        }
        ++checked;
        ASSERT_EQ(got, want) << "a=0x" << std::hex << a << " b=0x" << b
                             << " c=0x" << c;
      }
    }
  }
  EXPECT_GT(checked, (checked + skipped) * 999 / 1000)
      << "stability guard skipped too many triples to claim coverage";
}

// ---- comparisons, min/max, sign injection, classify ------------------------

TEST(Posit8Exhaustive, ComparisonsAreSignedPatternOrder) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const auto sa = static_cast<std::int8_t>(a);
      const auto sb = static_cast<std::int8_t>(b);
      Flags fl;
      EXPECT_EQ(p8().feq(a, b, fl), sa == sb);
      EXPECT_EQ(p8().flt(a, b, fl), sa < sb);
      EXPECT_EQ(p8().fle(a, b, fl), sa <= sb);
      EXPECT_EQ(fl.bits, 0u) << "posit compares raise no flags (no sNaN)";
      // Cross-check against real-value order for real operands: the posit
      // encoding's monotonicity means both orders must agree.
      if (a != kNar8 && b != kNar8) {
        const double va = oracle_value(a, 8), vb = oracle_value(b, 8);
        EXPECT_EQ(sa < sb, va < vb);
        EXPECT_EQ(sa == sb, va == vb);
      }
    }
  }
}

TEST(Posit8Exhaustive, MinMaxPropagateNarAndFollowValueOrder) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t mn = run_bin(p8().min, a, b);
      const std::uint8_t mx = run_bin(p8().max, a, b);
      if (a == kNar8 || b == kNar8) {
        // Arithmetic convention: NaR poisons min/max (unlike IEEE fmin/fmax,
        // which prefer the number).
        EXPECT_EQ(mn, kNar8);
        EXPECT_EQ(mx, kNar8);
        continue;
      }
      const bool a_smaller = oracle_value(a, 8) < oracle_value(b, 8) ||
                             (a == b);
      EXPECT_EQ(mn, a_smaller ? a : b);
      EXPECT_EQ(mx, a_smaller ? b : a);
    }
  }
}

TEST(Posit8Exhaustive, SignInjectionMatchesValueSemantics) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t j = run_bin(p8().sgnj, a, b);
      const std::uint8_t jn = run_bin(p8().sgnjn, a, b);
      const std::uint8_t jx = run_bin(p8().sgnjx, a, b);
      if (a == kNar8) {
        // |NaR| = NaR; sign injection cannot un-poison it.
        EXPECT_EQ(j, kNar8);
        EXPECT_EQ(jn, kNar8);
        EXPECT_EQ(jx, kNar8);
        continue;
      }
      const double va = oracle_value(a, 8);
      const bool sb = (b & 0x80) != 0;
      EXPECT_EQ(oracle_value(j, 8), sb ? -std::fabs(va) : std::fabs(va));
      EXPECT_EQ(oracle_value(jn, 8), sb ? std::fabs(va) : -std::fabs(va));
      EXPECT_EQ(oracle_value(jx, 8), sb ? -va : va);
    }
  }
}

TEST(Posit8Exhaustive, ClassifyAllValues) {
  for (unsigned a = 0; a < 256; ++a) {
    const std::uint16_t got = p8().classify(a);
    std::uint16_t want;
    if (a == kNar8) {
      want = static_cast<std::uint16_t>(FpClass::QuietNan);
    } else if (a == 0) {
      want = static_cast<std::uint16_t>(FpClass::PosZero);
    } else if (a & 0x80) {
      want = static_cast<std::uint16_t>(FpClass::NegNormal);
    } else {
      want = static_cast<std::uint16_t>(FpClass::PosNormal);
    }
    EXPECT_EQ(got, want) << "pattern 0x" << std::hex << a;
  }
}

// ---- posit8 <-> IEEE conversions -------------------------------------------

TEST(Posit8Exhaustive, ToBinary16AllValuesAllModes) {
  const RtCvtFn cvt = rt_convert_fn(FpFormat::F16, FpFormat::P8);
  ASSERT_NE(cvt, nullptr);
  for (unsigned a = 0; a < 256; ++a) {
    for (const auto rm : kAllRoundingModes) {
      Flags fl;
      const auto got = static_cast<std::uint16_t>(cvt(a, rm, fl));
      if (a == kNar8) {
        EXPECT_EQ(got, F16::quiet_nan().bits);
        EXPECT_EQ(fl.bits, 0u);
        continue;
      }
      // Oracle: round the independently decoded (exact) value into binary16
      // with the IEEE converter. posit8 reaches 2^24, so overflow/inexact
      // flags are live here and must match.
      Flags fl2;
      const F16 want = from_double<Binary16>(oracle_value(a, 8), rm, fl2);
      ASSERT_EQ(got, want.bits)
          << "a=0x" << std::hex << a << " rm=" << rounding_mode_name(rm);
      ASSERT_EQ(fl.bits, fl2.bits)
          << "a=0x" << std::hex << a << " rm=" << rounding_mode_name(rm);
    }
  }
}

TEST(Posit8Exhaustive, ToBinary32IsExactForAllValues) {
  // Every posit8 real (4-bit significand, scale in [-24, 24]) is exactly
  // representable in binary32: the conversion must be flag-free and
  // rm-independent, and the value must round-trip through the oracle.
  const RtCvtFn cvt = rt_convert_fn(FpFormat::F32, FpFormat::P8);
  ASSERT_NE(cvt, nullptr);
  for (unsigned a = 0; a < 256; ++a) {
    Flags fl;
    const auto rne = static_cast<std::uint32_t>(cvt(a, RoundingMode::RNE, fl));
    EXPECT_EQ(fl.bits, 0u) << "exact conversion must not raise flags";
    for (const auto rm : kAllRoundingModes) {
      Flags fl2;
      EXPECT_EQ(static_cast<std::uint32_t>(cvt(a, rm, fl2)), rne);
    }
    if (a == kNar8) {
      EXPECT_EQ(rne, F32::quiet_nan().bits);
      continue;
    }
    ASSERT_EQ(to_double(F32::from_bits(rne)), oracle_value(a, 8))
        << "a=0x" << std::hex << a;
  }
}

TEST(Posit8Exhaustive, FromBinary16AllPatternsAllModes) {
  const RtCvtFn cvt = rt_convert_fn(FpFormat::P8, FpFormat::F16);
  ASSERT_NE(cvt, nullptr);
  for (unsigned h = 0; h < 65536; ++h) {
    const F16 x = F16::from_bits(h);
    Flags fl;
    const auto rne =
        static_cast<std::uint8_t>(cvt(h, RoundingMode::RNE, fl));
    EXPECT_EQ(fl.bits, 0u) << "IEEE -> posit raises no flags";
    for (const auto rm : kAllRoundingModes) {
      Flags fl2;
      ASSERT_EQ(static_cast<std::uint8_t>(cvt(h, rm, fl2)), rne)
          << "IEEE -> posit ignores rm; h=0x" << std::hex << h;
    }
    std::uint8_t want;
    if (x.is_nan() || x.is_inf()) {
      want = kNar8;  // no infinities in the projective reals
    } else {
      want = oracle_round8(to_double(x));  // +-0 -> 0 falls out of the oracle
    }
    ASSERT_EQ(rne, want) << "h=0x" << std::hex << h;
  }
}

TEST(Posit8Exhaustive, FromBinary32DirectedAndRandom) {
  const RtCvtFn cvt = rt_convert_fn(FpFormat::P8, FpFormat::F32);
  ASSERT_NE(cvt, nullptr);
  std::vector<std::uint32_t> patterns = {
      0x00000000u, 0x80000000u,  // +-0
      0x7f800000u, 0xff800000u,  // +-inf -> NaR
      0x7fc00000u, 0x7f800001u,  // quiet/signalling NaN -> NaR
      0x00000001u, 0x00400000u,  // subnormals (far below minpos)
      0x7f7fffffu, 0xff7fffffu,  // +-FLT_MAX (far beyond maxpos)
      0x3f800000u, 0x40490fdbu,  // 1.0, pi
  };
  // Boundary stress: rounding boundaries between adjacent posit8 patterns
  // (the 9-bit bit-string ties — geometric means in the regime region),
  // nudged both ways, plus the boundaries themselves (all exact in
  // binary32: <= 5-bit significands).
  for (const unsigned lo : {3u, 0x40u, 0x7eu, 0x19u}) {
    const double mid = oracle_value((lo << 1) | 1u, 9);
    Flags fl;
    patterns.push_back(from_double<Binary32>(mid, RoundingMode::RNE, fl).bits);
    patterns.push_back(patterns.back() + 1);
    patterns.push_back(patterns.back() - 2);
  }
  for (int i = 0; i < 300000; ++i)
    patterns.push_back(static_cast<std::uint32_t>(rng()()));
  for (const auto w : patterns) {
    const F32 x = F32::from_bits(w);
    Flags fl;
    const auto got = static_cast<std::uint8_t>(cvt(w, RoundingMode::RNE, fl));
    EXPECT_EQ(fl.bits, 0u);
    std::uint8_t want;
    if (x.is_nan() || x.is_inf()) {
      want = kNar8;
    } else {
      want = oracle_round8(to_double(x));
    }
    ASSERT_EQ(got, want) << "w=0x" << std::hex << w;
  }
}

// ---- posit8 <-> posit16 resize ---------------------------------------------

TEST(Posit8Exhaustive, WidenToPosit16IsExactAndRoundTrips) {
  const RtCvtFn widen = rt_convert_fn(FpFormat::P16, FpFormat::P8);
  const RtCvtFn narrow = rt_convert_fn(FpFormat::P8, FpFormat::P16);
  ASSERT_NE(widen, nullptr);
  ASSERT_NE(narrow, nullptr);
  for (unsigned a = 0; a < 256; ++a) {
    Flags fl;
    const auto wide =
        static_cast<std::uint16_t>(widen(a, RoundingMode::RNE, fl));
    EXPECT_EQ(fl.bits, 0u);
    if (a == kNar8) {
      EXPECT_EQ(wide, 0x8000u);
    } else {
      // posit8's scale range and significand both fit posit16: exact.
      ASSERT_EQ(oracle_value(wide, 16), oracle_value(a, 8))
          << "a=0x" << std::hex << a;
    }
    const auto back =
        static_cast<std::uint8_t>(narrow(wide, RoundingMode::RNE, fl));
    ASSERT_EQ(back, a) << "widen/narrow round trip broke 0x" << std::hex << a;
  }
}

TEST(Posit8Exhaustive, NarrowFromPosit16AllPatterns) {
  const RtCvtFn narrow = rt_convert_fn(FpFormat::P8, FpFormat::P16);
  ASSERT_NE(narrow, nullptr);
  for (unsigned a = 0; a < 65536; ++a) {
    Flags fl;
    const auto got =
        static_cast<std::uint8_t>(narrow(a, RoundingMode::RNE, fl));
    EXPECT_EQ(fl.bits, 0u);
    if (a == 0x8000) {
      ASSERT_EQ(got, kNar8);
      continue;
    }
    // Every posit16 value is exact in double (<= 12-bit significand, scale
    // in [-56, 56]), so the posit8 rounding oracle applies directly.
    ASSERT_EQ(got, oracle_round8(oracle_value(a, 16)))
        << "a=0x" << std::hex << a;
  }
}

// ---- integer conversions ---------------------------------------------------

TEST(Posit8Exhaustive, ToInt32MatchesBinary64Path) {
  // Differential oracle: posit8 values are exact in binary64, and the
  // binary64 integer converter is IEEE-proven elsewhere; the posit path must
  // agree bit-for-bit (including rm behaviour). NaR follows the NaN
  // convention: most-negative / max with NV.
  for (unsigned a = 0; a < 256; ++a) {
    for (const auto rm : kAllRoundingModes) {
      Flags fl;
      const std::int32_t got = p8().to_int32(a, rm, fl);
      Flags flu;
      const std::uint32_t gotu = p8().to_uint32(a, rm, flu);
      if (a == kNar8) {
        EXPECT_EQ(got, std::numeric_limits<std::int32_t>::min());
        EXPECT_EQ(fl.bits, Flags::NV);
        EXPECT_EQ(gotu, std::numeric_limits<std::uint32_t>::max());
        EXPECT_EQ(flu.bits, Flags::NV);
        continue;
      }
      const std::uint64_t w = from_host(oracle_value(a, 8)).bits;
      Flags fl2, flu2;
      ASSERT_EQ(got, rt_ops(FpFormat::F64).to_int32(w, rm, fl2));
      ASSERT_EQ(fl.bits, fl2.bits);
      ASSERT_EQ(gotu, rt_ops(FpFormat::F64).to_uint32(w, rm, flu2));
      ASSERT_EQ(flu.bits, flu2.bits);
    }
  }
}

TEST(Posit8Exhaustive, FromInt32IsNearestWithSaturation) {
  std::vector<std::int32_t> values = {0,      1,       -1,      2,    3,
                                      15,     16,      17,      100,  -100,
                                      1 << 20, -(1 << 20), (1 << 24),
                                      (1 << 24) + 1, std::numeric_limits<std::int32_t>::max(),
                                      std::numeric_limits<std::int32_t>::min()};
  for (int i = 0; i < 20000; ++i)
    values.push_back(static_cast<std::int32_t>(rng()()));
  for (const auto v : values) {
    Flags fl;
    const auto got = static_cast<std::uint8_t>(
        p8().from_int32(v, RoundingMode::RNE, fl));
    EXPECT_EQ(fl.bits, 0u);
    ASSERT_EQ(got, oracle_round8(static_cast<long double>(v)))
        << "v=" << v;
  }
}

// ---- posit16 spot checks against the same oracle machinery -----------------

/// Nearest-posit16 oracle: pattern order is value order (verified for the
/// encoding above), so decode neighbours directly; ties go to the even body
/// pattern, and the range clamps like posit8's.
std::uint16_t oracle_round16(long double v) {
  if (std::isnan(v) || std::isinf(v)) return 0x8000;
  if (v == 0) return 0;
  const bool neg = v < 0;
  const long double m = neg ? -v : v;
  // Binary search over positive patterns 1..0x7fff (value-ordered).
  unsigned lo = 1, hi = 0x7fff;
  if (m >= static_cast<long double>(oracle_value(hi, 16))) {
    lo = hi;
  } else if (m <= static_cast<long double>(oracle_value(lo, 16))) {
    hi = lo;
  } else {
    while (hi - lo > 1) {
      const unsigned mid = lo + (hi - lo) / 2;
      if (static_cast<long double>(oracle_value(mid, 16)) <= m)
        lo = mid;
      else
        hi = mid;
    }
    const long double vlo = oracle_value(lo, 16), vhi = oracle_value(hi, 16);
    if (m == vhi) {
      lo = hi;
    } else if (m != vlo) {
      // Bit-string RNE boundary: the 17-bit posit between the adjacent
      // bodies (<= 13-bit significand, exact in double).
      const long double midv = oracle_value((lo << 1) | 1u, 17);
      if (m > midv)
        lo = hi;
      else if (m == midv && (lo & 1u))
        lo = hi;  // tie to the even body pattern
    }
  }
  const auto p = static_cast<std::uint16_t>(lo);
  return neg ? static_cast<std::uint16_t>(-p) : p;
}

/// The oracle rounding of x * y + z through `round`, where x * y is exact in
/// long double (posit products are: <= 24 significant bits). The long
/// double sum s can be inexact; TwoSum recovers its error, so the exact
/// value lies strictly between s and its neighbour n toward the error. No
/// rounding boundary lies strictly between two adjacent long doubles (every
/// boundary, a <= 13-bit significand, is one), and boundaries are far
/// apart: so the exact value rounds like s, unless s is itself a boundary,
/// and then like n.
template <class Round>
unsigned oracle_fma(Round round, long double x, long double y, long double z) {
  const long double inf = std::numeric_limits<long double>::infinity();
  const long double prod = x * y;
  const long double s = prod + z;
  const long double err = two_sum_err(prod, z, s);
  if (err == 0) return round(s);
  const bool s_is_boundary =
      round(std::nextafterl(s, -inf)) != round(std::nextafterl(s, inf));
  return round(s_is_boundary ? std::nextafterl(s, err > 0 ? inf : -inf) : s);
}

TEST(Posit16Sampled, BinopsAgainstLongDoubleOracle) {
  // Comparisons happen in long double; sums of posit16 values can span more
  // than 64 bits, so an unstable rounding (exact sum within 1 ulp64 of a
  // decision boundary) is skipped and counted, like the posit8 FMA sweep.
  const auto round16 = oracle_round16;
  const auto& ops = rt_ops(FpFormat::P16);
  const long double inf = std::numeric_limits<long double>::infinity();
  std::uint64_t checked = 0, skipped = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng()());
    const auto b = static_cast<std::uint16_t>(rng()());
    struct Case {
      RtBinFn fn;
      long double exact;
      long double err;  // TwoSum error: exact result = exact + err
      bool valid;
    };
    const long double va = oracle_value(a, 16), vb = oracle_value(b, 16);
    const bool nar = a == 0x8000 || b == 0x8000;
    const long double sum = va + vb, diff = va - vb;
    const Case cases[] = {
        // Sums can span > 64 bits; TwoSum recovers the exact error so only
        // a boundary within 1 ulp64 of the rounded sum forces a skip.
        {ops.add, sum, two_sum_err(va, vb, sum), true},
        {ops.sub, diff, two_sum_err(va, -vb, diff), true},
        {ops.mul, va * vb, 0.0L, true},  // exact: <= 24 significant bits
        // Correctly rounded 64-bit quotient; the posit16 separation bound
        // (~2^-48 relative) keeps the rounded value on the right side of
        // every decision boundary, so no guard is needed: treat as exact.
        {ops.div, va / vb, 0.0L, b != 0},
    };
    for (const auto& c : cases) {
      Flags fl;
      const auto got = static_cast<std::uint16_t>(
          c.fn(a, b, RoundingMode::RNE, fl));
      EXPECT_EQ(fl.bits, 0u);
      if (nar || !c.valid) {
        ASSERT_EQ(got, 0x8000u);
        continue;
      }
      const std::uint16_t want = round16(c.exact);
      if (c.err != 0 &&
          round16(std::nextafterl(c.exact, c.err > 0 ? inf : -inf)) != want) {
        ++skipped;
        continue;
      }
      ++checked;
      ASSERT_EQ(got, want) << "a=0x" << std::hex << a << " b=0x" << b;
    }
  }
  EXPECT_GT(checked, (checked + skipped) * 999 / 1000);
}

TEST(Posit16Sampled, FmaAgainstLongDoubleOracle) {
  // Random triples, every fourth with the addend set to the negated rounded
  // product so near-cancellation is exercised.
  const RtTernFn fma = rt_ops(FpFormat::P16).fma;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t r = rng()();
    const unsigned a = r & 0xffff, b = (r >> 16) & 0xffff;
    unsigned c = (r >> 32) & 0xffff;
    Flags fl;
    if (i % 4 == 0) {
      c = (0x10000u - static_cast<unsigned>(fma(a, b, 0, RoundingMode::RNE,
                                                 fl))) & 0xffff;
    }
    const auto got =
        static_cast<std::uint16_t>(fma(a, b, c, RoundingMode::RNE, fl));
    EXPECT_EQ(fl.bits, 0u);
    if (a == 0x8000 || b == 0x8000 || c == 0x8000) {
      ASSERT_EQ(got, 0x8000u);
      continue;
    }
    ASSERT_EQ(got, oracle_fma(oracle_round16, oracle_value(a, 16),
                              oracle_value(b, 16), oracle_value(c, 16)))
        << "a=0x" << std::hex << a << " b=0x" << b << " c=0x" << c;
  }

  // Directed: every positive a times a short multiplier puts many products
  // exactly on a rounding tie, and a tiny addend of either sign, too far
  // below a large product to align in 64 bits, must still break the tie
  // its way (the sticky epsilon).
  const std::uint16_t tiny[] = {0x0001, 0xffff, 0x0100, 0xff00};
  std::uint64_t ties = 0;
  for (unsigned a = 0x0001; a < 0x8000; ++a) {
    for (const double bv : {1.5, 1.25, 0.75, 3.0}) {
      Flags fl;
      const auto b = static_cast<unsigned>(
          rt_from_double(FpFormat::P16, bv, RoundingMode::RNE, fl));
      ASSERT_EQ(oracle_value(b, 16), bv);
      const long double prod =
          static_cast<long double>(oracle_value(a, 16)) * bv;
      if (oracle_round16(std::nextafterl(prod, 0)) !=
          oracle_round16(std::nextafterl(prod, 4 * prod))) {
        ++ties;  // prod sits on a boundary: the addend decides
      }
      for (const unsigned c : tiny) {
        const auto got =
            static_cast<std::uint16_t>(fma(a, b, c, RoundingMode::RNE, fl));
        ASSERT_EQ(got, oracle_fma(oracle_round16, oracle_value(a, 16), bv,
                                  oracle_value(c, 16)))
            << "a=0x" << std::hex << a << " b=0x" << b << " c=0x" << c;
      }
    }
  }
  EXPECT_GT(ties, 1000u) << "the directed set must hit rounding ties";
}

/// The packed posit mac over a full 64-bit register (and one lane short of
/// it, and .R replication), lane by lane against the oracle fma.
template <int W, class Round>
void check_packed_mac(FpFormat tag, Round round) {
  const RtVecTernFn mac = rt_vec_ops(tag).mac;
  constexpr int kLanes = 64 / W;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << W) - 1;
  constexpr std::uint64_t kNar = std::uint64_t{1} << (W - 1);
  const auto lane = [](std::uint64_t v, int l) { return (v >> (l * W)) & kMask; };
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t a = rng()(), b = rng()(), d = rng()();
    const int lanes = kLanes - (i & 1);
    const bool rep = (i & 2) != 0;
    Flags fl;
    const std::uint64_t got = mac(a, b, d, lanes, rep, RoundingMode::RNE, fl);
    EXPECT_EQ(fl.bits, 0u);
    for (int l = 0; l < kLanes; ++l) {
      const std::uint64_t gl = lane(got, l);
      if (l >= lanes) {
        ASSERT_EQ(gl, 0u) << "bits above the active lanes must be zero";
        continue;
      }
      const std::uint64_t al = lane(a, l), bl = lane(b, rep ? 0 : l),
                          dl = lane(d, l);
      if (al == kNar || bl == kNar || dl == kNar) {
        ASSERT_EQ(gl, kNar);
        continue;
      }
      ASSERT_EQ(gl, oracle_fma(round, oracle_value(al, W), oracle_value(bl, W),
                               oracle_value(dl, W)))
          << "lane " << l << " a=0x" << std::hex << al << " b=0x" << bl
          << " d=0x" << dl;
    }
  }
}

TEST(PositPackedSampled, MacAgainstLongDoubleOracle) {
  check_packed_mac<8>(FpFormat::P8, [](long double v) -> unsigned {
    return oracle_round8(v);
  });
  check_packed_mac<16>(FpFormat::P16, [](long double v) -> unsigned {
    return oracle_round16(v);
  });
}

TEST(PositPackedSampled, ExSdotpP8ToP16AgainstLongDoubleOracle) {
  // Wide lane w accumulates narrow lanes 2w and 2w+1 in order, each step an
  // exact posit8 product added to the posit16 accumulator and rounded once
  // in posit16; NaR in any input of a wide lane poisons it.
  const RtVecDotpFn exsdotp = rt_vec_ops(FpFormat::P8).exsdotp;
  const auto p8 = [](std::uint64_t v, int l) { return (v >> (8 * l)) & 0xff; };
  const auto p16 = [](std::uint64_t v, int l) {
    return (v >> (16 * l)) & 0xffff;
  };
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t a = rng()(), b = rng()(), acc = rng()();
    const int lanes = 8 - (i & 1);
    const bool rep = (i & 2) != 0;
    Flags fl;
    const std::uint64_t got =
        exsdotp(a, b, acc, lanes, rep, RoundingMode::RNE, fl);
    EXPECT_EQ(fl.bits, 0u);
    for (int w = 0; w < 4; ++w) {
      unsigned want = static_cast<unsigned>(p16(acc, w));
      bool nar = want == 0x8000;
      for (int l = 2 * w; l < 2 * w + 2 && l < lanes; ++l) {
        const std::uint64_t al = p8(a, l), bl = p8(b, rep ? 0 : l);
        nar = nar || al == kNar8 || bl == kNar8;
        if (nar) continue;
        want = oracle_fma(oracle_round16, oracle_value(al, 8),
                          oracle_value(bl, 8), oracle_value(want, 16));
      }
      if (nar) want = 0x8000;
      ASSERT_EQ(p16(got, w), want)
          << "wide lane " << w << " a=0x" << std::hex << a << " b=0x" << b
          << " acc=0x" << acc << " lanes=" << std::dec << lanes;
    }
  }
}

}  // namespace
}  // namespace sfrv::fp
