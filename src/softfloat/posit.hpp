// Posit arithmetic (Posit Standard 2022, es = 2) for the posit8/posit16
// formats layered behind the FpFormat seam.
//
// Posits are NOT a FormatTraits instantiation: the exponent is split across a
// variable-length regime run and up to two explicit exponent bits, there are
// no subnormals, no signed zero, no infinities, and a single non-real pattern
// NaR (1 followed by zeros). Negation is two's complement of the whole bit
// pattern and the numeric order of posits is exactly the signed-integer order
// of their patterns. This header therefore provides a dedicated integer-exact
// implementation (decode -> wide fixed-point -> posit round-pack) mirroring
// the guard/round/sticky discipline of arith.hpp:
//
//   * decode: peel sign (2's complement), left-align the body and count the
//     regime run with one countl_zero/countl_one, read the exponent bits
//     (missing low bits are zero), and place the hidden bit at a fixed
//     position (the widest fraction field the format has).
//   * arithmetic: exact 64-bit significand arithmetic; when an alignment
//     shift would overflow 64 bits the smaller operand collapses into a
//     sticky epsilon (the `mag - 1, sticky = 1` trick), which is exact with
//     respect to any rounding position the pack step can examine.
//   * round-pack: split the scale into k = scale >> 2 and e = scale & 3,
//     build the regime|exponent|fraction bit string straight-line,
//     left-aligned in 64 bits (what falls off its end is sticky), and round
//     once at width bits with round-to-nearest-even on the bit string --
//     which is precisely the posit-standard rounding (geometric near the
//     regime ends, arithmetic in between). Saturation: results beyond
//     +-maxpos clamp to +-maxpos and nonzero results below minpos clamp to
//     +-minpos; rounding never produces zero or NaR from a nonzero real
//     value.
//
// Per the standard, posit operations use a single rounding attitude (RNE on
// the pattern): the RoundingMode argument threaded through the runtime
// tables is ignored, and no IEEE exception flags are raised by arithmetic
// (NaR is a value, not a trap). Conversions *to* IEEE formats honour the
// requested rounding mode and raise IEEE flags; conversions to integers
// saturate and raise NV exactly like the IEEE paths so the ISA contract
// (FCVT.W semantics) is uniform across formats.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <string_view>

#include "softfloat/flags.hpp"
#include "softfloat/float.hpp"
#include "softfloat/host.hpp"

namespace sfrv::fp {

/// Compile-time description of a posit format (es is fixed at 2 by the 2022
/// standard; width is the only free parameter).
template <int Width, typename StorageT>
struct PositTraits {
  static constexpr int width = Width;
  static constexpr int es = 2;
  using Storage = StorageT;

  static constexpr std::uint64_t mask =
      (Width == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << Width) - 1);
  static constexpr std::uint64_t sign_mask = std::uint64_t{1} << (Width - 1);
  /// NaR: sign bit set, all else zero. Also the pattern of "most negative".
  static constexpr std::uint64_t nar_bits = sign_mask;
  /// maxpos = 2^(4*(width-2)): regime all ones.
  static constexpr std::uint64_t maxpos_bits = sign_mask - 1;
  static constexpr std::uint64_t minpos_bits = 1;
  static constexpr int max_scale = 4 * (Width - 2);
  static constexpr int min_scale = -4 * (Width - 2);
};

struct Posit8 : PositTraits<8, std::uint8_t> {
  static constexpr std::string_view name = "posit8";
};
struct Posit16 : PositTraits<16, std::uint16_t> {
  static constexpr std::string_view name = "posit16";
};

namespace posit_detail {

/// Fraction bits of the widest fraction field P can hold: the width less the
/// sign bit, the shortest regime (two bits) and the two exponent bits.
/// decode places every significand's hidden bit here.
template <class P>
inline constexpr int kFracBits = P::width - 5;

/// A decoded non-zero, non-NaR posit: value = (-1)^sign * sig * 2^(scale -
/// kFracBits<P>), with the hidden bit of `sig` at bit kFracBits<P>.
struct Unpacked {
  bool sign = false;
  int scale = 0;          ///< unbiased exponent: 4*regime + exponent field
  std::uint64_t sig = 0;  ///< 1.f significand, hidden bit at kFracBits<P>
};

/// Decode a non-zero, non-NaR pattern. Negative patterns are two's-complement
/// negated first; the resulting positive body always has a clear sign bit.
/// The body is left-aligned so the regime starts at bit 63: one count of
/// leading zeros (or ones) is the regime run, and the pattern's missing low
/// bits shift in as the zeros the standard reads them as.
template <class P>
[[nodiscard, gnu::always_inline]] constexpr Unpacked decode(std::uint64_t bits) {
  bits &= P::mask;
  assert(bits != 0 && bits != P::nar_bits);
  Unpacked u;
  u.sign = (bits & P::sign_mask) != 0;
  const std::uint64_t body = u.sign ? ((~bits + 1) & P::mask) : bits;
  const std::uint64_t x = body << (65 - P::width);
  // A run of ones counts as the leading zeros of ~x: flip x by its top bit.
  const int ones = static_cast<int>(x >> 63);
  const int run = std::countl_zero(x ^ (std::uint64_t{0} - (x >> 63)));
  // Past the run and its terminator: two exponent bits, then the fraction.
  const std::uint64_t rest = x << (run + 1);
  // k = run - 1 for a run of ones, -run for a run of zeros.
  const int flip = ones - 1;  // 0 for ones, -1 for zeros
  const int k = ((run ^ flip) - flip) - ones;
  u.scale = 4 * k + static_cast<int>(rest >> 62);
  u.sig = (std::uint64_t{1} << kFracBits<P>) |
          ((rest << 2) >> (64 - kFracBits<P>));
  return u;
}

/// Round-pack a positive magnitude into posit format P and apply the sign.
/// `mag` is any nonzero 64-bit integer; the value is mag * 2^(scale_msb -
/// floor(log2 mag)), i.e. `scale_msb` is the unbiased exponent of mag's most
/// significant bit. `sticky` records nonzero discarded bits strictly below
/// mag's bit 0. Rounds RNE on the posit bit string and saturates to
/// maxpos/minpos (never to zero or NaR).
template <class P>
[[nodiscard, gnu::always_inline]] constexpr std::uint64_t round_pack(
    bool sign, int scale_msb, std::uint64_t mag, bool sticky) {
  assert(mag != 0);
  // Saturate outside the representable scale range. A nonzero value never
  // rounds to zero (below minpos clamps up) nor overflows into NaR.
  std::uint64_t body;
  if (scale_msb > P::max_scale) {
    body = P::maxpos_bits;
  } else if (scale_msb < P::min_scale) {
    body = P::minpos_bits;
  } else {
    // The bit string regime | exponent | fraction, left-aligned in 64 bits;
    // every bit that falls off its end joins the sticky.
    const std::uint64_t frac = (mag << std::countl_zero(mag)) << 1;
    const int k = scale_msb >> 2;  // floor(scale / 4)
    const int e = scale_msb & 3;
    // Regime: k >= 0 -> (k+1) ones then 0, k < 0 -> (-k) zeros then 1; in
    // both cases r + 1 run bits and a terminator, r = k for k >= 0 and
    // -k - 1 below. Flipping the run of ones gives the run of zeros.
    const int neg = k >> 31;  // 0 for k >= 0, -1 below
    const int r = k ^ neg;
    const int regime_bits = r + 2;
    const std::uint64_t regime =
        (~(~std::uint64_t{0} >> (r + 1)) ^ static_cast<std::uint64_t>(neg)) &
        ~(~std::uint64_t{0} >> regime_bits);
    const std::uint64_t tail =
        (static_cast<std::uint64_t>(e) << 62) | (frac >> 2);
    const std::uint64_t str = regime | (tail >> regime_bits);
    // Round once at the width-1 body bits at the top of the string.
    constexpr int cut = 65 - P::width;
    body = str >> cut;
    const std::uint64_t guard = (str >> (cut - 1)) & 1;
    // Below the guard: the tail past the body and guard (regime_bits <=
    // width), the fraction bit `tail` dropped, and the caller's sticky.
    const std::uint64_t below =
        (sticky || (frac & 2) != 0 ||
         (tail << (P::width - regime_bits)) != 0)
            ? 1
            : 0;
    body += guard & (below | (body & 1));
    // The only all-ones body (maxpos) has a zero guard (its regime
    // terminator), so the increment can never carry into the sign bit.
    assert(body <= P::maxpos_bits && body >= P::minpos_bits);
  }
  return (sign ? (~body + 1) : body) & P::mask;
}

/// Exact signed addition of two decoded posits (or a wider intermediate):
/// each operand is m * 2^e with m != 0 (e = exponent of bit 0). Produces
/// (sign, scale_msb, mag, sticky) for round_pack, or mag == 0 for exact zero.
struct Sum {
  bool sign = false;
  int scale_msb = 0;
  std::uint64_t mag = 0;
  bool sticky = false;
};

/// `m` with sign `neg` as a two's-complement integer (m < 2^63).
[[nodiscard, gnu::always_inline]] constexpr std::int64_t apply_sign(
    bool neg, std::uint64_t m) {
  const std::uint64_t s = neg ? 1 : 0;
  return static_cast<std::int64_t>((m ^ (std::uint64_t{0} - s)) + s);
}

[[nodiscard, gnu::always_inline]] constexpr Sum exact_add(
    bool sa, int ea, std::uint64_t ma, bool sb, int eb, std::uint64_t mb) {
  assert(ma != 0 && mb != 0);
  // Order so the first operand (hi) has the larger bit-0 exponent.
  const bool swap = ea < eb;
  const bool s_hi = swap ? sb : sa, s_lo = swap ? sa : sb;
  const int e_hi = swap ? eb : ea, e_lo = swap ? ea : eb;
  const std::uint64_t m_hi = swap ? mb : ma, m_lo = swap ? ma : mb;
  const int d = e_hi - e_lo;
  const int max_shift = 62 - std::bit_width(m_hi);
  Sum r;
  if (d <= max_shift) {
    // Alignment fits: the sum is exact in 64 bits.
    const std::int64_t v = apply_sign(s_hi, m_hi << d) + apply_sign(s_lo, m_lo);
    if (v == 0) return r;  // exact cancellation -> posit zero
    r.sign = v < 0;
    r.mag = static_cast<std::uint64_t>(r.sign ? -v : v);
    r.scale_msb = e_lo + std::bit_width(r.mag) - 1;
  } else {
    // Cap the left shift of the larger operand at the 64-bit headroom and
    // right-shift the smaller one the rest of the way, folding the dropped
    // tail into a sticky epsilon. Since the shifted `m_hi` has its MSB at
    // bit 61 and m_lo' occupies far fewer bits, the sum cannot cancel: its
    // sign is s_hi and its magnitude stays huge, so the epsilon only ever
    // adjusts the sticky region (borrow one ulp when the tail pulls against
    // the sum).
    const int lo_shift = d - max_shift;
    const std::uint64_t mbs = (lo_shift < 64) ? (m_lo >> lo_shift) : 0;
    const bool dropped =
        (lo_shift < 64) ? (m_lo & ((std::uint64_t{1} << lo_shift) - 1)) != 0
                        : m_lo != 0;
    const std::int64_t v =
        apply_sign(s_hi, m_hi << max_shift) + apply_sign(s_lo, mbs);
    std::uint64_t mag = static_cast<std::uint64_t>(v < 0 ? -v : v);
    if (dropped && s_lo != s_hi) --mag;
    r.sign = s_hi;
    r.mag = mag;
    r.scale_msb = (e_hi - max_shift) + std::bit_width(mag) - 1;
    r.sticky = dropped;
  }
  return r;
}

/// The exact product of two decoded posits: its hidden bit sits at 2T or
/// 2T+1 (T = kFracBits<P>), so its scale is the sum of theirs plus that
/// carry.
template <class P>
[[nodiscard, gnu::always_inline]] constexpr Sum exact_mul(const Unpacked& ua,
                                                         const Unpacked& ub) {
  constexpr int T = kFracBits<P>;
  Sum r;
  r.sign = ua.sign != ub.sign;
  r.mag = ua.sig * ub.sig;  // <= 2T + 2 <= 24 bits: exact
  r.scale_msb = ua.scale + ub.scale + static_cast<int>(r.mag >> (2 * T + 1));
  return r;
}

[[nodiscard]] constexpr std::uint64_t isqrt64(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int s = 31; s >= 0; --s) {
    const std::uint64_t t = r | (std::uint64_t{1} << s);
    if (t * t <= v) r = t;
  }
  return r;
}

}  // namespace posit_detail

// ---- classification --------------------------------------------------------

template <class P>
[[nodiscard]] constexpr bool posit_is_nar(std::uint64_t a) {
  return (a & P::mask) == P::nar_bits;
}
template <class P>
[[nodiscard]] constexpr bool posit_is_zero(std::uint64_t a) {
  return (a & P::mask) == 0;
}

/// FCLASS for posits, reusing the IEEE mask bits: NaR reports as quiet NaN,
/// zero as +0 (posits have a single unsigned zero), everything else as a
/// normal number of its sign. No posit is subnormal, infinite or signaling.
template <class P>
[[nodiscard]] constexpr std::uint16_t posit_classify(std::uint64_t a) {
  a &= P::mask;
  if (a == P::nar_bits) return static_cast<std::uint16_t>(FpClass::QuietNan);
  if (a == 0) return static_cast<std::uint16_t>(FpClass::PosZero);
  return static_cast<std::uint16_t>((a & P::sign_mask) ? FpClass::NegNormal
                                                       : FpClass::PosNormal);
}

// ---- exact widening to double ----------------------------------------------

/// Every posit8/posit16 value is exactly representable in binary64
/// (<= 13 significand bits, |scale| <= 56), so this widening is exact.
/// NaR widens to the canonical quiet NaN.
template <class P>
[[nodiscard, gnu::always_inline]] inline double posit_to_double(
    std::uint64_t a) {
  a &= P::mask;
  if (a == 0) return 0.0;
  if (a == P::nar_bits) return std::bit_cast<double>(F64::quiet_nan().bits);
  const auto u = posit_detail::decode<P>(a);
  double v = static_cast<double>(u.sig);
  const int e = u.scale - posit_detail::kFracBits<P>;
  // Scales stay within [-112, 112] even for wide intermediates; build the
  // power of two exactly via the binary64 exponent field.
  const double p2 = std::bit_cast<double>(
      static_cast<std::uint64_t>(1023 + e) << 52);
  v *= p2;
  return u.sign ? -v : v;
}

// ---- arithmetic (rounding mode ignored; no flags raised) -------------------
// add, sub, mul and fma force their decode, exact_add and round_pack inline,
// and are forced inline themselves: every scalar and packed entry that runs
// them (runtime.cpp) is then one function with no call per lane.

template <class P>
[[nodiscard, gnu::always_inline]] constexpr std::uint64_t posit_add(
    std::uint64_t a, std::uint64_t b) {
  a &= P::mask; b &= P::mask;
  if (a == P::nar_bits || b == P::nar_bits) return P::nar_bits;
  if (a == 0) return b;
  if (b == 0) return a;
  constexpr int T = posit_detail::kFracBits<P>;
  const auto ua = posit_detail::decode<P>(a);
  const auto ub = posit_detail::decode<P>(b);
  const auto s = posit_detail::exact_add(ua.sign, ua.scale - T, ua.sig,
                                         ub.sign, ub.scale - T, ub.sig);
  if (s.mag == 0) return 0;
  return posit_detail::round_pack<P>(s.sign, s.scale_msb, s.mag, s.sticky);
}

template <class P>
[[nodiscard]] constexpr std::uint64_t posit_neg(std::uint64_t a) {
  return (~a + 1) & P::mask;  // NaR and zero are their own negation
}

template <class P>
[[nodiscard, gnu::always_inline]] constexpr std::uint64_t posit_sub(
    std::uint64_t a, std::uint64_t b) {
  return posit_add<P>(a, posit_neg<P>(b));
}

template <class P>
[[nodiscard, gnu::always_inline]] constexpr std::uint64_t posit_mul(
    std::uint64_t a, std::uint64_t b) {
  a &= P::mask; b &= P::mask;
  if (a == P::nar_bits || b == P::nar_bits) return P::nar_bits;
  if (a == 0 || b == 0) return 0;
  const auto p = posit_detail::exact_mul<P>(posit_detail::decode<P>(a),
                                            posit_detail::decode<P>(b));
  return posit_detail::round_pack<P>(p.sign, p.scale_msb, p.mag, false);
}

template <class P>
[[nodiscard]] constexpr std::uint64_t posit_div(std::uint64_t a, std::uint64_t b) {
  a &= P::mask; b &= P::mask;
  if (a == P::nar_bits || b == P::nar_bits) return P::nar_bits;
  if (b == 0) return P::nar_bits;  // x/0 is NaR (posits have no infinity)
  if (a == 0) return 0;
  const auto ua = posit_detail::decode<P>(a);
  const auto ub = posit_detail::decode<P>(b);
  // 30 extra quotient bits: quotient >= 2^29, far above any rounding cut.
  const std::uint64_t num = ua.sig << 30;
  const std::uint64_t q = num / ub.sig;
  const bool sticky = (num % ub.sig) != 0;
  const int e = ua.scale - ub.scale - 30;
  return posit_detail::round_pack<P>(ua.sign != ub.sign,
                                     e + std::bit_width(q) - 1, q, sticky);
}

/// Fused multiply-add a*b + c with a single posit rounding. The product is
/// exact (<= 24 bits), the addition is exact-or-sticky via exact_add.
template <class P>
[[nodiscard, gnu::always_inline]] constexpr std::uint64_t posit_fma(
    std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  a &= P::mask; b &= P::mask; c &= P::mask;
  if (a == P::nar_bits || b == P::nar_bits || c == P::nar_bits)
    return P::nar_bits;
  if (a == 0 || b == 0) return c;
  constexpr int T = posit_detail::kFracBits<P>;
  const auto ua = posit_detail::decode<P>(a);
  const auto ub = posit_detail::decode<P>(b);
  const auto p = posit_detail::exact_mul<P>(ua, ub);
  if (c == 0) {
    return posit_detail::round_pack<P>(p.sign, p.scale_msb, p.mag, false);
  }
  const auto uc = posit_detail::decode<P>(c);
  const auto s = posit_detail::exact_add(p.sign, ua.scale + ub.scale - 2 * T,
                                         p.mag, uc.sign, uc.scale - T, uc.sig);
  if (s.mag == 0) return 0;
  return posit_detail::round_pack<P>(s.sign, s.scale_msb, s.mag, s.sticky);
}

template <class P>
[[nodiscard]] constexpr std::uint64_t posit_sqrt(std::uint64_t a) {
  a &= P::mask;
  if (a == P::nar_bits || (a & P::sign_mask)) return P::nar_bits;  // sqrt(<0)
  if (a == 0) return 0;
  const auto u = posit_detail::decode<P>(a);
  // Shift to an even bit-0 exponent with ~30 result bits: sqrt(m * 2^(2q))
  // = isqrt(m) * 2^q with the floor remainder folded into the sticky (the
  // square root of a non-square is irrational, so no exact midpoints exist).
  const int e = u.scale - posit_detail::kFracBits<P>;
  int s = 30;
  if ((e - s) & 1) ++s;
  const std::uint64_t m = u.sig << s;
  const std::uint64_t r = posit_detail::isqrt64(m);
  const bool sticky = r * r != m;
  const int eq = (e - s) / 2;
  return posit_detail::round_pack<P>(false, eq + std::bit_width(r) - 1, r,
                                     sticky);
}

// ---- comparisons and min/max -----------------------------------------------

/// Posit comparisons are exactly signed-integer comparisons of the patterns:
/// NaR (the most negative pattern) orders below every real value and equals
/// itself. No flags are raised (NaR is an ordered value, not a NaN).
template <class P>
[[nodiscard]] constexpr std::int64_t posit_signed(std::uint64_t a) {
  const std::uint64_t ext = (a & P::sign_mask) ? (~P::mask) : 0;
  return static_cast<std::int64_t>((a & P::mask) | ext);
}

template <class P>
[[nodiscard]] constexpr bool posit_eq(std::uint64_t a, std::uint64_t b) {
  return (a & P::mask) == (b & P::mask);
}
template <class P>
[[nodiscard]] constexpr bool posit_lt(std::uint64_t a, std::uint64_t b) {
  return posit_signed<P>(a) < posit_signed<P>(b);
}
template <class P>
[[nodiscard]] constexpr bool posit_le(std::uint64_t a, std::uint64_t b) {
  return posit_signed<P>(a) <= posit_signed<P>(b);
}

/// min/max follow the arithmetic convention: NaR propagates (unlike IEEE
/// fmin/fmax, which prefer the number -- posits have no quiet-NaN notion of
/// "missing data", NaR means the computation already failed).
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_min(std::uint64_t a, std::uint64_t b) {
  if (posit_is_nar<P>(a) || posit_is_nar<P>(b)) return P::nar_bits;
  return posit_lt<P>(a, b) ? (a & P::mask) : (b & P::mask);
}
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_max(std::uint64_t a, std::uint64_t b) {
  if (posit_is_nar<P>(a) || posit_is_nar<P>(b)) return P::nar_bits;
  return posit_lt<P>(a, b) ? (b & P::mask) : (a & P::mask);
}

// ---- sign manipulation -----------------------------------------------------

/// FSGNJ-family semantics under two's-complement negation: the magnitude of
/// rs1 with a sign derived from rs2's sign bit. Matches the FMV/FNEG/FABS
/// idioms (sgnj(a,a) = a, sgnjn(a,a) = -a, sgnjx(a,a) = |a|). |NaR| = NaR.
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_abs(std::uint64_t a) {
  a &= P::mask;
  return (a & P::sign_mask) && a != P::nar_bits ? posit_neg<P>(a) : a;
}
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_sgnj(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t m = posit_abs<P>(a);
  return (b & P::sign_mask) ? posit_neg<P>(m) : m;
}
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_sgnjn(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t m = posit_abs<P>(a);
  return (b & P::sign_mask) ? m : posit_neg<P>(m);
}
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_sgnjx(std::uint64_t a, std::uint64_t b) {
  a &= P::mask;
  return ((b & P::sign_mask) != 0) ? posit_neg<P>(a) : a;
}

// ---- integer conversions ---------------------------------------------------

/// FCVT.W semantics: round per rm, saturate with NV on overflow, NaR maps to
/// the most negative integer with NV (mirroring the IEEE NaN convention so
/// the ISA contract is uniform). Implemented by exact widening to binary64
/// and reusing the IEEE integer converter.
template <class P>
[[nodiscard]] inline std::int32_t posit_to_int32(std::uint64_t a, RoundingMode rm,
                                                 Flags& fl) {
  a &= P::mask;
  if (a == P::nar_bits) {
    fl.raise(Flags::NV);
    return std::numeric_limits<std::int32_t>::min();
  }
  const F64 w = from_host(posit_to_double<P>(a));
  return to_int32(w, rm, fl);
}

template <class P>
[[nodiscard]] inline std::uint32_t posit_to_uint32(std::uint64_t a,
                                                   RoundingMode rm, Flags& fl) {
  a &= P::mask;
  if (a == P::nar_bits) {
    fl.raise(Flags::NV);
    return std::numeric_limits<std::uint32_t>::max();
  }
  const F64 w = from_host(posit_to_double<P>(a));
  return to_uint32(w, rm, fl);
}

/// Integer -> posit: exact decompose then posit round-pack (RNE with
/// saturation; no flags, per the posit convention that arithmetic does not
/// trap). |v| <= 2^31 always fits posit16's scale range; posit8 saturates.
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_from_uint64(bool sign, std::uint64_t m) {
  if (m == 0) return 0;
  return posit_detail::round_pack<P>(sign, std::bit_width(m) - 1, m, false);
}
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_from_int32(std::int32_t v) {
  const bool sign = v < 0;
  const std::uint64_t m =
      sign ? (~static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) + 1) &
                 0xFFFFFFFFu
           : static_cast<std::uint64_t>(v);
  return posit_from_uint64<P>(sign, m);
}
template <class P>
[[nodiscard]] constexpr std::uint64_t posit_from_uint32(std::uint32_t v) {
  return posit_from_uint64<P>(false, v);
}

// ---- IEEE <-> posit and posit <-> posit conversions ------------------------

/// IEEE -> posit: NaN (any) and +-Inf map to NaR, +-0 to zero, every finite
/// value is decomposed exactly and posit-rounded (rm ignored, no flags).
template <class P, class F>
[[nodiscard]] constexpr std::uint64_t posit_from_ieee(Float<F> x) {
  if (x.is_nan() || x.is_inf()) return P::nar_bits;
  if (x.is_zero()) return 0;
  const bool sub = x.is_subnormal();
  const std::uint64_t m =
      x.man_field() | (sub ? 0 : (std::uint64_t{1} << F::man_bits));
  const int e = (sub ? F::emin : static_cast<int>(x.exp_field()) - F::bias) -
                F::man_bits;
  return posit_detail::round_pack<P>(x.sign(), e + std::bit_width(m) - 1, m,
                                     false);
}

/// posit -> IEEE: NaR maps to the canonical quiet NaN; finite values widen
/// exactly to binary64 then round once into F honouring rm and IEEE flags.
template <class F, class P>
[[nodiscard]] inline Float<F> posit_to_ieee(std::uint64_t a, RoundingMode rm,
                                            Flags& fl) {
  a &= P::mask;
  if (a == P::nar_bits) return Float<F>::quiet_nan();
  return from_double<F>(posit_to_double<P>(a), rm, fl);
}

/// posit -> posit resize: widening (8 -> 16) is exact; narrowing re-rounds.
template <class PTo, class PFrom>
[[nodiscard, gnu::always_inline]] constexpr std::uint64_t posit_resize(
    std::uint64_t a) {
  a &= PFrom::mask;
  if (a == 0) return 0;
  if (a == PFrom::nar_bits) return PTo::nar_bits;
  const auto u = posit_detail::decode<PFrom>(a);
  return posit_detail::round_pack<PTo>(u.sign, u.scale, u.sig, false);
}

}  // namespace sfrv::fp
