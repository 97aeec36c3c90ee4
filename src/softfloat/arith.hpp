// Correctly rounded arithmetic for all smallFloat formats.
//
// Algorithms follow the classical guard/round/sticky construction: operands
// are unpacked to normalized significands, the operation is performed with
// three extra rounding bits (sticky computed by jamming), and results are
// packed through round_pack(). Effective subtraction can cancel at most one
// leading bit whenever sticky information exists (exponent distance >= 2),
// which is the invariant that makes 3 rounding bits sufficient.
#pragma once

#include "softfloat/flags.hpp"
#include "softfloat/float.hpp"
#include "softfloat/roundpack.hpp"

namespace sfrv::fp {

/// Sign manipulation is a raw bit operation (never signals, preserves NaN
/// payloads) as specified for RISC-V FSGNJ*.
template <class F>
[[nodiscard]] constexpr Float<F> negate(Float<F> x) {
  return Float<F>::from_bits(x.bits ^ F::sign_mask);
}
template <class F>
[[nodiscard]] constexpr Float<F> abs(Float<F> x) {
  return Float<F>::from_bits(x.bits & F::abs_mask);
}
template <class F>
[[nodiscard]] constexpr Float<F> copy_sign(Float<F> x, Float<F> y) {
  return Float<F>::from_bits((x.bits & F::abs_mask) | (y.bits & F::sign_mask));
}
template <class F>
[[nodiscard]] constexpr Float<F> copy_sign_neg(Float<F> x, Float<F> y) {
  return Float<F>::from_bits((x.bits & F::abs_mask) |
                             ((y.bits ^ F::sign_mask) & F::sign_mask));
}
template <class F>
[[nodiscard]] constexpr Float<F> copy_sign_xor(Float<F> x, Float<F> y) {
  return Float<F>::from_bits(x.bits ^ (y.bits & F::sign_mask));
}

namespace detail {

/// Canonical-NaN propagation shared by the two-operand ops.
template <class F>
[[nodiscard]] constexpr Float<F> propagate_nan(Float<F> a, Float<F> b, Flags& fl) {
  if (a.is_signaling_nan() || b.is_signaling_nan()) fl.raise(Flags::NV);
  return Float<F>::quiet_nan();
}

/// Magnitude-ordered addition core. Inputs are finite, non-zero unpacked
/// values in GRS space (sig << kGrsBits, MSB at man_bits + kGrsBits).
template <class F>
[[nodiscard]] constexpr Float<F> add_magnitudes(bool sign, int e_big, u64 sig_big,
                                                int e_small, u64 sig_small,
                                                RoundingMode rm, Flags& fl) {
  constexpr int M = F::man_bits;
  sig_small = shift_right_sticky(sig_small, e_big - e_small);
  u64 sum = sig_big + sig_small;
  int e = e_big;
  if (sum >= (u64{1} << (M + 1 + kGrsBits))) {
    sum = shift_right_sticky(sum, 1);
    ++e;
  }
  return round_pack<F>(sign, e, sum, rm, fl);
}

/// Magnitude-ordered subtraction core; |big| > |small| strictly.
template <class F>
[[nodiscard]] constexpr Float<F> sub_magnitudes(bool sign, int e_big, u64 sig_big,
                                                int e_small, u64 sig_small,
                                                RoundingMode rm, Flags& fl) {
  constexpr int M = F::man_bits;
  sig_small = shift_right_sticky(sig_small, e_big - e_small);
  u64 diff = sig_big - sig_small;
  // Normalize left; when sticky may be set (distance >= 2) at most one bit
  // of cancellation can occur, so the GRS bits stay meaningful.
  const int msb = 63 - std::countl_zero(diff);
  const int target = M + kGrsBits;
  int e = e_big;
  if (msb < target) {
    diff <<= (target - msb);
    e -= (target - msb);
  }
  return round_pack<F>(sign, e, diff, rm, fl);
}

}  // namespace detail

template <class F>
[[nodiscard]] constexpr Float<F> add(Float<F> a, Float<F> b, RoundingMode rm,
                                     Flags& fl) {
  using namespace detail;
  if (a.is_nan() || b.is_nan()) return propagate_nan(a, b, fl);
  if (a.is_inf()) {
    if (b.is_inf() && a.sign() != b.sign()) {
      fl.raise(Flags::NV);
      return Float<F>::quiet_nan();
    }
    return a;
  }
  if (b.is_inf()) return b;
  if (a.is_zero() && b.is_zero()) {
    if (a.sign() == b.sign()) return a;
    return Float<F>::zero(rm == RoundingMode::RDN);
  }
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;

  Unpacked ua = unpack_finite(a);
  Unpacked ub = unpack_finite(b);
  ua.sig <<= kGrsBits;
  ub.sig <<= kGrsBits;

  // Order by magnitude.
  const bool a_ge_b =
      (ua.e > ub.e) || (ua.e == ub.e && ua.sig >= ub.sig);
  const Unpacked& big = a_ge_b ? ua : ub;
  const Unpacked& small = a_ge_b ? ub : ua;

  if (ua.sign == ub.sign) {
    return add_magnitudes<F>(ua.sign, big.e, big.sig, small.e, small.sig, rm, fl);
  }
  if (ua.e == ub.e && ua.sig == ub.sig) {
    // Exact cancellation: +0, except -0 when rounding down.
    return Float<F>::zero(rm == RoundingMode::RDN);
  }
  return detail::sub_magnitudes<F>(big.sign, big.e, big.sig, small.e, small.sig,
                                   rm, fl);
}

template <class F>
[[nodiscard]] constexpr Float<F> sub(Float<F> a, Float<F> b, RoundingMode rm,
                                     Flags& fl) {
  return add(a, negate(b), rm, fl);
}

template <class F>
[[nodiscard]] constexpr Float<F> mul(Float<F> a, Float<F> b, RoundingMode rm,
                                     Flags& fl) {
  using namespace detail;
  if (a.is_nan() || b.is_nan()) return propagate_nan(a, b, fl);
  const bool sign = a.sign() != b.sign();
  if (a.is_inf() || b.is_inf()) {
    if (a.is_zero() || b.is_zero()) {
      fl.raise(Flags::NV);
      return Float<F>::quiet_nan();
    }
    return Float<F>::inf(sign);
  }
  if (a.is_zero() || b.is_zero()) return Float<F>::zero(sign);

  constexpr int M = F::man_bits;
  const Unpacked ua = unpack_finite(a);
  const Unpacked ub = unpack_finite(b);
  u128 prod = u128{ua.sig} * ub.sig;  // in [2^2M, 2^(2M+2))
  const int msb = 127 - clz128(prod);
  const int e = ua.e + ub.e + (msb - 2 * M);
  const int sh = msb - (M + kGrsBits);
  u64 sig = 0;
  if (sh > 0) {
    sig = static_cast<u64>(shift_right_sticky128(prod, sh));
  } else {
    sig = static_cast<u64>(prod << (-sh));
  }
  return round_pack<F>(sign, e, sig, rm, fl);
}

template <class F>
[[nodiscard]] constexpr Float<F> div(Float<F> a, Float<F> b, RoundingMode rm,
                                     Flags& fl) {
  using namespace detail;
  if (a.is_nan() || b.is_nan()) return propagate_nan(a, b, fl);
  const bool sign = a.sign() != b.sign();
  if (a.is_inf()) {
    if (b.is_inf()) {
      fl.raise(Flags::NV);
      return Float<F>::quiet_nan();
    }
    return Float<F>::inf(sign);
  }
  if (b.is_inf()) return Float<F>::zero(sign);
  if (b.is_zero()) {
    if (a.is_zero()) {
      fl.raise(Flags::NV);
      return Float<F>::quiet_nan();
    }
    fl.raise(Flags::DZ);
    return Float<F>::inf(sign);
  }
  if (a.is_zero()) return Float<F>::zero(sign);

  constexpr int M = F::man_bits;
  const Unpacked ua = unpack_finite(a);
  const Unpacked ub = unpack_finite(b);
  const u128 num = u128{ua.sig} << (M + kGrsBits + 1);
  u64 q = static_cast<u64>(num / ub.sig);
  const bool rem = (num % ub.sig) != 0;
  int e = ua.e - ub.e;
  if (q >= (u64{1} << (M + kGrsBits + 1))) {
    q = shift_right_sticky(q, 1);
  } else {
    --e;
  }
  if (rem) q |= 1;
  return round_pack<F>(sign, e, q, rm, fl);
}

namespace detail {

[[nodiscard]] constexpr u128 isqrt128(u128 n) {
  u128 rem = n;
  u128 root = 0;
  u128 bit = u128{1} << 126;
  while (bit > n) bit >>= 2;
  while (bit != 0) {
    if (rem >= root + bit) {
      rem -= root + bit;
      root = (root >> 1) + bit;
    } else {
      root >>= 1;
    }
    bit >>= 2;
  }
  return root;
}

}  // namespace detail

template <class F>
[[nodiscard]] constexpr Float<F> sqrt(Float<F> a, RoundingMode rm, Flags& fl) {
  using namespace detail;
  if (a.is_nan()) {
    if (a.is_signaling_nan()) fl.raise(Flags::NV);
    return Float<F>::quiet_nan();
  }
  if (a.is_zero()) return a;  // sqrt(+-0) = +-0
  if (a.sign()) {
    fl.raise(Flags::NV);
    return Float<F>::quiet_nan();
  }
  if (a.is_inf()) return a;

  constexpr int M = F::man_bits;
  const Unpacked ua = unpack_finite(a);
  const int r = ua.e & 1;
  const int k = (ua.e - r) >> 1;
  const u128 scaled = u128{ua.sig} << (r + M + 2 * kGrsBits);
  u64 s = static_cast<u64>(isqrt128(scaled));
  if (u128{s} * s != scaled) s |= 1;  // jam remainder into sticky
  return round_pack<F>(false, k, s, rm, fl);
}

/// fma(a, b, c) when a or b is zero and all three are finite: the addend,
/// or, when it is a zero too, the common sign of product and addend; if the
/// signs differ, -0 under RDN and +0 otherwise. Exact, so no flags.
template <class F>
[[nodiscard]] constexpr Float<F> fma_zero_product(Float<F> a, Float<F> b,
                                                  Float<F> c, RoundingMode rm) {
  if (!c.is_zero()) return c;
  const bool ps = a.sign() != b.sign();
  return Float<F>::zero(ps == c.sign() ? ps : rm == RoundingMode::RDN);
}

/// Fused multiply-add: a * b + c with a single rounding.
/// Per the RISC-V spec, (0 * inf) + c raises NV even when c is a quiet NaN.
template <class F>
[[nodiscard]] constexpr Float<F> fma(Float<F> a, Float<F> b, Float<F> c,
                                     RoundingMode rm, Flags& fl) {
  using namespace detail;
  const bool mul_invalid = (a.is_inf() && b.is_zero()) || (a.is_zero() && b.is_inf());
  if (a.is_signaling_nan() || b.is_signaling_nan() || c.is_signaling_nan() ||
      mul_invalid) {
    fl.raise(Flags::NV);
    return Float<F>::quiet_nan();
  }
  if (a.is_nan() || b.is_nan() || c.is_nan()) return Float<F>::quiet_nan();

  const bool ps = a.sign() != b.sign();
  if (a.is_inf() || b.is_inf()) {
    if (c.is_inf() && c.sign() != ps) {
      fl.raise(Flags::NV);
      return Float<F>::quiet_nan();
    }
    return Float<F>::inf(ps);
  }
  if (c.is_inf()) return c;
  if (a.is_zero() || b.is_zero()) return fma_zero_product(a, b, c, rm);

  constexpr int M = F::man_bits;
  constexpr int K = 2 * M + 8;  // anchor bit for the wide accumulator

  const Unpacked ua = unpack_finite(a);
  const Unpacked ub = unpack_finite(b);
  const u128 prod = u128{ua.sig} * ub.sig;
  const int pmsb = 127 - clz128(prod);
  u128 wp = prod << (K - pmsb);
  const int ep = ua.e + ub.e + (pmsb - 2 * M);  // exponent of anchor bit for product

  bool have_c = !c.is_zero();
  u128 wc = 0;
  int ec_anchor = 0;
  bool cs = c.sign();
  if (have_c) {
    const Unpacked uc = unpack_finite(c);
    wc = u128{uc.sig} << (K - M);
    ec_anchor = uc.e;
    cs = uc.sign;
  }

  bool rsign = ps;
  u128 wsum = 0;
  int e_anchor = ep;
  if (!have_c) {
    wsum = wp;
  } else {
    // Align the smaller-exponent operand under the larger one.
    u128 big = wp, small = wc;
    bool big_sign = ps, small_sign = cs;
    int d = ep - ec_anchor;
    if (d < 0 || (d == 0 && wc > wp)) {
      big = wc;
      small = wp;
      big_sign = cs;
      small_sign = ps;
      e_anchor = ec_anchor;
      d = -d;
    }
    small = shift_right_sticky128(small, d);
    if (big_sign == small_sign) {
      wsum = big + small;
      rsign = big_sign;
    } else if (big == small) {
      return Float<F>::zero(rm == RoundingMode::RDN);  // exact cancellation
    } else {
      wsum = big - small;
      rsign = big_sign;
    }
  }

  const int msb = 127 - clz128(wsum);
  const int e = e_anchor + (msb - K);
  const int sh = msb - (M + kGrsBits);
  u64 sig = 0;
  if (sh > 0) {
    sig = static_cast<u64>(shift_right_sticky128(wsum, sh));
  } else {
    sig = static_cast<u64>(wsum << (-sh));
  }
  return round_pack<F>(rsign, e, sig, rm, fl);
}

}  // namespace sfrv::fp
