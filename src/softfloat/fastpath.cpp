// MathBackend::Fast: bit- and fflags-identical accelerated table entries.
//
// One technique: host binary64 arithmetic on an EXACT intermediate, rounded
// once into the format: inline when the mode is RNE and the result is a
// normal number, through the library's own single-rounding converter in
// every other case (exact::narrow, softfloat/exact.hpp). binary8, binary16,
// binary16alt and binary32 are all subsets of binary64, so widening an operand
// is exact, and (see docs/formats.md for the full argument):
//   - add/sub/mul: for a format with precision p and exponent-field distance
//     d, the sum needs p + d + 1 significant bits, guarded to <= 53; the
//     product needs 2p <= 48.
//   - fma (and the packed mac/dotp/exsdotp built on it): the product is
//     exact; the sum with the addend is exact or, rounded to odd with its
//     TwoSum error, stands in for the exact value.
// Narrowing an exact value with one rounding is by definition the
// single-rounding result, and the flags come from that one rounding.
// Specials (NaN/inf/zero operands, apart from the fma's finite zeros, which
// are exact), div/sqrt, f64 (the host width), both posit formats, and every
// other entry keep the Grs entries.
// The host FP environment must be in its default round-to-nearest mode; the
// simulator never changes it.
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "softfloat/arith.hpp"
#include "softfloat/convert.hpp"
#include "softfloat/exact.hpp"
#include "softfloat/host.hpp"
#include "softfloat/runtime.hpp"

namespace sfrv::fp {

namespace {

using exact::fill_widen_tables;
using exact::narrow;
using exact::widen;

template <class F>
constexpr Float<F> as(std::uint64_t bits) {
  return Float<F>::from_bits(bits);
}

constexpr std::size_t fidx(FpFormat f) { return static_cast<std::size_t>(f); }

enum class HOp : std::uint8_t { Add, Sub, Mul };

template <class F>
struct FmtTag;
template <>
struct FmtTag<Binary8> {
  static constexpr FpFormat value = FpFormat::F8;
};
template <>
struct FmtTag<Binary16> {
  static constexpr FpFormat value = FpFormat::F16;
};
template <>
struct FmtTag<Binary16Alt> {
  static constexpr FpFormat value = FpFormat::F16Alt;
};
template <>
struct FmtTag<Binary32> {
  static constexpr FpFormat value = FpFormat::F32;
};

/// Grs recomputation for the delegated cases.
template <class F, HOp Op>
std::uint64_t grs_bin(Float<F> a, Float<F> b, RoundingMode rm, Flags& fl) {
  if constexpr (Op == HOp::Add) return add(a, b, rm, fl).bits;
  if constexpr (Op == HOp::Sub) return sub(a, b, rm, fl).bits;
  if constexpr (Op == HOp::Mul) return mul(a, b, rm, fl).bits;
}

template <class F, HOp Op>
std::uint64_t fast_bin(std::uint64_t a, std::uint64_t b, RoundingMode rm,
                       Flags& fl) {
  const auto fa = as<F>(a);
  const auto fb = as<F>(b);
  // Specials take the Grs path: NaN propagation/canonicalization, inf and
  // signed-zero rules live once, there.
  if (!fa.is_finite() || !fb.is_finite() || fa.is_zero() || fb.is_zero()) {
    return grs_bin<F, Op>(fa, fb, rm, fl);
  }
  if constexpr (Op == HOp::Add || Op == HOp::Sub) {
    // The double sum must be exact: with p = man_bits + 1 significand bits
    // and exponent-field distance d it needs p + d + 1 <= 53 bits. Only the
    // wide-exponent formats (f16alt, f32) can exceed that.
    const int ea = fa.exp_field() == 0 ? 1 : static_cast<int>(fa.exp_field());
    const int eb = fb.exp_field() == 0 ? 1 : static_cast<int>(fb.exp_field());
    const int d = ea > eb ? ea - eb : eb - ea;
    if (d > 52 - (F::man_bits + 1)) return grs_bin<F, Op>(fa, fb, rm, fl);
  }
  const double da = widen<F>(a);
  const double db = widen<F>(b);
  double r;
  if constexpr (Op == HOp::Add) {
    r = da + db;
  } else if constexpr (Op == HOp::Sub) {
    r = da - db;
  } else {
    r = da * db;
  }
  if constexpr (Op == HOp::Add || Op == HOp::Sub) {
    // The sum is exact here, so r == 0 is exact cancellation of non-zero
    // operands: +0, except -0 when rounding down (the Grs add rule). The
    // host sign of r must not be trusted (host RNE gives +0 always).
    if (r == 0) return Float<F>::zero(rm == RoundingMode::RDN).bits;
  }
  return narrow<F>(r, rm, fl);
}

/// fast_fma's operands that are NaN or infinite, or a zero product. A zero
/// product takes the Grs rule (fma_zero_product); NaN and infinity delegate
/// to the Grs fma. Out of line, so that fast_fma stays small enough to
/// inline into the packed mac loop.
template <class F>
[[gnu::noinline]] std::uint64_t fast_fma_special(Float<F> a, Float<F> b,
                                                 Float<F> c, RoundingMode rm,
                                                 Flags& fl) {
  if (!a.is_finite() || !b.is_finite() || !c.is_finite()) {
    return fma(a, b, c, rm, fl).bits;
  }
  return fma_zero_product(a, b, c, rm).bits;
}

/// The rounding error of the double sum s = x + y (TwoSum): x + y equals
/// s + err exactly, whatever the operands' order or magnitudes.
[[gnu::always_inline]] inline double two_sum_err(double x, double y,
                                                 double s) {
  const double yv = s - x;
  const double xv = s - yv;
  return (x - xv) + (y - yv);
}

/// The exact value s + err (s the nearest double, err != 0) rounded to odd
/// at double precision: truncated toward zero -- s itself, or its neighbour
/// toward zero when err points that way -- with its last bit set. Rounding
/// that double once more into a format of at most 51 bits, in any mode,
/// gives the exact value's correct rounding and flags (Boldo and
/// Melquiond's rounding to odd).
[[gnu::always_inline]] inline double round_to_odd(double s, double err) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(s);
  if (std::signbit(s) != std::signbit(err)) --bits;
  return std::bit_cast<double>(bits | 1);
}

/// Fused multiply-add through one host double sum. The product of two p-bit
/// values needs 2p <= 48 significant bits, so da * db is exact; the sum
/// (a*b) + c is the nearest double r, and TwoSum recovers its exact error.
/// When the error is zero r is the exact value; otherwise r rounded to odd
/// stands in for it. Either way narrowing r is the single rounding and
/// carries the exact flags. NaN/infinite operands and zero products go to
/// fast_fma_special; a zero addend leaves the exact product. Forced inline
/// into the packed mac, dotp and exsdotp lane loops.
template <class F>
[[gnu::always_inline]] inline std::uint64_t fast_fma(std::uint64_t a,
                                                     std::uint64_t b,
                                                     std::uint64_t c,
                                                     RoundingMode rm,
                                                     Flags& fl) {
  const auto fa = as<F>(a);
  const auto fb = as<F>(b);
  const auto fc = as<F>(c);
  if (!fa.is_finite() || !fb.is_finite() || !fc.is_finite() || fa.is_zero() ||
      fb.is_zero()) {
    return fast_fma_special<F>(fa, fb, fc, rm, fl);
  }
  const double p = widen<F>(a) * widen<F>(b);
  const double d = widen<F>(c);
  double r = p + d;
  // Exact cancellation of non-zero product and addend: Grs fma's zero rule.
  if (r == 0) return Float<F>::zero(rm == RoundingMode::RDN).bits;
  const double err = two_sum_err(p, d, r);
  if (err != 0) r = round_to_odd(r, err);
  return narrow<F>(r, rm, fl);
}

template <class F>
constexpr std::uint64_t lane_mask() {
  return F::width >= 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << F::width) - 1);
}

template <class F, HOp Op>
std::uint64_t v_fast_bin(std::uint64_t a, std::uint64_t b, int lanes, bool rep,
                         RoundingMode rm, Flags& fl) {
  constexpr int w = F::width;
  std::uint64_t out = 0;
  const std::uint64_t b0 = b & lane_mask<F>();
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t al = (a >> (l * w)) & lane_mask<F>();
    const std::uint64_t bl = rep ? b0 : ((b >> (l * w)) & lane_mask<F>());
    out |= fast_bin<F, Op>(al, bl, rm, fl) << (l * w);
  }
  return out;
}

template <class F>
std::uint64_t v_fast_mac(std::uint64_t a, std::uint64_t b, std::uint64_t d,
                         int lanes, bool rep, RoundingMode rm, Flags& fl) {
  constexpr int w = F::width;
  std::uint64_t out = 0;
  const std::uint64_t b0 = b & lane_mask<F>();
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t al = (a >> (l * w)) & lane_mask<F>();
    const std::uint64_t bl = rep ? b0 : ((b >> (l * w)) & lane_mask<F>());
    const std::uint64_t dl = (d >> (l * w)) & lane_mask<F>();
    out |= fast_fma<F>(al, bl, dl, rm, fl) << (l * w);
  }
  return out;
}

/// Exact widening of one lane to the bits of the wider format Wide (binary16
/// or binary32), for any pattern but a NaN. binary8 has binary16's exponent
/// field and bias, so it widens to binary16 by a shift, as binary16alt
/// (a bfloat16) does to binary32.
template <class F, class Wide>
[[gnu::always_inline]] inline std::uint64_t widen_bits(std::uint64_t bits) {
  if constexpr (std::is_same_v<F, Binary8> && std::is_same_v<Wide, Binary16>) {
    return (bits & 0xff) << 8;
  } else if constexpr (std::is_same_v<F, Binary16Alt>) {
    static_assert(std::is_same_v<Wide, Binary32>);
    return (bits & 0xffff) << 16;
  } else {
    static_assert(std::is_same_v<Wide, Binary32>);
    return std::bit_cast<std::uint32_t>(static_cast<float>(widen<F>(bits)));
  }
}

/// A NaN lane's widening: the GRS converter's canonical NaN, with NV for a
/// signaling one.
template <class F, class Wide>
[[gnu::noinline]] std::uint64_t grs_cvt(std::uint64_t bits, Flags& fl) {
  return convert<Wide>(as<F>(bits), RoundingMode::RNE, fl).bits;
}

/// Exact widening of one lane of any pattern to the bits of Wide: a NaN
/// through the GRS converter, everything else by widen_bits.
template <class F, class Wide>
[[gnu::always_inline]] inline std::uint64_t widen_lane(std::uint64_t bits,
                                                       Flags& fl) {
  return as<F>(bits).is_nan() ? grs_cvt<F, Wide>(bits, fl)
                              : widen_bits<F, Wide>(bits);
}

/// Expanding dot product: the Grs path converts each lane to binary32
/// (exact, flag-free for finite lanes) and chains binary32 fmas. The fast
/// path widens through tables/casts and runs the fast binary32 fma per
/// step; any non-finite lane falls back wholesale so NaN canonicalization
/// and NV stay with the Grs code.
template <class F>
std::uint64_t v_fast_dotp(std::uint64_t a, std::uint64_t b,
                          std::uint64_t acc32, int lanes, bool rep,
                          RoundingMode rm, Flags& fl) {
  constexpr int w = F::width;
  const auto grs_dotp = rt_vec_ops(FmtTag<F>::value).dotp;
  const std::uint64_t b0 = b & lane_mask<F>();
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t al = (a >> (l * w)) & lane_mask<F>();
    const std::uint64_t bl = rep ? b0 : ((b >> (l * w)) & lane_mask<F>());
    if (!as<F>(al).is_finite() || !as<F>(bl).is_finite()) {
      return grs_dotp(a, b, acc32, lanes, rep, rm, fl);
    }
  }
  std::uint64_t acc = acc32;
  const std::uint64_t wb0 = widen_bits<F, Binary32>(b0);
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t wa =
        widen_bits<F, Binary32>((a >> (l * w)) & lane_mask<F>());
    const std::uint64_t wb =
        rep ? wb0 : widen_bits<F, Binary32>((b >> (l * w)) & lane_mask<F>());
    acc = fast_fma<Binary32>(wa, wb, acc, rm, fl);
  }
  return acc;
}

/// FP -> FP conversion between two of the host-exact formats: the exact
/// lane widening where To is the wider format, else the exact double
/// rounded once; a NaN delegates for canonicalization/NV.
template <class To, class From>
std::uint64_t fast_cvt(std::uint64_t a, RoundingMode rm, Flags& fl) {
  if constexpr (std::is_same_v<To, Binary32> ||
                (std::is_same_v<From, Binary8> &&
                 std::is_same_v<To, Binary16>)) {
    return widen_lane<From, To>(a, fl);
  } else {
    if (as<From>(a).is_nan()) return grs_cvt<From, To>(a, fl);
    return narrow<To>(widen<From>(a), rm, fl);
  }
}

/// ExSdotp fast entry: each lane widens exactly (a NaN lane through the GRS
/// converter, for its canonical NaN and NV), and each wide accumulation step
/// is the fast fma -- which delegates its own special cases to Grs
/// internally, so no wholesale fallback is needed and the lane order
/// matches the Grs entry step for step.
template <class F, class Wide>
std::uint64_t v_fast_exsdotp(std::uint64_t a, std::uint64_t b,
                             std::uint64_t acc, int lanes, bool rep,
                             RoundingMode rm, Flags& fl) {
  constexpr int w = F::width;
  std::uint64_t out = 0;
  const std::uint64_t wb0 =
      rep ? widen_lane<F, Wide>(b & lane_mask<F>(), fl) : 0;
  for (int wl = 0; 2 * wl < lanes; ++wl) {
    std::uint64_t accl = (acc >> (wl * Wide::width)) & lane_mask<Wide>();
    const int k = lanes - 2 * wl < 2 ? lanes - 2 * wl : 2;
    for (int i = 0; i < k; ++i) {
      const int l = 2 * wl + i;
      const std::uint64_t wa =
          widen_lane<F, Wide>((a >> (l * w)) & lane_mask<F>(), fl);
      const std::uint64_t wb =
          rep ? wb0
              : widen_lane<F, Wide>((b >> (l * w)) & lane_mask<F>(), fl);
      accl = fast_fma<Wide>(wa, wb, accl, rm, fl);
    }
    out |= accl << (wl * Wide::width);
  }
  return out;
}

// ---- table assembly ---------------------------------------------------------

template <class F>
RtOps make_host_fast_ops(FpFormat tag) {
  RtOps o = rt_ops(tag);  // everything unproven keeps the Grs entry
  o.add = &fast_bin<F, HOp::Add>;
  o.sub = &fast_bin<F, HOp::Sub>;
  o.mul = &fast_bin<F, HOp::Mul>;
  o.fma = &fast_fma<F>;
  return o;
}

/// `Wide` is the exsdotp accumulator format: the next-wider neighbour.
template <class F, class Wide>
RtVecOps make_host_fast_vec_ops(FpFormat tag) {
  RtVecOps o = rt_vec_ops(tag);
  o.add = &v_fast_bin<F, HOp::Add>;
  o.sub = &v_fast_bin<F, HOp::Sub>;
  o.mul = &v_fast_bin<F, HOp::Mul>;
  o.mac = &v_fast_mac<F>;
  o.dotp = &v_fast_dotp<F>;
  o.exsdotp = &v_fast_exsdotp<F, Wide>;
  return o;
}

}  // namespace

namespace detail {

const RtOps& fast_ops(FpFormat f) {
  fill_widen_tables();
  static const RtOps kFastOps[] = {
      make_host_fast_ops<Binary8>(FpFormat::F8),
      make_host_fast_ops<Binary16>(FpFormat::F16),
      make_host_fast_ops<Binary16Alt>(FpFormat::F16Alt),
      make_host_fast_ops<Binary32>(FpFormat::F32),
      rt_ops(FpFormat::F64),  // binary64 IS the host width: Grs throughout
      // Posits: the integer-exact core serves both backends.
      rt_ops(FpFormat::P8),
      rt_ops(FpFormat::P16),
  };
  static_assert(std::size(kFastOps) == kNumFormats,
                "fast_ops needs one row per FpFormat tag");
  if (fidx(f) >= std::size(kFastOps)) invalid_format_tag();
  return kFastOps[fidx(f)];
}

const RtVecOps& fast_vec_ops(FpFormat f) {
  fill_widen_tables();
  static const RtVecOps kFastVecOps[] = {
      make_host_fast_vec_ops<Binary8, Binary16>(FpFormat::F8),
      make_host_fast_vec_ops<Binary16, Binary32>(FpFormat::F16),
      make_host_fast_vec_ops<Binary16Alt, Binary32>(FpFormat::F16Alt),
      rt_vec_ops(FpFormat::F32),  // no packed ISA ops exist for f32/f64
      rt_vec_ops(FpFormat::F64),
      rt_vec_ops(FpFormat::P8),  // see fast_ops: Grs serves both posits
      rt_vec_ops(FpFormat::P16),
  };
  static_assert(std::size(kFastVecOps) == kNumFormats,
                "fast_vec_ops needs one row per FpFormat tag");
  if (fidx(f) >= std::size(kFastVecOps)) invalid_format_tag();
  return kFastVecOps[fidx(f)];
}

RtCvtFn fast_convert_fn(FpFormat to, FpFormat from) {
  if (fidx(to) >= static_cast<std::size_t>(kNumFormats) ||
      fidx(from) >= static_cast<std::size_t>(kNumFormats))
    invalid_format_tag();
  fill_widen_tables();
  // Between two distinct formats of binary8, binary16, binary16alt and
  // binary32 (the first four tags), the exact double is rounded once; every
  // other pair (the diagonal, binary64 and the posits) stays on the Grs
  // path.
  using Row = std::array<RtCvtFn, 4>;
  const auto row = []<class To>() {
    return Row{&fast_cvt<To, Binary8>, &fast_cvt<To, Binary16>,
               &fast_cvt<To, Binary16Alt>, &fast_cvt<To, Binary32>};
  };
  static const std::array<Row, 4> kFastCvt = {
      row.template operator()<Binary8>(), row.template operator()<Binary16>(),
      row.template operator()<Binary16Alt>(),
      row.template operator()<Binary32>()};
  if (to == from || fidx(to) >= kFastCvt.size() ||
      fidx(from) >= kFastCvt.size()) {
    return rt_convert_fn(to, from);
  }
  return kFastCvt[fidx(to)][fidx(from)];
}

}  // namespace detail

}  // namespace sfrv::fp
