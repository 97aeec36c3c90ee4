// MathBackend::Fast: bit- and fflags-identical accelerated table entries.
//
// One technique: host binary64 arithmetic on an EXACT intermediate, narrowed
// once through the library's own single-rounding converter. binary8, binary16,
// binary16alt and binary32 are all subsets of binary64, so widening an operand
// is exact, and (see docs/formats.md for the full argument):
//   - add/sub/mul: for a format with precision p and exponent-field distance
//     d, the sum needs p + d + 1 significant bits, guarded to <= 53; the
//     product needs 2p <= 48.
//   - fma (and the packed mac/dotp/exsdotp built on it): the product plus
//     addend is exact whenever their combined bit span fits in 53 bits.
// Narrowing an exact value with one rounding is by definition the
// single-rounding result, and the flags come from that one rounding.
// Specials (NaN/inf/zero operands, apart from the fma's finite zeros, which
// are exact), FMA beyond its exactness guard, div/sqrt, f64 (the host width),
// both posit formats, and every other entry keep the Grs entries.
// The host FP environment must be in its default round-to-nearest mode; the
// simulator never changes it.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>

#include "softfloat/arith.hpp"
#include "softfloat/convert.hpp"
#include "softfloat/host.hpp"
#include "softfloat/runtime.hpp"

namespace sfrv::fp {

namespace {

template <class F>
Float<F> as(std::uint64_t bits) {
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

/// Exact widening to host double of a *any* bit pattern of F.
/// binary8 and binary16 go through 256- and 64K-entry tables (their layouts
/// need re-biasing work); binary16alt is a bfloat16, i.e. the high half of a
/// binary32; binary32 is a plain host float.
template <class F>
double widen(std::uint64_t bits) {
  if constexpr (std::is_same_v<F, Binary8>) {
    static const std::array<double, 256> t = [] {
      std::array<double, 256> a{};
      for (unsigned i = 0; i < 256; ++i) a[i] = to_double(as<Binary8>(i));
      return a;
    }();
    return t[bits & 0xff];
  } else if constexpr (std::is_same_v<F, Binary16>) {
    static const std::unique_ptr<const std::array<double, 65536>> t = [] {
      auto a = std::make_unique<std::array<double, 65536>>();
      for (unsigned i = 0; i < 65536; ++i) (*a)[i] = to_double(as<Binary16>(i));
      return a;
    }();
    return (*t)[bits & 0xffff];
  } else if constexpr (std::is_same_v<F, Binary16Alt>) {
    return static_cast<double>(std::bit_cast<float>(
        static_cast<std::uint32_t>(bits & 0xffff) << 16));
  } else {
    static_assert(std::is_same_v<F, Binary32>);
    return static_cast<double>(
        std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
}

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
  return from_double<F>(r, rm, fl).bits;
}

/// fast_fma's operands that are NaN, infinite or zero. Finite zeros are
/// exact: a zero product takes the Grs rule (fma_zero_product), and a zero
/// addend leaves the exact double product, rounded once. NaN and infinity
/// delegate to the Grs fma. Out of line, so that fast_fma stays small
/// enough to inline into the packed mac loop.
template <class F>
[[gnu::noinline]] std::uint64_t fast_fma_special(Float<F> a, Float<F> b,
                                                 Float<F> c, RoundingMode rm,
                                                 Flags& fl) {
  if (!a.is_finite() || !b.is_finite() || !c.is_finite()) {
    return fma(a, b, c, rm, fl).bits;
  }
  if (a.is_zero() || b.is_zero()) return fma_zero_product(a, b, c, rm).bits;
  return from_double<F>(widen<F>(a.bits) * widen<F>(b.bits), rm, fl).bits;
}

/// Fused multiply-add, fast when the double intermediate is provably EXACT.
/// The product of two p-bit values needs 2p <= 48 significant bits, so
/// da * db is always exact; the sum (a*b) + c is exact whenever the combined
/// bit span -- from the lower of the two scale exponents to the higher of
/// the two top bits, plus one carry bit -- fits in 53. Under the guard there
/// is no intermediate rounding at all, so narrowing the exact value is the
/// single rounding and carries the exact flags. Specials and zeros go to
/// fast_fma_special; wide-span operands delegate to the Grs fma. (For
/// binary8 the guard is provably always satisfied; for binary32 it admits
/// the accumulation case |a*b| ~ |c| that dominates the kernels.)
template <class F>
std::uint64_t fast_fma(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                       RoundingMode rm, Flags& fl) {
  const auto fa = as<F>(a);
  const auto fb = as<F>(b);
  const auto fc = as<F>(c);
  if (!fa.is_finite() || !fb.is_finite() || !fc.is_finite() || fa.is_zero() ||
      fb.is_zero() || fc.is_zero()) {
    return fast_fma_special<F>(fa, fb, fc, rm, fl);
  }
  constexpr int P = F::man_bits + 1;
  // Scale exponents share the offset 2 * (bias + man_bits): s1 for the
  // product, s2 for the addend. Subnormals (field 0) behave as field 1 with
  // a shorter significand, so the span bound stays an upper bound.
  const auto ee = [](unsigned f) { return f == 0 ? 1 : static_cast<int>(f); };
  const int s1 = ee(fa.exp_field()) + ee(fb.exp_field());
  const int s2 = ee(fc.exp_field()) + F::bias + F::man_bits;
  const int top = std::max(s1 + 2 * P, s2 + P);
  const int bot = std::min(s1, s2);
  if (top - bot > 52) return fma(fa, fb, fc, rm, fl).bits;
  const double r = widen<F>(a) * widen<F>(b) + widen<F>(c);
  // Exact cancellation of non-zero product and addend: Grs fma's zero rule.
  if (r == 0) return Float<F>::zero(rm == RoundingMode::RDN).bits;
  return from_double<F>(r, rm, fl).bits;
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

/// Exact widening of one lane to binary32 *bits* (operand known finite).
template <class F>
std::uint32_t widen_f32_bits(std::uint64_t bits) {
  if constexpr (std::is_same_v<F, Binary16Alt>) {
    return static_cast<std::uint32_t>(bits & 0xffff) << 16;
  } else {
    return std::bit_cast<std::uint32_t>(static_cast<float>(widen<F>(bits)));
  }
}

/// Expanding dot product: the Grs path converts each lane to binary32
/// (exact, flag-free for finite lanes) and chains binary32 fmas. The fast
/// path widens through tables/casts and runs the guarded-exact binary32 fma
/// per step; any non-finite lane falls back wholesale so NaN
/// canonicalization and NV stay with the Grs code.
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
  const std::uint32_t wb0 = widen_f32_bits<F>(b0);
  for (int l = 0; l < lanes; ++l) {
    const std::uint32_t wa =
        widen_f32_bits<F>((a >> (l * w)) & lane_mask<F>());
    const std::uint32_t wb =
        rep ? wb0 : widen_f32_bits<F>((b >> (l * w)) & lane_mask<F>());
    acc = fast_fma<Binary32>(wa, wb, acc, rm, fl);
  }
  return acc;
}

/// 16-bit -> binary32 widening: exact, so a host float cast of the exact
/// double suffices; NaNs delegate for canonicalization/NV.
template <class From>
std::uint64_t fast_widen_to_f32(std::uint64_t a, RoundingMode rm, Flags& fl) {
  const auto fa = as<From>(a);
  if (fa.is_nan()) return convert<Binary32>(fa, rm, fl).bits;
  return std::bit_cast<std::uint32_t>(static_cast<float>(widen<From>(a)));
}

/// ExSdotp fast entry: the exact widening runs through the Grs converter
/// (identical flags, including NV for signaling-NaN lanes), and each wide
/// accumulation step is the guarded-exact host fma -- which delegates its own
/// special/wide-span cases to Grs internally, so no wholesale fallback is
/// needed and the lane order matches the Grs entry step for step.
template <class F, class Wide>
std::uint64_t v_fast_exsdotp(std::uint64_t a, std::uint64_t b,
                             std::uint64_t acc, int lanes, bool rep,
                             RoundingMode rm, Flags& fl) {
  constexpr int w = F::width;
  std::uint64_t out = 0;
  std::uint64_t wb0 = 0;
  if (rep) {
    wb0 = convert<Wide>(as<F>(b & lane_mask<F>()), RoundingMode::RNE, fl).bits;
  }
  for (int wl = 0; 2 * wl < lanes; ++wl) {
    std::uint64_t accl = (acc >> (wl * Wide::width)) & lane_mask<Wide>();
    const int k = lanes - 2 * wl < 2 ? lanes - 2 * wl : 2;
    for (int i = 0; i < k; ++i) {
      const int l = 2 * wl + i;
      const std::uint64_t wa =
          convert<Wide>(as<F>((a >> (l * w)) & lane_mask<F>()),
                        RoundingMode::RNE, fl)
              .bits;
      const std::uint64_t wb =
          rep ? wb0
              : convert<Wide>(as<F>((b >> (l * w)) & lane_mask<F>()),
                              RoundingMode::RNE, fl)
                    .bits;
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
  // The 16-bit widenings to f32 are exact host casts; every other pair stays
  // on the Grs path.
  if (to == FpFormat::F32 && from == FpFormat::F16) {
    return &fast_widen_to_f32<Binary16>;
  }
  if (to == FpFormat::F32 && from == FpFormat::F16Alt) {
    return &fast_widen_to_f32<Binary16Alt>;
  }
  return rt_convert_fn(to, from);
}

}  // namespace detail

}  // namespace sfrv::fp
