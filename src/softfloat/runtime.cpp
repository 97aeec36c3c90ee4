#include "softfloat/runtime.hpp"

#include <array>
#include <iterator>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "softfloat/arith.hpp"
#include "softfloat/compare.hpp"
#include "softfloat/convert.hpp"
#include "softfloat/host.hpp"
#include "softfloat/posit.hpp"

namespace sfrv::fp {

namespace {

template <class F>
Float<F> as(std::uint64_t bits) {
  return Float<F>::from_bits(bits);
}

constexpr std::size_t fidx(FpFormat f) { return static_cast<std::size_t>(f); }

// ---- scalar table entries --------------------------------------------------
// One instantiation per (operation, format); the templated arithmetic is
// inlined into each entry so a bound pointer goes straight to the math.

template <class F, auto OpFn>
std::uint64_t s_bin(std::uint64_t a, std::uint64_t b, RoundingMode rm,
                    Flags& fl) {
  return OpFn(as<F>(a), as<F>(b), rm, fl).bits;
}

// Adapters giving flag-only and flag-less operations the common RtBinFn shape.
template <class F>
constexpr Float<F> min_rm(Float<F> a, Float<F> b, RoundingMode, Flags& fl) {
  return fmin(a, b, fl);
}
template <class F>
constexpr Float<F> max_rm(Float<F> a, Float<F> b, RoundingMode, Flags& fl) {
  return fmax(a, b, fl);
}
template <class F>
constexpr Float<F> sgnj_rm(Float<F> a, Float<F> b, RoundingMode, Flags&) {
  return copy_sign(a, b);
}
template <class F>
constexpr Float<F> sgnjn_rm(Float<F> a, Float<F> b, RoundingMode, Flags&) {
  return copy_sign_neg(a, b);
}
template <class F>
constexpr Float<F> sgnjx_rm(Float<F> a, Float<F> b, RoundingMode, Flags&) {
  return copy_sign_xor(a, b);
}

template <class F>
std::uint64_t s_fma(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                    RoundingMode rm, Flags& fl) {
  return fma(as<F>(a), as<F>(b), as<F>(c), rm, fl).bits;
}

template <class F>
std::uint64_t s_sqrt(std::uint64_t a, RoundingMode rm, Flags& fl) {
  return sqrt(as<F>(a), rm, fl).bits;
}

template <class F, auto CmpFn>
bool s_cmp(std::uint64_t a, std::uint64_t b, Flags& fl) {
  return CmpFn(as<F>(a), as<F>(b), fl);
}

template <class F>
std::uint16_t s_classify(std::uint64_t a) {
  return classify(as<F>(a));
}

template <class F>
std::int32_t s_to_int32(std::uint64_t a, RoundingMode rm, Flags& fl) {
  return to_int32(as<F>(a), rm, fl);
}

template <class F>
std::uint32_t s_to_uint32(std::uint64_t a, RoundingMode rm, Flags& fl) {
  return to_uint32(as<F>(a), rm, fl);
}

template <class F>
std::uint64_t s_from_int32(std::int32_t v, RoundingMode rm, Flags& fl) {
  return from_int32<F>(v, rm, fl).bits;
}

template <class F>
std::uint64_t s_from_uint32(std::uint32_t v, RoundingMode rm, Flags& fl) {
  return from_uint32<F>(v, rm, fl).bits;
}

template <class To, class From>
std::uint64_t s_convert(std::uint64_t a, RoundingMode rm, Flags& fl) {
  return convert<To>(as<From>(a), rm, fl).bits;
}

template <class F>
constexpr RtOps make_ops() {
  return RtOps{
      .add = &s_bin<F, &add<F>>,
      .sub = &s_bin<F, &sub<F>>,
      .mul = &s_bin<F, &mul<F>>,
      .div = &s_bin<F, &div<F>>,
      .min = &s_bin<F, &min_rm<F>>,
      .max = &s_bin<F, &max_rm<F>>,
      .sgnj = &s_bin<F, &sgnj_rm<F>>,
      .sgnjn = &s_bin<F, &sgnjn_rm<F>>,
      .sgnjx = &s_bin<F, &sgnjx_rm<F>>,
      .fma = &s_fma<F>,
      .sqrt = &s_sqrt<F>,
      .feq = &s_cmp<F, &feq<F>>,
      .flt = &s_cmp<F, &flt<F>>,
      .fle = &s_cmp<F, &fle<F>>,
      .classify = &s_classify<F>,
      .to_int32 = &s_to_int32<F>,
      .to_uint32 = &s_to_uint32<F>,
      .from_int32 = &s_from_int32<F>,
      .from_uint32 = &s_from_uint32<F>,
  };
}

// ---- posit scalar table entries --------------------------------------------
// Adapters giving the posit core (posit.hpp) the common Rt* signatures. Posit
// arithmetic has one rounding attitude (RNE on the pattern) and raises no
// arithmetic flags, so the RoundingMode argument is ignored throughout.

template <class P, auto OpFn>
std::uint64_t p_bin(std::uint64_t a, std::uint64_t b, RoundingMode, Flags&) {
  return OpFn(a, b);
}

template <class P>
std::uint64_t p_fma(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                    RoundingMode, Flags&) {
  return posit_fma<P>(a, b, c);
}

template <class P>
std::uint64_t p_sqrt(std::uint64_t a, RoundingMode, Flags&) {
  return posit_sqrt<P>(a);
}

template <class P, auto CmpFn>
bool p_cmp(std::uint64_t a, std::uint64_t b, Flags&) {
  return CmpFn(a, b);
}

template <class P>
std::int32_t p_to_int32(std::uint64_t a, RoundingMode rm, Flags& fl) {
  return posit_to_int32<P>(a, rm, fl);
}

template <class P>
std::uint32_t p_to_uint32(std::uint64_t a, RoundingMode rm, Flags& fl) {
  return posit_to_uint32<P>(a, rm, fl);
}

template <class P>
std::uint64_t p_from_int32(std::int32_t v, RoundingMode, Flags&) {
  return posit_from_int32<P>(v);
}

template <class P>
std::uint64_t p_from_uint32(std::uint32_t v, RoundingMode, Flags&) {
  return posit_from_uint32<P>(v);
}

// Conversion entries for the mixed rows of the convert table.
template <class To, class PFrom>
std::uint64_t p_to_ieee(std::uint64_t a, RoundingMode rm, Flags& fl) {
  return posit_to_ieee<To, PFrom>(a, rm, fl).bits;
}
template <class PTo, class From>
std::uint64_t p_from_ieee(std::uint64_t a, RoundingMode, Flags&) {
  return posit_from_ieee<PTo, From>(as<From>(a));
}
template <class PTo, class PFrom>
std::uint64_t p_resize(std::uint64_t a, RoundingMode, Flags&) {
  return posit_resize<PTo, PFrom>(a);
}

template <class P>
constexpr RtOps make_posit_ops() {
  return RtOps{
      .add = &p_bin<P, &posit_add<P>>,
      .sub = &p_bin<P, &posit_sub<P>>,
      .mul = &p_bin<P, &posit_mul<P>>,
      .div = &p_bin<P, &posit_div<P>>,
      .min = &p_bin<P, &posit_min<P>>,
      .max = &p_bin<P, &posit_max<P>>,
      .sgnj = &p_bin<P, &posit_sgnj<P>>,
      .sgnjn = &p_bin<P, &posit_sgnjn<P>>,
      .sgnjx = &p_bin<P, &posit_sgnjx<P>>,
      .fma = &p_fma<P>,
      .sqrt = &p_sqrt<P>,
      .feq = &p_cmp<P, &posit_eq<P>>,
      .flt = &p_cmp<P, &posit_lt<P>>,
      .fle = &p_cmp<P, &posit_le<P>>,
      .classify = &posit_classify<P>,
      .to_int32 = &p_to_int32<P>,
      .to_uint32 = &p_to_uint32<P>,
      .from_int32 = &p_from_int32<P>,
      .from_uint32 = &p_from_uint32<P>,
  };
}

constexpr RtOps kOps[] = {
    make_ops<Binary8>(),    make_ops<Binary16>(),     make_ops<Binary16Alt>(),
    make_ops<Binary32>(),   make_ops<Binary64>(),     make_posit_ops<Posit8>(),
    make_posit_ops<Posit16>(),
};
static_assert(std::size(kOps) == kNumFormats,
              "kOps needs one row per FpFormat tag");

// The convert table covers the full format cross product: IEEE<->IEEE via
// the templated converter, posit<->IEEE via the posit round-pack / exact
// double widening, posit<->posit via resize. Diagonal posit entries are the
// (exact) identity resize, mirroring the IEEE diagonal's exact self-convert.
//
// Aggregate init would value-initialize (to nullptr) any rows or entries a
// new format forgot to add, so rows and the table go through helpers that
// refuse to compile unless they get exactly one entry per format. (Counting
// instead of scanning for nullptr: comparing function pointers in a constant
// expression is rejected by GCC under -fsanitize=undefined.)
using CvtRow = std::array<RtCvtFn, kNumFormats>;

template <class... Fns>
constexpr CvtRow cvt_row(Fns... entries) {
  static_assert(sizeof...(entries) == kNumFormats,
                "a kCvt row must bind every source format");
  return {entries...};
}

template <class To>
constexpr CvtRow ieee_cvt_row() {
  return cvt_row(&s_convert<To, Binary8>, &s_convert<To, Binary16>,
                 &s_convert<To, Binary16Alt>, &s_convert<To, Binary32>,
                 &s_convert<To, Binary64>, &p_to_ieee<To, Posit8>,
                 &p_to_ieee<To, Posit16>);
}

template <class To>
constexpr CvtRow posit_cvt_row() {
  return cvt_row(&p_from_ieee<To, Binary8>, &p_from_ieee<To, Binary16>,
                 &p_from_ieee<To, Binary16Alt>, &p_from_ieee<To, Binary32>,
                 &p_from_ieee<To, Binary64>, &p_resize<To, Posit8>,
                 &p_resize<To, Posit16>);
}

template <class... Rows>
constexpr std::array<CvtRow, kNumFormats> cvt_table(Rows... rows) {
  static_assert(sizeof...(rows) == kNumFormats,
                "kCvt must have one row per destination format");
  return {rows...};
}

constexpr auto kCvt = cvt_table(
    ieee_cvt_row<Binary8>(), ieee_cvt_row<Binary16>(),
    ieee_cvt_row<Binary16Alt>(), ieee_cvt_row<Binary32>(),
    ieee_cvt_row<Binary64>(), posit_cvt_row<Posit8>(),
    posit_cvt_row<Posit16>());

// ---- packed-SIMD table entries ---------------------------------------------
// The lane loop lives inside each instantiation, so the element arithmetic is
// inlined with a compile-time lane width: one indirect call per instruction.

template <class F>
constexpr std::uint64_t lane_mask() {
  return F::width >= 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << F::width) - 1);
}

template <class F>
Float<F> lane(std::uint64_t v, int l) {
  return as<F>((v >> (l * F::width)) & lane_mask<F>());
}

template <class F, auto OpFn>
std::uint64_t v_bin(std::uint64_t a, std::uint64_t b, int lanes, bool rep,
                    RoundingMode rm, Flags& fl) {
  std::uint64_t out = 0;
  const Float<F> b0 = lane<F>(b, 0);
  for (int l = 0; l < lanes; ++l) {
    const Float<F> bl = rep ? b0 : lane<F>(b, l);
    out |= static_cast<std::uint64_t>(OpFn(lane<F>(a, l), bl, rm, fl).bits)
           << (l * F::width);
  }
  return out;
}

template <class F>
std::uint64_t v_mac(std::uint64_t a, std::uint64_t b, std::uint64_t d,
                    int lanes, bool rep, RoundingMode rm, Flags& fl) {
  std::uint64_t out = 0;
  const Float<F> b0 = lane<F>(b, 0);
  for (int l = 0; l < lanes; ++l) {
    const Float<F> bl = rep ? b0 : lane<F>(b, l);
    out |= static_cast<std::uint64_t>(
               fma(lane<F>(a, l), bl, lane<F>(d, l), rm, fl).bits)
           << (l * F::width);
  }
  return out;
}

template <class F>
std::uint64_t v_sqrt(std::uint64_t a, int lanes, RoundingMode rm, Flags& fl) {
  std::uint64_t out = 0;
  for (int l = 0; l < lanes; ++l) {
    out |= static_cast<std::uint64_t>(sqrt(lane<F>(a, l), rm, fl).bits)
           << (l * F::width);
  }
  return out;
}

/// Lanewise saturating conversion to a signed integer of the lane width.
template <class F>
std::uint64_t v_to_int(std::uint64_t a, int lanes, RoundingMode rm, Flags& fl) {
  constexpr int w = F::width;
  std::uint64_t out = 0;
  for (int l = 0; l < lanes; ++l) {
    std::int64_t r = to_int32(lane<F>(a, l), rm, fl);
    if constexpr (w < 32) {
      constexpr std::int64_t hi = (std::int64_t{1} << (w - 1)) - 1;
      constexpr std::int64_t lo = -hi - 1;
      if (r > hi) {
        r = hi;
        fl.raise(Flags::NV);
      } else if (r < lo) {
        r = lo;
        fl.raise(Flags::NV);
      }
    }
    out |= (static_cast<std::uint64_t>(r) & lane_mask<F>()) << (l * w);
  }
  return out;
}

/// Lanewise conversion from a sign-extended lane-width integer.
template <class F>
std::uint64_t v_from_int(std::uint64_t a, int lanes, RoundingMode rm,
                         Flags& fl) {
  constexpr int w = F::width;
  std::uint64_t out = 0;
  for (int l = 0; l < lanes; ++l) {
    std::int64_t v = static_cast<std::int64_t>((a >> (l * w)) & lane_mask<F>());
    if (w < 64 && (v & (std::int64_t{1} << (w - 1))) != 0) {
      v -= std::int64_t{1} << w;
    }
    out |= static_cast<std::uint64_t>(
               from_int32<F>(static_cast<std::int32_t>(v), rm, fl).bits)
           << (l * w);
  }
  return out;
}

template <class F, auto CmpFn>
std::uint32_t v_cmp(std::uint64_t a, std::uint64_t b, int lanes, Flags& fl) {
  std::uint32_t mask = 0;
  for (int l = 0; l < lanes; ++l) {
    if (CmpFn(lane<F>(a, l), lane<F>(b, l), fl)) mask |= 1u << l;
  }
  return mask;
}

template <class F>
std::uint64_t v_dotp(std::uint64_t a, std::uint64_t b, std::uint64_t acc32,
                     int lanes, bool rep, RoundingMode rm, Flags& fl) {
  F32 acc = as<Binary32>(acc32);
  F32 wb0{};
  if (rep) wb0 = convert<Binary32>(lane<F>(b, 0), RoundingMode::RNE, fl);
  for (int l = 0; l < lanes; ++l) {
    const F32 wa = convert<Binary32>(lane<F>(a, l), RoundingMode::RNE, fl);
    const F32 wb =
        rep ? wb0 : convert<Binary32>(lane<F>(b, l), RoundingMode::RNE, fl);
    acc = fma(wa, wb, acc, rm, fl);
  }
  return acc.bits;
}

/// ExSdotp: wide lane l of the packed accumulator takes two sequential
/// chained FMAs in the next-wider format, in narrow-lane order. The widening
/// conversion is exact for every supported (narrow, wide) pair, so the only
/// roundings are the two wide FMAs -- exactly the MiniFloat-NN datapath.
template <class F, class Wide>
std::uint64_t v_exsdotp(std::uint64_t a, std::uint64_t b, std::uint64_t acc,
                        int lanes, bool rep, RoundingMode rm, Flags& fl) {
  static_assert(Wide::width == 2 * F::width);
  std::uint64_t out = 0;
  Float<Wide> wb0{};
  if (rep) wb0 = convert<Wide>(lane<F>(b, 0), RoundingMode::RNE, fl);
  for (int wl = 0; 2 * wl < lanes; ++wl) {
    Float<Wide> accl = lane<Wide>(acc, wl);
    const int k = lanes - 2 * wl < 2 ? lanes - 2 * wl : 2;
    for (int i = 0; i < k; ++i) {
      const int l = 2 * wl + i;
      const Float<Wide> wa = convert<Wide>(lane<F>(a, l), RoundingMode::RNE, fl);
      const Float<Wide> wb =
          rep ? wb0 : convert<Wide>(lane<F>(b, l), RoundingMode::RNE, fl);
      accl = fma(wa, wb, accl, rm, fl);
    }
    out |= static_cast<std::uint64_t>(accl.bits) << (wl * Wide::width);
  }
  return out;
}

/// Trap entry for formats with no in-register wider neighbour (binary64,
/// posit16): no ISA opcode binds these, so a call is a decoder bug.
std::uint64_t v_exsdotp_invalid(std::uint64_t, std::uint64_t, std::uint64_t,
                                int, bool, RoundingMode, Flags&) {
  detail::invalid_format_tag();
}

// ---- posit packed-SIMD entries ---------------------------------------------
// Same lane-loop structure over raw posit patterns.

template <class P>
std::uint64_t plane(std::uint64_t v, int l) {
  return (v >> (l * P::width)) & P::mask;
}

template <class P, auto OpFn>
std::uint64_t vp_bin(std::uint64_t a, std::uint64_t b, int lanes, bool rep,
                     RoundingMode, Flags&) {
  std::uint64_t out = 0;
  const std::uint64_t b0 = plane<P>(b, 0);
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t bl = rep ? b0 : plane<P>(b, l);
    out |= OpFn(plane<P>(a, l), bl) << (l * P::width);
  }
  return out;
}

template <class P>
std::uint64_t vp_mac(std::uint64_t a, std::uint64_t b, std::uint64_t d,
                     int lanes, bool rep, RoundingMode, Flags&) {
  std::uint64_t out = 0;
  const std::uint64_t b0 = plane<P>(b, 0);
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t bl = rep ? b0 : plane<P>(b, l);
    out |= posit_fma<P>(plane<P>(a, l), bl, plane<P>(d, l)) << (l * P::width);
  }
  return out;
}

template <class P>
std::uint64_t vp_sqrt(std::uint64_t a, int lanes, RoundingMode, Flags&) {
  std::uint64_t out = 0;
  for (int l = 0; l < lanes; ++l) {
    out |= posit_sqrt<P>(plane<P>(a, l)) << (l * P::width);
  }
  return out;
}

/// Lanewise posit -> saturating signed integer of the lane width (NaR maps
/// to the most negative lane value with NV, mirroring the scalar contract).
template <class P>
std::uint64_t vp_to_int(std::uint64_t a, int lanes, RoundingMode rm, Flags& fl) {
  constexpr int w = P::width;
  std::uint64_t out = 0;
  for (int l = 0; l < lanes; ++l) {
    std::int64_t r = posit_to_int32<P>(plane<P>(a, l), rm, fl);
    constexpr std::int64_t hi = (std::int64_t{1} << (w - 1)) - 1;
    constexpr std::int64_t lo = -hi - 1;
    if (r > hi) {
      r = hi;
      fl.raise(Flags::NV);
    } else if (r < lo) {
      r = lo;
      fl.raise(Flags::NV);
    }
    out |= (static_cast<std::uint64_t>(r) & P::mask) << (l * w);
  }
  return out;
}

template <class P>
std::uint64_t vp_from_int(std::uint64_t a, int lanes, RoundingMode, Flags&) {
  constexpr int w = P::width;
  std::uint64_t out = 0;
  for (int l = 0; l < lanes; ++l) {
    std::int64_t v = static_cast<std::int64_t>((a >> (l * w)) & P::mask);
    if ((v & (std::int64_t{1} << (w - 1))) != 0) v -= std::int64_t{1} << w;
    out |= posit_from_int32<P>(static_cast<std::int32_t>(v)) << (l * w);
  }
  return out;
}

template <class P, auto CmpFn>
std::uint32_t vp_cmp(std::uint64_t a, std::uint64_t b, int lanes, Flags&) {
  std::uint32_t mask = 0;
  for (int l = 0; l < lanes; ++l) {
    if (CmpFn(plane<P>(a, l), plane<P>(b, l))) mask |= 1u << l;
  }
  return mask;
}

/// Expanding dot product into a scalar binary32 accumulator: posit lanes
/// widen exactly to binary32 (<= 13 significand bits, |scale| <= 56), then
/// the usual fused binary32 chain. NaR widens to NaN, poisoning the sum.
template <class P>
std::uint64_t vp_dotp(std::uint64_t a, std::uint64_t b, std::uint64_t acc32,
                      int lanes, bool rep, RoundingMode rm, Flags& fl) {
  F32 acc = as<Binary32>(acc32);
  F32 wb0{};
  if (rep) wb0 = posit_to_ieee<Binary32, P>(plane<P>(b, 0), RoundingMode::RNE, fl);
  for (int l = 0; l < lanes; ++l) {
    const F32 wa = posit_to_ieee<Binary32, P>(plane<P>(a, l), RoundingMode::RNE, fl);
    const F32 wb =
        rep ? wb0 : posit_to_ieee<Binary32, P>(plane<P>(b, l), RoundingMode::RNE, fl);
    acc = fma(wa, wb, acc, rm, fl);
  }
  return acc.bits;
}

/// Posit ExSdotp: posit8 pairs into packed posit16 accumulator lanes; the
/// widening resize is exact and each wide FMA rounds once in posit16.
template <class P, class PWide>
std::uint64_t vp_exsdotp(std::uint64_t a, std::uint64_t b, std::uint64_t acc,
                         int lanes, bool rep, RoundingMode, Flags&) {
  static_assert(PWide::width == 2 * P::width);
  std::uint64_t out = 0;
  const std::uint64_t wb0 = posit_resize<PWide, P>(plane<P>(b, 0));
  for (int wl = 0; 2 * wl < lanes; ++wl) {
    std::uint64_t accl = plane<PWide>(acc, wl);
    const int k = lanes - 2 * wl < 2 ? lanes - 2 * wl : 2;
    for (int i = 0; i < k; ++i) {
      const int l = 2 * wl + i;
      const std::uint64_t wa = posit_resize<PWide, P>(plane<P>(a, l));
      const std::uint64_t wb = rep ? wb0 : posit_resize<PWide, P>(plane<P>(b, l));
      accl = posit_fma<PWide>(wa, wb, accl);
    }
    out |= accl << (wl * PWide::width);
  }
  return out;
}

template <class F>
constexpr RtVecOps make_vec_ops() {
  // The one-step-wider neighbour for the exsdotp entry; binary64 has none.
  using Wide = std::conditional_t<
      std::is_same_v<F, Binary8>, Binary16,
      std::conditional_t<std::is_same_v<F, Binary16> ||
                             std::is_same_v<F, Binary16Alt>,
                         Binary32,
                         std::conditional_t<std::is_same_v<F, Binary32>,
                                            Binary64, void>>>;
  RtVecOps ops{
      .add = &v_bin<F, &add<F>>,
      .sub = &v_bin<F, &sub<F>>,
      .mul = &v_bin<F, &mul<F>>,
      .div = &v_bin<F, &div<F>>,
      .min = &v_bin<F, &min_rm<F>>,
      .max = &v_bin<F, &max_rm<F>>,
      .sgnj = &v_bin<F, &sgnj_rm<F>>,
      .sgnjn = &v_bin<F, &sgnjn_rm<F>>,
      .sgnjx = &v_bin<F, &sgnjx_rm<F>>,
      .mac = &v_mac<F>,
      .sqrt = &v_sqrt<F>,
      .to_int = &v_to_int<F>,
      .from_int = &v_from_int<F>,
      .feq = &v_cmp<F, &feq<F>>,
      .flt = &v_cmp<F, &flt<F>>,
      .fle = &v_cmp<F, &fle<F>>,
      .dotp = &v_dotp<F>,
      .exsdotp = &v_exsdotp_invalid,
  };
  if constexpr (!std::is_same_v<Wide, void>) {
    ops.exsdotp = &v_exsdotp<F, Wide>;
  }
  return ops;
}

template <class P>
constexpr RtVecOps make_posit_vec_ops() {
  RtVecOps ops{
      .add = &vp_bin<P, &posit_add<P>>,
      .sub = &vp_bin<P, &posit_sub<P>>,
      .mul = &vp_bin<P, &posit_mul<P>>,
      .div = &vp_bin<P, &posit_div<P>>,
      .min = &vp_bin<P, &posit_min<P>>,
      .max = &vp_bin<P, &posit_max<P>>,
      .sgnj = &vp_bin<P, &posit_sgnj<P>>,
      .sgnjn = &vp_bin<P, &posit_sgnjn<P>>,
      .sgnjx = &vp_bin<P, &posit_sgnjx<P>>,
      .mac = &vp_mac<P>,
      .sqrt = &vp_sqrt<P>,
      .to_int = &vp_to_int<P>,
      .from_int = &vp_from_int<P>,
      .feq = &vp_cmp<P, &posit_eq<P>>,
      .flt = &vp_cmp<P, &posit_lt<P>>,
      .fle = &vp_cmp<P, &posit_le<P>>,
      .dotp = &vp_dotp<P>,
      .exsdotp = &v_exsdotp_invalid,
  };
  if constexpr (std::is_same_v<P, Posit8>) {
    ops.exsdotp = &vp_exsdotp<Posit8, Posit16>;
  }
  return ops;
}

constexpr RtVecOps kVecOps[] = {
    make_vec_ops<Binary8>(),          make_vec_ops<Binary16>(),
    make_vec_ops<Binary16Alt>(),      make_vec_ops<Binary32>(),
    make_vec_ops<Binary64>(),         make_posit_vec_ops<Posit8>(),
    make_posit_vec_ops<Posit16>(),
};
static_assert(std::size(kVecOps) == kNumFormats,
              "kVecOps needs one row per FpFormat tag");

}  // namespace

// ---- backend selection ------------------------------------------------------

std::string_view backend_name(MathBackend b) {
  switch (b) {
    case MathBackend::Grs: return "grs";
    case MathBackend::Fast: return "fast";
  }
  return "grs";
}

MathBackend backend_from_name(std::string_view name) {
  for (const MathBackend b : {MathBackend::Grs, MathBackend::Fast}) {
    if (name == backend_name(b)) return b;
  }
  throw std::runtime_error("unknown backend name: " + std::string(name));
}

// Same out-of-range policy as dispatch_format: assert in debug, declared
// unreachable in release (which also lets the bounds check compile away).
const RtOps& rt_ops(FpFormat f) {
  if (fidx(f) >= std::size(kOps)) detail::invalid_format_tag();
  return kOps[fidx(f)];
}

const RtVecOps& rt_vec_ops(FpFormat f) {
  if (fidx(f) >= std::size(kVecOps)) detail::invalid_format_tag();
  return kVecOps[fidx(f)];
}

RtCvtFn rt_convert_fn(FpFormat to, FpFormat from) {
  // Dimensions derive from kNumFormats (static_asserts above); the bounds
  // check must track them so a new format can't silently index out of range.
  if (fidx(to) >= std::size(kCvt) || fidx(from) >= std::size(kCvt[0]))
    detail::invalid_format_tag();
  return kCvt[fidx(to)][fidx(from)];
}

const RtOps& rt_ops(FpFormat f, MathBackend b) {
  return b == MathBackend::Fast ? detail::fast_ops(f) : rt_ops(f);
}

const RtVecOps& rt_vec_ops(FpFormat f, MathBackend b) {
  return b == MathBackend::Fast ? detail::fast_vec_ops(f) : rt_vec_ops(f);
}

RtCvtFn rt_convert_fn(FpFormat to, FpFormat from, MathBackend b) {
  return b == MathBackend::Fast ? detail::fast_convert_fn(to, from)
                                : rt_convert_fn(to, from);
}

// ---- per-call wrappers -----------------------------------------------------

std::uint64_t rt_add(FpFormat f, std::uint64_t a, std::uint64_t b, RoundingMode rm,
                     Flags& fl) {
  return rt_ops(f).add(a, b, rm, fl);
}

std::uint64_t rt_sub(FpFormat f, std::uint64_t a, std::uint64_t b, RoundingMode rm,
                     Flags& fl) {
  return rt_ops(f).sub(a, b, rm, fl);
}

std::uint64_t rt_mul(FpFormat f, std::uint64_t a, std::uint64_t b, RoundingMode rm,
                     Flags& fl) {
  return rt_ops(f).mul(a, b, rm, fl);
}

std::uint64_t rt_div(FpFormat f, std::uint64_t a, std::uint64_t b, RoundingMode rm,
                     Flags& fl) {
  return rt_ops(f).div(a, b, rm, fl);
}

std::uint64_t rt_sqrt(FpFormat f, std::uint64_t a, RoundingMode rm, Flags& fl) {
  return rt_ops(f).sqrt(a, rm, fl);
}

std::uint64_t rt_fma(FpFormat f, std::uint64_t a, std::uint64_t b, std::uint64_t c,
                     RoundingMode rm, Flags& fl) {
  return rt_ops(f).fma(a, b, c, rm, fl);
}

std::uint64_t rt_min(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl) {
  return rt_ops(f).min(a, b, RoundingMode::RNE, fl);
}

std::uint64_t rt_max(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl) {
  return rt_ops(f).max(a, b, RoundingMode::RNE, fl);
}

std::uint64_t rt_sgnj(FpFormat f, std::uint64_t a, std::uint64_t b) {
  Flags fl;
  return rt_ops(f).sgnj(a, b, RoundingMode::RNE, fl);
}

std::uint64_t rt_sgnjn(FpFormat f, std::uint64_t a, std::uint64_t b) {
  Flags fl;
  return rt_ops(f).sgnjn(a, b, RoundingMode::RNE, fl);
}

std::uint64_t rt_sgnjx(FpFormat f, std::uint64_t a, std::uint64_t b) {
  Flags fl;
  return rt_ops(f).sgnjx(a, b, RoundingMode::RNE, fl);
}

bool rt_feq(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl) {
  return rt_ops(f).feq(a, b, fl);
}

bool rt_flt(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl) {
  return rt_ops(f).flt(a, b, fl);
}

bool rt_fle(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl) {
  return rt_ops(f).fle(a, b, fl);
}

std::uint16_t rt_classify(FpFormat f, std::uint64_t a) {
  return rt_ops(f).classify(a);
}

std::uint64_t rt_convert(FpFormat to, FpFormat from, std::uint64_t a,
                         RoundingMode rm, Flags& fl) {
  return rt_convert_fn(to, from)(a, rm, fl);
}

std::int32_t rt_to_int32(FpFormat f, std::uint64_t a, RoundingMode rm, Flags& fl) {
  return rt_ops(f).to_int32(a, rm, fl);
}

std::uint32_t rt_to_uint32(FpFormat f, std::uint64_t a, RoundingMode rm,
                           Flags& fl) {
  return rt_ops(f).to_uint32(a, rm, fl);
}

std::uint64_t rt_from_int32(FpFormat f, std::int32_t v, RoundingMode rm,
                            Flags& fl) {
  return rt_ops(f).from_int32(v, rm, fl);
}

std::uint64_t rt_from_uint32(FpFormat f, std::uint32_t v, RoundingMode rm,
                             Flags& fl) {
  return rt_ops(f).from_uint32(v, rm, fl);
}

double rt_to_double(FpFormat f, std::uint64_t a) {
  if (f == FpFormat::P8) return posit_to_double<Posit8>(a);
  if (f == FpFormat::P16) return posit_to_double<Posit16>(a);
  return dispatch_format(
      f, [&]<class F>() -> double { return to_double(as<F>(a)); });
}

std::uint64_t rt_from_double(FpFormat f, double v, RoundingMode rm, Flags& fl) {
  // Posit rounding needs an exact input; a host double IS exact, so decompose
  // it through binary64 and round once into the posit (rm is ignored by the
  // posit convention, flags are untouched).
  if (is_posit_format(f)) {
    const Float<Binary64> w = from_host(v);
    const std::uint64_t bits =
        (f == FpFormat::P8) ? posit_from_ieee<Posit8, Binary64>(w)
                            : posit_from_ieee<Posit16, Binary64>(w);
    (void)rm;
    return bits;
  }
  return dispatch_format(f, [&]<class F>() -> std::uint64_t {
    return from_double<F>(v, rm, fl).bits;
  });
}

}  // namespace sfrv::fp
