// MathBackend::Fast: bit- and fflags-identical accelerated table entries.
//
// Two techniques, chosen per (operation, format) by whether identity with
// the guard/round/sticky path can be *proven*:
//
//  * binary8 -- the whole operand space is 256 patterns, so every binary
//    operation is an exhaustive 256x256 LUT per rounding mode (result byte +
//    fflags byte packed in a uint16), and unary ops / compares / converts are
//    256-entry (or 65536-entry for the f16->f8 direction) tables. The tables
//    are generated on first use FROM the Grs routines, so they are correct by
//    construction; the exhaustive equivalence suite re-checks every entry.
//
//  * f16 / f16alt / f32 -- host binary64 arithmetic with the result narrowed
//    through the library's own single-rounding converter. The argument (see
//    docs/formats.md for the full version):
//      - add/sub/mul: the double intermediate is EXACT (for a format with
//        precision p and exponent-field distance d, the sum needs p + d + 1
//        significant bits, guarded to <= 53; the product needs 2p <= 48).
//        Narrowing an exact value with one rounding is by definition the
//        single-rounding result, and the flags come from that one rounding.
//      - div/sqrt: the host result is correctly rounded to 53 >= 2p + 2 bits,
//        and quotients/roots of p-bit operands lie outside an exclusion zone
//        of relative width 2^-(2p+2) around every p-bit breakpoint unless
//        exactly representable (Figueroa), so the second rounding and the
//        NX decision are unchanged. Subnormal-range quotients fall back to
//        Grs rather than stretching the argument.
//    Specials (NaN/inf/zero operands), FMA (no exclusion zone), f64 (the
//    host width), and every unproven case delegate to the Grs entries.
//    The host FP environment must be in its default round-to-nearest mode;
//    the simulator never changes it.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "softfloat/arith.hpp"
#include "softfloat/compare.hpp"
#include "softfloat/convert.hpp"
#include "softfloat/host.hpp"
#include "softfloat/posit.hpp"
#include "softfloat/runtime.hpp"

namespace sfrv::fp {

namespace {

template <class F>
Float<F> as(std::uint64_t bits) {
  return Float<F>::from_bits(bits);
}

constexpr std::size_t fidx(FpFormat f) { return static_cast<std::size_t>(f); }

constexpr int kNumRm = 5;

// ---- binary8 exhaustive LUTs ------------------------------------------------
// Entry layout for 8-bit results: result byte | fflags byte << 8.

struct F8BinLut {
  std::uint16_t e[256 * 256];
};
struct F8UnRmLut {
  std::uint16_t e[kNumRm][256];
};

/// Lazily published per-rounding-mode table planes: each (op, rm) plane is
/// generated on first use (a few milliseconds each, not per-process-start)
/// and installed with a release CAS; the losing racer's copy is dropped.
/// Planes are never freed -- they back static-duration function tables.
struct LazyPlanes {
  std::atomic<const std::uint16_t*> p[kNumRm]{};

  template <class Fill>
  const std::uint16_t* get(RoundingMode rm, std::size_t n, Fill fill) {
    const int i = static_cast<int>(rm);
    if (const std::uint16_t* q = p[i].load(std::memory_order_acquire)) {
      return q;
    }
    auto fresh = std::make_unique<std::uint16_t[]>(n);
    fill(rm, fresh.get());
    const std::uint16_t* expect = nullptr;
    if (p[i].compare_exchange_strong(expect, fresh.get(),
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
      return fresh.release();
    }
    return expect;
  }
};

/// Exhaustive 256x256 plane for one two-operand Grs routine in one mode.
template <auto OpFn>
const std::uint16_t* f8_bin_plane(RoundingMode rm) {
  static LazyPlanes planes;
  return planes.get(rm, 256 * 256, [](RoundingMode mode, std::uint16_t* t) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        Flags fl;
        const auto r = OpFn(as<Binary8>(a), as<Binary8>(b), mode, fl);
        t[(a << 8) | b] = static_cast<std::uint16_t>(r.bits | (fl.bits << 8));
      }
    }
  });
}

template <auto OpFn>
std::uint64_t f8_bin(std::uint64_t a, std::uint64_t b, RoundingMode rm,
                     Flags& fl) {
  const std::uint16_t e = f8_bin_plane<OpFn>(rm)[((a & 0xff) << 8) | (b & 0xff)];
  fl.bits |= static_cast<std::uint8_t>(e >> 8);
  return e & 0xff;
}

/// Rounding-mode-independent table (min/max, compares).
template <auto OpFn>
const F8BinLut& f8_norm_lut() {
  static const std::unique_ptr<const F8BinLut> lut = [] {
    auto t = std::make_unique<F8BinLut>();
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        Flags fl;
        const auto r = OpFn(as<Binary8>(a), as<Binary8>(b), fl);
        std::uint8_t res;
        if constexpr (std::is_same_v<decltype(r), const bool>) {
          res = r ? 1 : 0;
        } else {
          res = r.bits;
        }
        t->e[(a << 8) | b] = static_cast<std::uint16_t>(res | (fl.bits << 8));
      }
    }
    return t;
  }();
  return *lut;
}

// fmin/fmax have deduced non-const return; wrap them so decltype is stable.
constexpr F8 f8_min(F8 a, F8 b, Flags& fl) { return fmin(a, b, fl); }
constexpr F8 f8_max(F8 a, F8 b, Flags& fl) { return fmax(a, b, fl); }
constexpr bool f8_feq(F8 a, F8 b, Flags& fl) { return feq(a, b, fl); }
constexpr bool f8_flt(F8 a, F8 b, Flags& fl) { return flt(a, b, fl); }
constexpr bool f8_fle(F8 a, F8 b, Flags& fl) { return fle(a, b, fl); }

template <auto OpFn>
std::uint64_t f8_minmax(std::uint64_t a, std::uint64_t b, RoundingMode,
                        Flags& fl) {
  const std::uint16_t e = f8_norm_lut<OpFn>().e[((a & 0xff) << 8) | (b & 0xff)];
  fl.bits |= static_cast<std::uint8_t>(e >> 8);
  return e & 0xff;
}

template <auto CmpFn>
bool f8_cmp(std::uint64_t a, std::uint64_t b, Flags& fl) {
  const std::uint16_t e = f8_norm_lut<CmpFn>().e[((a & 0xff) << 8) | (b & 0xff)];
  fl.bits |= static_cast<std::uint8_t>(e >> 8);
  return (e & 1) != 0;
}

const F8UnRmLut& f8_sqrt_lut() {
  static const F8UnRmLut lut = [] {
    F8UnRmLut t{};
    for (int rm = 0; rm < kNumRm; ++rm) {
      for (unsigned a = 0; a < 256; ++a) {
        Flags fl;
        const F8 r = sqrt(as<Binary8>(a), static_cast<RoundingMode>(rm), fl);
        t.e[rm][a] = static_cast<std::uint16_t>(r.bits | (fl.bits << 8));
      }
    }
    return t;
  }();
  return lut;
}

std::uint64_t f8_sqrt(std::uint64_t a, RoundingMode rm, Flags& fl) {
  const std::uint16_t e = f8_sqrt_lut().e[static_cast<int>(rm)][a & 0xff];
  fl.bits |= static_cast<std::uint8_t>(e >> 8);
  return e & 0xff;
}

std::uint16_t f8_classify(std::uint64_t a) {
  static const std::array<std::uint16_t, 256> lut = [] {
    std::array<std::uint16_t, 256> t{};
    for (unsigned i = 0; i < 256; ++i) t[i] = classify(as<Binary8>(i));
    return t;
  }();
  return lut[a & 0xff];
}

/// FP -> int32/uint32: 256 inputs x 5 rounding modes, value + flags.
template <class Int, Int (*Fn)(F8, RoundingMode, Flags&)>
struct F8ToIntLut {
  Int v[kNumRm][256];
  std::uint8_t fl[kNumRm][256];

  static const F8ToIntLut& get() {
    static const F8ToIntLut lut = [] {
      F8ToIntLut t{};
      for (int rm = 0; rm < kNumRm; ++rm) {
        for (unsigned a = 0; a < 256; ++a) {
          Flags fl;
          t.v[rm][a] = Fn(as<Binary8>(a), static_cast<RoundingMode>(rm), fl);
          t.fl[rm][a] = fl.bits;
        }
      }
      return t;
    }();
    return lut;
  }
};

std::int32_t f8_to_i32(std::uint64_t a, RoundingMode rm, Flags& fl) {
  const auto& t = F8ToIntLut<std::int32_t, &to_int32<Binary8>>::get();
  fl.bits |= t.fl[static_cast<int>(rm)][a & 0xff];
  return t.v[static_cast<int>(rm)][a & 0xff];
}

std::uint32_t f8_to_u32(std::uint64_t a, RoundingMode rm, Flags& fl) {
  const auto& t = F8ToIntLut<std::uint32_t, &to_uint32<Binary8>>::get();
  fl.bits |= t.fl[static_cast<int>(rm)][a & 0xff];
  return t.v[static_cast<int>(rm)][a & 0xff];
}

// ---- binary8 conversion LUTs ------------------------------------------------

/// f8 -> wider format: widening is exact, so the table is rounding-mode
/// independent (flags only fire for a signaling NaN input).
template <class To>
struct F8WidenLut {
  typename To::Storage bits[256];
  std::uint8_t fl[256];

  static const F8WidenLut& get() {
    static const F8WidenLut lut = [] {
      F8WidenLut t{};
      for (unsigned a = 0; a < 256; ++a) {
        Flags fl;
        t.bits[a] = convert<To>(as<Binary8>(a), RoundingMode::RNE, fl).bits;
        t.fl[a] = fl.bits;
      }
      return t;
    }();
    return lut;
  }
};

template <class To>
std::uint64_t f8_widen_cvt(std::uint64_t a, RoundingMode, Flags& fl) {
  const auto& t = F8WidenLut<To>::get();
  fl.bits |= t.fl[a & 0xff];
  return t.bits[a & 0xff];
}

/// 16-bit format -> f8: exhaustive over the 65536 source patterns per mode.
template <class From>
const std::uint16_t* f8_narrow_plane(RoundingMode rm) {
  static LazyPlanes planes;
  return planes.get(rm, 65536, [](RoundingMode mode, std::uint16_t* t) {
    for (unsigned a = 0; a < 65536; ++a) {
      Flags fl;
      const F8 r = convert<Binary8>(as<From>(a), mode, fl);
      t[a] = static_cast<std::uint16_t>(r.bits | (fl.bits << 8));
    }
  });
}

template <class From>
std::uint64_t f8_narrow_cvt(std::uint64_t a, RoundingMode rm, Flags& fl) {
  const std::uint16_t e = f8_narrow_plane<From>(rm)[a & 0xffff];
  fl.bits |= static_cast<std::uint8_t>(e >> 8);
  return e & 0xff;
}

// ---- binary8 packed-lane entries --------------------------------------------

/// Shared lane loop over a 256x256 result+flags table.
std::uint64_t v_f8_lanes(const std::uint16_t* t, std::uint64_t a,
                         std::uint64_t b, int lanes, bool rep, Flags& fl) {
  std::uint64_t out = 0;
  unsigned acc = 0;
  const unsigned b0 = static_cast<unsigned>(b & 0xff);
  for (int l = 0; l < lanes; ++l) {
    const unsigned al = static_cast<unsigned>((a >> (8 * l)) & 0xff);
    const unsigned bl =
        rep ? b0 : static_cast<unsigned>((b >> (8 * l)) & 0xff);
    const std::uint16_t e = t[(al << 8) | bl];
    acc |= e >> 8;
    out |= static_cast<std::uint64_t>(e & 0xff) << (8 * l);
  }
  fl.bits |= static_cast<std::uint8_t>(acc);
  return out;
}

template <auto OpFn>
std::uint64_t v_f8_bin(std::uint64_t a, std::uint64_t b, int lanes, bool rep,
                       RoundingMode rm, Flags& fl) {
  return v_f8_lanes(f8_bin_plane<OpFn>(rm), a, b, lanes, rep, fl);
}

template <auto OpFn>
std::uint64_t v_f8_minmax(std::uint64_t a, std::uint64_t b, int lanes, bool rep,
                          RoundingMode, Flags& fl) {
  return v_f8_lanes(f8_norm_lut<OpFn>().e, a, b, lanes, rep, fl);
}

std::uint64_t v_f8_sqrt(std::uint64_t a, int lanes, RoundingMode rm,
                        Flags& fl) {
  const std::uint16_t* t = f8_sqrt_lut().e[static_cast<int>(rm)];
  std::uint64_t out = 0;
  unsigned acc = 0;
  for (int l = 0; l < lanes; ++l) {
    const std::uint16_t e = t[(a >> (8 * l)) & 0xff];
    acc |= e >> 8;
    out |= static_cast<std::uint64_t>(e & 0xff) << (8 * l);
  }
  fl.bits |= static_cast<std::uint8_t>(acc);
  return out;
}

template <auto CmpFn>
std::uint32_t v_f8_cmp(std::uint64_t a, std::uint64_t b, int lanes, Flags& fl) {
  const std::uint16_t* t = f8_norm_lut<CmpFn>().e;
  std::uint32_t mask = 0;
  unsigned acc = 0;
  for (int l = 0; l < lanes; ++l) {
    const unsigned al = static_cast<unsigned>((a >> (8 * l)) & 0xff);
    const unsigned bl = static_cast<unsigned>((b >> (8 * l)) & 0xff);
    const std::uint16_t e = t[(al << 8) | bl];
    acc |= e >> 8;
    if ((e & 1) != 0) mask |= 1u << l;
  }
  fl.bits |= static_cast<std::uint8_t>(acc);
  return mask;
}

// ---- host-double fast path (f16 / f16alt / f32) -----------------------------

enum class HOp : std::uint8_t { Add, Sub, Mul, Div };

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
/// binary16 goes through a 64K table (its layout needs re-biasing work);
/// binary16alt is a bfloat16, i.e. the high half of a binary32; binary32 is
/// a plain host float.
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
  if constexpr (Op == HOp::Div) return div(a, b, rm, fl).bits;
}

/// 2^(F::emin + 1) as a host double: the fast division path delegates
/// subnormal-range quotients below this bound back to Grs.
template <class F>
constexpr double subnormal_guard() {
  return std::bit_cast<double>(
      static_cast<std::uint64_t>(1023 + F::emin + 1) << 52);
}

template <class F, HOp Op>
std::uint64_t fast_bin(std::uint64_t a, std::uint64_t b, RoundingMode rm,
                       Flags& fl) {
  const auto fa = as<F>(a);
  const auto fb = as<F>(b);
  // Specials take the Grs path: NaN propagation/canonicalization, inf and
  // signed-zero rules (including DZ for division) live once, there.
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
  } else if constexpr (Op == HOp::Mul) {
    r = da * db;
  } else {
    r = da / db;
  }
  if constexpr (Op == HOp::Add || Op == HOp::Sub) {
    // The sum is exact here, so r == 0 is exact cancellation of non-zero
    // operands: +0, except -0 when rounding down (the Grs add rule). The
    // host sign of r must not be trusted (host RNE gives +0 always).
    if (r == 0) return Float<F>::zero(rm == RoundingMode::RDN).bits;
  }
  if constexpr (Op == HOp::Div) {
    // Subnormal-range quotients: the exclusion-zone argument thins out with
    // the reduced precision; recompute rather than prove.
    if (r < subnormal_guard<F>() && r > -subnormal_guard<F>()) {
      return grs_bin<F, Op>(fa, fb, rm, fl);
    }
  }
  return from_double<F>(r, rm, fl).bits;
}

template <class F>
std::uint64_t fast_sqrt(std::uint64_t a, RoundingMode rm, Flags& fl) {
  const auto fa = as<F>(a);
  if (!fa.is_finite() || fa.is_zero() || fa.sign()) {
    return sqrt(fa, rm, fl).bits;
  }
  // Positive finite: host sqrt is correctly rounded to 53 >= 2p + 2 bits and
  // the result is always in the normal range of F.
  return from_double<F>(std::sqrt(widen<F>(a)), rm, fl).bits;
}

/// Fused multiply-add, fast when the double intermediate is provably EXACT.
/// The product of two p-bit values needs 2p <= 48 significant bits, so
/// da * db is always exact; the sum (a*b) + c is exact whenever the combined
/// bit span -- from the lower of the two scale exponents to the higher of
/// the two top bits, plus one carry bit -- fits in 53. Under the guard there
/// is no intermediate rounding at all, so narrowing the exact value is the
/// single rounding and carries the exact flags. Specials, zeros and
/// wide-span operands delegate to the Grs fma. (For binary8 the guard is
/// provably always satisfied; for binary32 it admits the accumulation case
/// |a*b| ~ |c| that dominates the kernels.)
template <class F>
std::uint64_t fast_fma(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                       RoundingMode rm, Flags& fl) {
  const auto fa = as<F>(a);
  const auto fb = as<F>(b);
  const auto fc = as<F>(c);
  if (!fa.is_finite() || !fb.is_finite() || !fc.is_finite() || fa.is_zero() ||
      fb.is_zero() || fc.is_zero()) {
    return fma(fa, fb, fc, rm, fl).bits;
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
std::uint64_t v_fast_sqrt(std::uint64_t a, int lanes, RoundingMode rm,
                          Flags& fl) {
  constexpr int w = F::width;
  std::uint64_t out = 0;
  for (int l = 0; l < lanes; ++l) {
    out |= fast_sqrt<F>((a >> (l * w)) & lane_mask<F>(), rm, fl) << (l * w);
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

// ---- posit8 exhaustive LUTs -------------------------------------------------
// Posit arithmetic has one rounding attitude and raises no flags, so a single
// 256x256 result plane per operation covers the entire operand space (the
// binary8 plane generator's layout, minus the per-rm and flags dimensions).
// Generated from the integer-exact posit core, so correct by construction;
// the exhaustive posit8 suite re-checks every entry against the oracle.

template <auto OpFn>
const std::uint8_t* p8_bin_lut() {
  static const std::unique_ptr<const std::uint8_t[]> lut = [] {
    auto t = std::make_unique<std::uint8_t[]>(256 * 256);
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        t[(a << 8) | b] = static_cast<std::uint8_t>(OpFn(a, b));
      }
    }
    return t;
  }();
  return lut.get();
}

template <auto OpFn>
std::uint64_t p8_bin(std::uint64_t a, std::uint64_t b, RoundingMode, Flags&) {
  return p8_bin_lut<OpFn>()[((a & 0xff) << 8) | (b & 0xff)];
}

template <auto CmpFn>
bool p8_cmp(std::uint64_t a, std::uint64_t b, Flags&) {
  return p8_bin_lut<CmpFn>()[((a & 0xff) << 8) | (b & 0xff)] != 0;
}

std::uint64_t p8_sqrt(std::uint64_t a, RoundingMode, Flags&) {
  static const std::array<std::uint8_t, 256> lut = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned i = 0; i < 256; ++i)
      t[i] = static_cast<std::uint8_t>(posit_sqrt<Posit8>(i));
    return t;
  }();
  return lut[a & 0xff];
}

template <auto OpFn>
std::uint64_t v_p8_bin(std::uint64_t a, std::uint64_t b, int lanes, bool rep,
                       RoundingMode, Flags&) {
  const std::uint8_t* t = p8_bin_lut<OpFn>();
  std::uint64_t out = 0;
  const unsigned b0 = static_cast<unsigned>(b & 0xff);
  for (int l = 0; l < lanes; ++l) {
    const unsigned al = static_cast<unsigned>((a >> (8 * l)) & 0xff);
    const unsigned bl = rep ? b0 : static_cast<unsigned>((b >> (8 * l)) & 0xff);
    out |= static_cast<std::uint64_t>(t[(al << 8) | bl]) << (8 * l);
  }
  return out;
}

template <auto CmpFn>
std::uint32_t v_p8_cmp(std::uint64_t a, std::uint64_t b, int lanes, Flags&) {
  const std::uint8_t* t = p8_bin_lut<CmpFn>();
  std::uint32_t mask = 0;
  for (int l = 0; l < lanes; ++l) {
    const unsigned al = static_cast<unsigned>((a >> (8 * l)) & 0xff);
    const unsigned bl = static_cast<unsigned>((b >> (8 * l)) & 0xff);
    if (t[(al << 8) | bl] != 0) mask |= 1u << l;
  }
  return mask;
}

// ---- table assembly ---------------------------------------------------------

RtOps make_f8_fast_ops() {
  RtOps o = rt_ops(FpFormat::F8);  // sgnj*/from_int*: Grs entries
  o.add = &f8_bin<&add<Binary8>>;
  o.sub = &f8_bin<&sub<Binary8>>;
  o.mul = &f8_bin<&mul<Binary8>>;
  o.div = &f8_bin<&div<Binary8>>;
  o.min = &f8_minmax<&f8_min>;
  o.max = &f8_minmax<&f8_max>;
  o.fma = &fast_fma<Binary8>;  // span always fits: unconditionally exact
  o.sqrt = &f8_sqrt;
  o.feq = &f8_cmp<&f8_feq>;
  o.flt = &f8_cmp<&f8_flt>;
  o.fle = &f8_cmp<&f8_fle>;
  o.classify = &f8_classify;
  o.to_int32 = &f8_to_i32;
  o.to_uint32 = &f8_to_u32;
  return o;
}

template <class F>
RtOps make_host_fast_ops(FpFormat tag) {
  RtOps o = rt_ops(tag);  // everything unproven keeps the Grs entry
  o.add = &fast_bin<F, HOp::Add>;
  o.sub = &fast_bin<F, HOp::Sub>;
  o.mul = &fast_bin<F, HOp::Mul>;
  o.div = &fast_bin<F, HOp::Div>;
  o.fma = &fast_fma<F>;
  o.sqrt = &fast_sqrt<F>;
  return o;
}

RtVecOps make_f8_fast_vec_ops() {
  RtVecOps o = rt_vec_ops(FpFormat::F8);  // sgnj*/int-converts: Grs
  o.add = &v_f8_bin<&add<Binary8>>;
  o.sub = &v_f8_bin<&sub<Binary8>>;
  o.mul = &v_f8_bin<&mul<Binary8>>;
  o.div = &v_f8_bin<&div<Binary8>>;
  o.min = &v_f8_minmax<&f8_min>;
  o.max = &v_f8_minmax<&f8_max>;
  o.mac = &v_fast_mac<Binary8>;
  o.sqrt = &v_f8_sqrt;
  o.feq = &v_f8_cmp<&f8_feq>;
  o.flt = &v_f8_cmp<&f8_flt>;
  o.fle = &v_f8_cmp<&f8_fle>;
  o.dotp = &v_fast_dotp<Binary8>;
  o.exsdotp = &v_fast_exsdotp<Binary8, Binary16>;
  return o;
}

template <class F>
RtVecOps make_host_fast_vec_ops(FpFormat tag) {
  RtVecOps o = rt_vec_ops(tag);
  o.add = &v_fast_bin<F, HOp::Add>;
  o.sub = &v_fast_bin<F, HOp::Sub>;
  o.mul = &v_fast_bin<F, HOp::Mul>;
  o.div = &v_fast_bin<F, HOp::Div>;
  o.mac = &v_fast_mac<F>;
  o.sqrt = &v_fast_sqrt<F>;
  o.dotp = &v_fast_dotp<F>;
  o.exsdotp = &v_fast_exsdotp<F, Binary32>;  // both 16-bit formats widen to f32
  return o;
}

RtOps make_p8_fast_ops() {
  RtOps o = rt_ops(FpFormat::P8);  // fma/sgnj*/classify/int-converts: Grs
  o.add = &p8_bin<&posit_add<Posit8>>;
  o.sub = &p8_bin<&posit_sub<Posit8>>;
  o.mul = &p8_bin<&posit_mul<Posit8>>;
  o.div = &p8_bin<&posit_div<Posit8>>;
  o.min = &p8_bin<&posit_min<Posit8>>;
  o.max = &p8_bin<&posit_max<Posit8>>;
  o.sqrt = &p8_sqrt;
  o.feq = &p8_cmp<&posit_eq<Posit8>>;
  o.flt = &p8_cmp<&posit_lt<Posit8>>;
  o.fle = &p8_cmp<&posit_le<Posit8>>;
  return o;
}

RtVecOps make_p8_fast_vec_ops() {
  RtVecOps o = rt_vec_ops(FpFormat::P8);
  o.add = &v_p8_bin<&posit_add<Posit8>>;
  o.sub = &v_p8_bin<&posit_sub<Posit8>>;
  o.mul = &v_p8_bin<&posit_mul<Posit8>>;
  o.div = &v_p8_bin<&posit_div<Posit8>>;
  o.min = &v_p8_bin<&posit_min<Posit8>>;
  o.max = &v_p8_bin<&posit_max<Posit8>>;
  o.feq = &v_p8_cmp<&posit_eq<Posit8>>;
  o.flt = &v_p8_cmp<&posit_lt<Posit8>>;
  o.fle = &v_p8_cmp<&posit_le<Posit8>>;
  return o;
}

}  // namespace

namespace detail {

const RtOps& fast_ops(FpFormat f) {
  static const RtOps kFastOps[] = {
      make_f8_fast_ops(),
      make_host_fast_ops<Binary16>(FpFormat::F16),
      make_host_fast_ops<Binary16Alt>(FpFormat::F16Alt),
      make_host_fast_ops<Binary32>(FpFormat::F32),
      rt_ops(FpFormat::F64),  // binary64 IS the host width: Grs throughout
      make_p8_fast_ops(),
      // posit16: the integer-exact core is already branch-light and a 2^32
      // operand space cannot be tabled; Grs entries serve both backends.
      rt_ops(FpFormat::P16),
  };
  static_assert(std::size(kFastOps) == kNumFormats,
                "fast_ops needs one row per FpFormat tag");
  if (fidx(f) >= std::size(kFastOps)) invalid_format_tag();
  return kFastOps[fidx(f)];
}

const RtVecOps& fast_vec_ops(FpFormat f) {
  static const RtVecOps kFastVecOps[] = {
      make_f8_fast_vec_ops(),
      make_host_fast_vec_ops<Binary16>(FpFormat::F16),
      make_host_fast_vec_ops<Binary16Alt>(FpFormat::F16Alt),
      rt_vec_ops(FpFormat::F32),  // no packed ISA ops exist for f32/f64
      rt_vec_ops(FpFormat::F64),
      make_p8_fast_vec_ops(),
      rt_vec_ops(FpFormat::P16),  // see fast_ops: Grs serves posit16
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
  // f8-source pairs and the 16-bit -> f8 narrowings are exhaustive tables;
  // the 16-bit widenings to f32 are exact host casts. Everything else --
  // including f32 -> f8, whose 2^32 source space cannot be tabled -- stays
  // on the Grs path.
  if (from == FpFormat::F8) {
    switch (to) {
      case FpFormat::F16: return &f8_widen_cvt<Binary16>;
      case FpFormat::F16Alt: return &f8_widen_cvt<Binary16Alt>;
      case FpFormat::F32: return &f8_widen_cvt<Binary32>;
      default: break;
    }
  }
  if (to == FpFormat::F8) {
    switch (from) {
      case FpFormat::F16: return &f8_narrow_cvt<Binary16>;
      case FpFormat::F16Alt: return &f8_narrow_cvt<Binary16Alt>;
      default: break;
    }
  }
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
