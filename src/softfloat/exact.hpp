// Exact conversions between the host-exact formats (binary8, binary16,
// binary16alt, binary32) and host double, shared by the fast backend
// (fastpath.cpp) and the simulator's edges, rt_to_double and rt_from_double
// (runtime.cpp).
//
//  * widen<F>: every pattern of F but a NaN is a binary64 value, so its
//    widening is exact and needs no rounding: a table lookup for binary8
//    and binary16, a host float for binary16alt and binary32.
//  * narrow<F>: one rounding of a double into F, inline when the mode is RNE
//    and the result is a normal number, through the GRS converter in every
//    other case, so bits and flags are the GRS converter's.
//
// The host FP environment must be in its default round-to-nearest mode; the
// simulator never changes it.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "softfloat/convert.hpp"
#include "softfloat/host.hpp"

namespace sfrv::fp::exact {

/// Exact binary64 value of one pattern of F, by the library's own converter
/// (a NaN widens to the canonical quiet NaN).
template <class F>
constexpr double widen_grs(std::uint64_t bits) {
  Flags fl;
  return std::bit_cast<double>(
      convert<Binary64>(Float<F>::from_bits(bits), RoundingMode::RNE, fl)
          .bits);
}

/// binary8's 256 widenings, built at compile time.
inline constexpr auto kWidenF8 = [] {
  std::array<double, 256> t{};
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = widen_grs<Binary8>(i);
  return t;
}();

/// binary16's 65536 widenings (512 KiB): too many converter runs for
/// Clang's default constant-evaluation step limit, so they are filled at
/// run time, once, by fill_widen_tables(), which every caller of
/// widen<Binary16> runs first: the fast backend's table accessors before
/// they hand out a table, and rt_to_double. A process that never widens a
/// binary16 never touches these pages.
inline std::array<double, 65536> gWidenF16;

inline void fill_widen_tables() {
  static const bool filled = [] {
    for (std::size_t i = 0; i < gWidenF16.size(); ++i) {
      gWidenF16[i] = widen_grs<Binary16>(i);
    }
    return true;
  }();
  (void)filled;
}

/// Exact widening to host double of any pattern of F but a NaN (the tables
/// hold the canonical NaN, but a NaN's widening is the GRS converter's:
/// it raises NV for a signaling one). binary8 and binary16 read the tables
/// above (their layouts need re-biasing work); binary16alt is a bfloat16,
/// i.e. the high half of a binary32; binary32 is a plain host float.
template <class F>
[[gnu::always_inline]] inline double widen(std::uint64_t bits) {
  if constexpr (std::is_same_v<F, Binary8>) {
    return kWidenF8[bits & 0xff];
  } else if constexpr (std::is_same_v<F, Binary16>) {
    return gWidenF16[bits & 0xffff];
  } else if constexpr (std::is_same_v<F, Binary16Alt>) {
    return static_cast<double>(std::bit_cast<float>(
        static_cast<std::uint32_t>(bits & 0xffff) << 16));
  } else {
    static_assert(std::is_same_v<F, Binary32>);
    return static_cast<double>(
        std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
}

/// The GRS narrowing of a double: every case narrow() leaves. Out of line,
/// so that the fast entries stay small enough to inline into the packed
/// lane loops.
template <class F>
[[gnu::noinline]] std::uint64_t grs_narrow(double r, RoundingMode rm,
                                           Flags& fl) {
  return from_double<F>(r, rm, fl).bits;
}

/// Round `r` once into F. Inline when rm is RNE and both `r` and its
/// rounded value are normal numbers of F: the rounded significand is r's
/// top man_bits bits plus the RNE increment, which carries into the
/// exponent field on its own, and the one flag possible is NX. Every other
/// case (other modes, zeros, results that are subnormal, tiny, overflowing
/// or not finite) is the GRS converter's.
template <class F>
[[gnu::always_inline]] inline std::uint64_t narrow(double r, RoundingMode rm,
                                                   Flags& fl) {
  constexpr int kDrop = 52 - F::man_bits;
  constexpr std::uint64_t kRebias =
      static_cast<std::uint64_t>(1023 - F::bias) << F::man_bits;
  const std::uint64_t x = std::bit_cast<std::uint64_t>(r);
  const std::uint64_t mag = x & ~(std::uint64_t{1} << 63);
  // F's biased exponent of r, as unsigned: in [1, exp_field_max) iff normal.
  const std::uint64_t ef = (mag >> 52) - (1023 - F::bias);
  if (rm == RoundingMode::RNE &&
      ef - 1 < static_cast<std::uint64_t>(F::exp_field_max - 1)) {
    const std::uint64_t rest = mag & ((std::uint64_t{1} << kDrop) - 1);
    const std::uint64_t lsb = (mag >> kDrop) & 1;
    const std::uint64_t q =
        ((mag + ((std::uint64_t{1} << (kDrop - 1)) - 1) + lsb) >> kDrop) -
        kRebias;
    if (q < F::exp_mask) {  // no carry into the infinity exponent
      if (rest != 0) fl.raise(Flags::NX);
      return q | ((x >> 63) << (F::width - 1));
    }
  }
  return grs_narrow<F>(r, rm, fl);
}

}  // namespace sfrv::fp::exact
