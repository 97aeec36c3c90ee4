// The simulator's edges to host double: rt_to_double (the per-element result
// readback) and rt_from_double (planner quantization and lowering's constant
// pool) against the GRS converters of host.hpp, bits and flags. Both take
// the shared exact widening and the inline RNE narrowing (softfloat/
// exact.hpp), so these tests pin those to the GRS oracle: every
// binary8/16/16alt pattern widened, and boundary, tie, overflow, subnormal,
// special and random doubles narrowed in all five rounding modes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "softfloat/softfloat.hpp"
#include "test_util.hpp"

namespace sfrv::test {
namespace {

template <class F>
void check_widen_every_pattern(FpFormat tag) {
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << F::width); ++a) {
    const double want = fp::to_double(Float<F>::from_bits(a));
    const double got = fp::rt_to_double(tag, a);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << F::name << " pattern 0x" << std::hex << a;
  }
}

TEST(HostEdges, ToDoubleWidensEveryNarrowPatternExactly) {
  check_widen_every_pattern<Binary8>(FpFormat::F8);
  check_widen_every_pattern<Binary16>(FpFormat::F16);
  check_widen_every_pattern<Binary16Alt>(FpFormat::F16Alt);
}

TEST(HostEdges, ToDoubleWidensBinary32AndBinary64) {
  std::vector<std::uint64_t> f32 = {0x0, 0x80000000, 0x1, 0x807fffff,
                                    0x00800000, 0x7f7fffff, 0x3f800000,
                                    0x7f800000, 0xff800000, 0x7fc00000,
                                    0x7f800001, 0xffffffff};
  for (int i = 0; i < 100000; ++i) f32.push_back(rng()() & 0xffffffffu);
  for (const std::uint64_t a : f32) {
    const double want = fp::to_double(Float<Binary32>::from_bits(a));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fp::rt_to_double(FpFormat::F32, a)),
              std::bit_cast<std::uint64_t>(want))
        << "binary32 pattern 0x" << std::hex << a;
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng()();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fp::rt_to_double(FpFormat::F64, a)),
              a);
  }
}

/// Doubles a narrowing into F has to survive: every value of the boundary
/// patterns below and its neighbouring doubles, the midpoint (a tie) of each
/// with the next pattern and that midpoint's neighbours, values past the
/// largest finite number and below the smallest subnormal, zeros,
/// infinities, a quiet and a signaling NaN, then random doubles over F's
/// exponent range and random bit patterns.
template <class F>
std::vector<double> narrowing_inputs() {
  using T = Float<F>;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> patterns;
  constexpr unsigned emax = static_cast<unsigned>(F::exp_field_max);
  for (unsigned e = 0; e < emax; ++e) {
    for (const std::uint64_t m :
         {std::uint64_t{0}, std::uint64_t{1}, F::man_mask >> 1,
          (F::man_mask >> 1) + 1, F::man_mask - 1, F::man_mask}) {
      patterns.push_back(T::from_parts(false, e, m).bits);
    }
  }
  std::vector<double> out;
  for (const std::uint64_t p : patterns) {
    const double x = fp::to_double(T::from_bits(p));
    const double next = fp::to_double(T::from_bits(p + 1));  // may be inf
    out.push_back(x);
    out.push_back(std::nextafter(x, kInf));
    out.push_back(std::nextafter(x, -kInf));
    if (std::isfinite(next)) {
      const double mid = x + (next - x) / 2;
      out.push_back(mid);
      out.push_back(std::nextafter(mid, kInf));
      out.push_back(std::nextafter(mid, -kInf));
    }
  }
  const double max_finite = fp::to_double(T::max_finite());
  const double ulp_max = std::ldexp(1.0, F::emax - F::man_bits);
  for (const double v :
       {max_finite + ulp_max / 2, max_finite + ulp_max, 2 * max_finite,
        std::ldexp(1.0, F::emin - F::man_bits - 1),
        std::ldexp(1.0, F::emin - F::man_bits - 2),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(), 0.0, kInf,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::signaling_NaN()}) {
    out.push_back(v);
  }
  for (int i = 0; i < 20000; ++i) {
    const int e = F::emin - F::man_bits - 3 +
                  static_cast<int>(rng()() % (F::emax - F::emin + F::man_bits + 6));
    const double frac =
        std::ldexp(static_cast<double>(rng()() >> 11), -53);  // [0, 1)
    out.push_back(std::ldexp(1.0 + frac, e));
  }
  for (int i = 0; i < 2000; ++i) {
    out.push_back(std::bit_cast<double>(rng()()));
  }
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) out.push_back(-out[i]);
  return out;
}

template <class F>
void check_narrowing(FpFormat tag) {
  for (const double v : narrowing_inputs<F>()) {
    for (const RoundingMode rm : kAllRoundingModes) {
      Flags want_fl;
      Flags got_fl;
      const std::uint64_t want = fp::from_double<F>(v, rm, want_fl).bits;
      const std::uint64_t got = fp::rt_from_double(tag, v, rm, got_fl);
      ASSERT_EQ(got, want) << F::name << " v=" << std::hexfloat << v
                           << " rm=" << fp::rounding_mode_name(rm);
      ASSERT_EQ(got_fl.bits, want_fl.bits)
          << F::name << " flags v=" << std::hexfloat << v
          << " rm=" << fp::rounding_mode_name(rm);
    }
  }
}

TEST(HostEdges, FromDoubleRoundsLikeGrsInEveryMode) {
  check_narrowing<Binary8>(FpFormat::F8);
  check_narrowing<Binary16>(FpFormat::F16);
  check_narrowing<Binary16Alt>(FpFormat::F16Alt);
  check_narrowing<Binary32>(FpFormat::F32);
}

TEST(HostEdges, FromDoubleToBinary64IsTheHostValue) {
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t bits = rng()();
    Flags fl;
    EXPECT_EQ(fp::rt_from_double(FpFormat::F64, std::bit_cast<double>(bits),
                                 RoundingMode::RUP, fl),
              bits);
    EXPECT_EQ(fl.bits, 0);
  }
}

}  // namespace
}  // namespace sfrv::test
