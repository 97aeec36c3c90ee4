// MathBackend::Fast vs MathBackend::Grs differential suite.
//
// The backend contract is bit- AND fflags-identity for every table entry.
// binary8 and posit8 are checked exhaustively: every operand pair for every
// binary-op entry under every rounding mode, every unary/compare/convert
// entry, and the packed-lane entries over full lane sweeps. The wider
// host-FP formats (f16 / f16alt / f32) are checked with an exhaustive unary
// sweep where the space allows, a full cross product of a boundary-value set
// (exponent edges, subnormals, specials -- the values the single-rounding
// argument has to survive), and deterministic random fuzzing on top. Which
// entries each backend binds is pinned by pointer identity (Backend.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "softfloat/softfloat.hpp"
#include "test_util.hpp"

namespace sfrv::test {
namespace {

using fp::MathBackend;
using fp::RtOps;
using fp::RtVecOps;

const RtOps& grs(FpFormat f) { return fp::rt_ops(f, MathBackend::Grs); }
const RtOps& fast(FpFormat f) { return fp::rt_ops(f, MathBackend::Fast); }

/// One scalar binary entry, both backends, bits + flags must agree.
void check_bin(fp::RtBinFn g, fp::RtBinFn f, std::uint64_t a, std::uint64_t b,
               RoundingMode rm, const char* what) {
  Flags fg, ff;
  const std::uint64_t rg = g(a, b, rm, fg);
  const std::uint64_t rf = f(a, b, rm, ff);
  ASSERT_EQ(rg, rf) << what << " bits a=0x" << std::hex << a << " b=0x" << b
                    << " rm=" << fp::rounding_mode_name(rm);
  ASSERT_EQ(fg.bits, ff.bits) << what << " flags a=0x" << std::hex << a
                              << " b=0x" << b << " rm="
                              << fp::rounding_mode_name(rm);
}

// ---- binary8: exhaustive over every entry ----------------------------------

struct NamedBin {
  const char* name;
  fp::RtBinFn RtOps::*entry;
};

const NamedBin kF8BinOps[] = {
    {"add", &RtOps::add}, {"sub", &RtOps::sub}, {"mul", &RtOps::mul},
    {"div", &RtOps::div}, {"min", &RtOps::min}, {"max", &RtOps::max},
    {"sgnj", &RtOps::sgnj}, {"sgnjn", &RtOps::sgnjn}, {"sgnjx", &RtOps::sgnjx},
};

class F8LutVsGrs : public ::testing::TestWithParam<RoundingMode> {};

TEST_P(F8LutVsGrs, EveryBinaryTableEntry) {
  const RoundingMode rm = GetParam();
  for (const auto& op : kF8BinOps) {
    const fp::RtBinFn g = grs(FpFormat::F8).*(op.entry);
    const fp::RtBinFn f = fast(FpFormat::F8).*(op.entry);
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        check_bin(g, f, a, b, rm, op.name);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(F8LutVsGrs, UnaryAndIntConvertTables) {
  const RoundingMode rm = GetParam();
  for (unsigned a = 0; a < 256; ++a) {
    Flags fg, ff;
    ASSERT_EQ(grs(FpFormat::F8).sqrt(a, rm, fg),
              fast(FpFormat::F8).sqrt(a, rm, ff))
        << "sqrt a=0x" << std::hex << a;
    ASSERT_EQ(fg.bits, ff.bits) << "sqrt flags a=0x" << std::hex << a;

    fg.clear();
    ff.clear();
    ASSERT_EQ(grs(FpFormat::F8).to_int32(a, rm, fg),
              fast(FpFormat::F8).to_int32(a, rm, ff))
        << "to_int32 a=0x" << std::hex << a;
    ASSERT_EQ(fg.bits, ff.bits) << "to_int32 flags a=0x" << std::hex << a;

    fg.clear();
    ff.clear();
    ASSERT_EQ(grs(FpFormat::F8).to_uint32(a, rm, fg),
              fast(FpFormat::F8).to_uint32(a, rm, ff))
        << "to_uint32 a=0x" << std::hex << a;
    ASSERT_EQ(fg.bits, ff.bits) << "to_uint32 flags a=0x" << std::hex << a;

    ASSERT_EQ(grs(FpFormat::F8).classify(a), fast(FpFormat::F8).classify(a))
        << "classify a=0x" << std::hex << a;
  }
}

TEST_P(F8LutVsGrs, ConvertTables) {
  const RoundingMode rm = GetParam();
  // f8 -> wider: 256 entries per destination.
  for (const FpFormat to :
       {FpFormat::F16, FpFormat::F16Alt, FpFormat::F32, FpFormat::F64}) {
    const auto g = fp::rt_convert_fn(to, FpFormat::F8, MathBackend::Grs);
    const auto f = fp::rt_convert_fn(to, FpFormat::F8, MathBackend::Fast);
    for (unsigned a = 0; a < 256; ++a) {
      Flags fg, ff;
      ASSERT_EQ(g(a, rm, fg), f(a, rm, ff))
          << "f8->" << fp::format_name(to) << " a=0x" << std::hex << a;
      ASSERT_EQ(fg.bits, ff.bits)
          << "f8->" << fp::format_name(to) << " flags a=0x" << std::hex << a;
    }
  }
  // 16-bit -> f8: the full 65536-pattern source space per mode.
  for (const FpFormat from : {FpFormat::F16, FpFormat::F16Alt}) {
    const auto g = fp::rt_convert_fn(FpFormat::F8, from, MathBackend::Grs);
    const auto f = fp::rt_convert_fn(FpFormat::F8, from, MathBackend::Fast);
    for (unsigned a = 0; a < 0x10000; ++a) {
      Flags fg, ff;
      ASSERT_EQ(g(a, rm, fg), f(a, rm, ff))
          << fp::format_name(from) << "->f8 a=0x" << std::hex << a;
      ASSERT_EQ(fg.bits, ff.bits)
          << fp::format_name(from) << "->f8 flags a=0x" << std::hex << a;
    }
  }
}

TEST(F8LutVsGrs, CompareTables) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      for (const auto entry : {&RtOps::feq, &RtOps::flt, &RtOps::fle}) {
        Flags fg, ff;
        ASSERT_EQ((grs(FpFormat::F8).*entry)(a, b, fg),
                  (fast(FpFormat::F8).*entry)(a, b, ff))
            << "cmp a=0x" << std::hex << a << " b=0x" << b;
        ASSERT_EQ(fg.bits, ff.bits)
            << "cmp flags a=0x" << std::hex << a << " b=0x" << b;
      }
    }
  }
}

TEST_P(F8LutVsGrs, PackedLaneEntries) {
  // Exhaustive over the lane-0 pair space with the other three lanes set to
  // a moving pattern, for every lane count and both replicate settings.
  const RoundingMode rm = GetParam();
  const RtVecOps& vg = fp::rt_vec_ops(FpFormat::F8, MathBackend::Grs);
  const RtVecOps& vf = fp::rt_vec_ops(FpFormat::F8, MathBackend::Fast);
  for (const auto entry : {&RtVecOps::add, &RtVecOps::sub, &RtVecOps::mul,
                           &RtVecOps::div, &RtVecOps::min, &RtVecOps::max}) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        const std::uint64_t va = a | (std::uint64_t{b} << 8) |
                                 (std::uint64_t{a ^ 0x80} << 16) |
                                 (std::uint64_t{0x7f} << 24);
        const std::uint64_t vb = b | (std::uint64_t{a} << 8) |
                                 (std::uint64_t{b ^ 0x55} << 16) |
                                 (std::uint64_t{a} << 24);
        const int lanes = 1 + static_cast<int>((a + b) % 4);
        const bool rep = ((a ^ b) & 1) != 0;
        Flags fg, ff;
        ASSERT_EQ((vg.*entry)(va, vb, lanes, rep, rm, fg),
                  (vf.*entry)(va, vb, lanes, rep, rm, ff))
            << "vec a=0x" << std::hex << va << " b=0x" << vb;
        ASSERT_EQ(fg.bits, ff.bits)
            << "vec flags a=0x" << std::hex << va << " b=0x" << vb;
      }
    }
  }
  // Packed sqrt and compares, full 16-bit sweep of the low two lanes.
  for (unsigned a = 0; a < 0x10000; ++a) {
    Flags fg, ff;
    ASSERT_EQ(vg.sqrt(a, 2, rm, fg), vf.sqrt(a, 2, rm, ff))
        << "vsqrt a=0x" << std::hex << a;
    ASSERT_EQ(fg.bits, ff.bits) << "vsqrt flags a=0x" << std::hex << a;
  }
  for (const auto entry : {&RtVecOps::feq, &RtVecOps::flt, &RtVecOps::fle}) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        const std::uint64_t va = a | (std::uint64_t{b} << 8);
        const std::uint64_t vb = b | (std::uint64_t{a} << 8);
        Flags fg, ff;
        ASSERT_EQ((vg.*entry)(va, vb, 2, fg), (vf.*entry)(va, vb, 2, ff))
            << "vcmp a=0x" << std::hex << va << " b=0x" << vb;
        ASSERT_EQ(fg.bits, ff.bits)
            << "vcmp flags a=0x" << std::hex << va << " b=0x" << vb;
      }
    }
  }
  // The expanding dot product (rebound under fast): every lane-0 pair, upper
  // lanes moving, against binary32 accumulators from zero and tiny through
  // huge to NaN, in every mode.
  const std::uint64_t accs[] = {0x00000000u, 0x80000000u, 0x3f800000u,
                                0xc0600000u, 0x00000001u, 0x7f7fffffu,
                                0x7f800000u, 0x7fc00000u, 0x4b000001u};
  for (const RoundingMode rm : kAllRoundingModes) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        const std::uint64_t va = a | (std::uint64_t{b} << 8) |
                                 (std::uint64_t{a ^ 0x80} << 16) |
                                 (std::uint64_t{0x7f} << 24);
        const std::uint64_t vb = b | (std::uint64_t{a} << 8) |
                                 (std::uint64_t{b ^ 0x55} << 16) |
                                 (std::uint64_t{a} << 24);
        const int lanes = 1 + static_cast<int>((a + b) % 4);
        const bool rep = ((a ^ b) & 1) != 0;
        const std::uint64_t acc = accs[(a * 7 + b) % std::size(accs)];
        Flags fg, ff;
        ASSERT_EQ(vg.dotp(va, vb, acc, lanes, rep, rm, fg),
                  vf.dotp(va, vb, acc, lanes, rep, rm, ff))
            << "dotp a=0x" << std::hex << va << " b=0x" << vb << " acc=0x"
            << acc;
        ASSERT_EQ(fg.bits, ff.bits)
            << "dotp flags a=0x" << std::hex << va << " b=0x" << vb
            << " acc=0x" << acc;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, F8LutVsGrs,
                         ::testing::ValuesIn(kAllRoundingModes),
                         [](const auto& info) {
                           return std::string(
                               fp::rounding_mode_name(info.param));
                         });

// ---- host-FP formats: boundary cross product + fuzz ------------------------

/// Values the host fast path has to survive: specials, zeros, subnormal
/// extremes, exponent-range edges (the f32/f16alt add exactness guard),
/// powers of two, and odd-mantissa neighbours.
template <class F>
std::vector<std::uint64_t> boundary_values() {
  using T = Float<F>;
  std::vector<std::uint64_t> vals;
  const std::uint64_t specials[] = {
      T::zero(false).bits,          T::zero(true).bits,
      T::inf(false).bits,           T::inf(true).bits,
      T::quiet_nan().bits,          static_cast<std::uint64_t>(T::quiet_nan().bits | 1),
      T::min_subnormal(false).bits, T::min_subnormal(true).bits,
      T::min_normal(false).bits,    T::min_normal(true).bits,
      T::max_finite(false).bits,    T::max_finite(true).bits,
      T::one(false).bits,           T::one(true).bits,
      // Signaling NaN: exponent all ones, quiet bit clear, payload 1.
      (T::inf(false).bits | 1u),
  };
  vals.insert(vals.end(), std::begin(specials), std::end(specials));
  // Every exponent field at mantissa 0 (both signs), plus dense mantissa
  // patterns at the edge/centre exponents where the guards change behaviour.
  constexpr unsigned emax = static_cast<unsigned>(F::exp_field_max);
  for (unsigned e = 0; e <= emax; ++e) {
    vals.push_back(T::from_parts(false, e, 0).bits);
    vals.push_back(T::from_parts(true, e, 0).bits);
  }
  for (const unsigned e : {0u, 1u, 2u, emax / 2, emax / 2 + 1, emax - 1, emax}) {
    for (const std::uint64_t m :
         {std::uint64_t{1}, F::man_mask >> 1, F::man_mask}) {
      vals.push_back(T::from_parts(false, e, m).bits);
      vals.push_back(T::from_parts(true, e, m).bits);
    }
  }
  return vals;
}

template <class F>
void check_host_fast_format(FpFormat tag, int fuzz_pairs) {
  const RtOps& g = grs(tag);
  const RtOps& f = fast(tag);
  const auto vals = boundary_values<F>();
  const NamedBin ops[] = {{"add", &RtOps::add},
                          {"sub", &RtOps::sub},
                          {"mul", &RtOps::mul},
                          {"div", &RtOps::div}};
  for (const RoundingMode rm : kAllRoundingModes) {
    for (const auto& op : ops) {
      // Full boundary cross product.
      for (const std::uint64_t a : vals) {
        for (const std::uint64_t b : vals) {
          check_bin(g.*(op.entry), f.*(op.entry), a, b, rm, op.name);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      // Random bit patterns (covers the whole encoding space).
      for (int i = 0; i < fuzz_pairs; ++i) {
        const std::uint64_t a = random_bits<F>().bits;
        const std::uint64_t b = random_bits<F>().bits;
        check_bin(g.*(op.entry), f.*(op.entry), a, b, rm, op.name);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // Unary sweep: exhaustive for 16-bit formats, boundary+fuzz for f32.
    if (F::width == 16) {
      for (unsigned a = 0; a < 0x10000; ++a) {
        Flags fg, ff;
        ASSERT_EQ(g.sqrt(a, rm, fg), f.sqrt(a, rm, ff))
            << "sqrt a=0x" << std::hex << a;
        ASSERT_EQ(fg.bits, ff.bits) << "sqrt flags a=0x" << std::hex << a;
      }
    } else {
      for (const std::uint64_t a : vals) {
        Flags fg, ff;
        ASSERT_EQ(g.sqrt(a, rm, fg), f.sqrt(a, rm, ff))
            << "sqrt a=0x" << std::hex << a;
        ASSERT_EQ(fg.bits, ff.bits) << "sqrt flags a=0x" << std::hex << a;
      }
      for (int i = 0; i < fuzz_pairs; ++i) {
        const std::uint64_t a = random_bits<F>().bits;
        Flags fg, ff;
        ASSERT_EQ(g.sqrt(a, rm, fg), f.sqrt(a, rm, ff))
            << "sqrt a=0x" << std::hex << a;
        ASSERT_EQ(fg.bits, ff.bits) << "sqrt flags a=0x" << std::hex << a;
      }
    }
  }
}

TEST(HostFastVsGrs, Binary16) {
  check_host_fast_format<Binary16>(FpFormat::F16, 20'000);
}

TEST(HostFastVsGrs, Binary16Alt) {
  check_host_fast_format<Binary16Alt>(FpFormat::F16Alt, 20'000);
}

TEST(HostFastVsGrs, Binary32) {
  check_host_fast_format<Binary32>(FpFormat::F32, 40'000);
}

TEST(HostFastVsGrs, Binary32SubnormalDivision) {
  // Quotients landing in and just above the subnormal range of the target
  // format, where a host-double quotient would be rounded twice.
  for (const RoundingMode rm : kAllRoundingModes) {
    for (int i = 0; i < 60'000; ++i) {
      // Small numerator, large denominator: quotient near/below min normal.
      auto a = random_finite<fp::Binary32>();
      auto b = random_finite<fp::Binary32>();
      const std::uint64_t ab =
          (a.bits & ~fp::Binary32::exp_mask) |
          (static_cast<std::uint64_t>(1 + (rng()() % 40)) << 23);
      const std::uint64_t bb =
          (b.bits & ~fp::Binary32::exp_mask) |
          (static_cast<std::uint64_t>(120 + (rng()() % 60)) << 23);
      check_bin(grs(FpFormat::F32).div, fast(FpFormat::F32).div, ab, bb, rm,
                "div-subnormal");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(HostFastVsGrs, WideningConvertsToF32) {
  for (const FpFormat from : {FpFormat::F16, FpFormat::F16Alt}) {
    const auto g = fp::rt_convert_fn(FpFormat::F32, from, MathBackend::Grs);
    const auto f = fp::rt_convert_fn(FpFormat::F32, from, MathBackend::Fast);
    for (const RoundingMode rm : kAllRoundingModes) {
      for (unsigned a = 0; a < 0x10000; ++a) {
        Flags fg, ff;
        ASSERT_EQ(g(a, rm, fg), f(a, rm, ff))
            << fp::format_name(from) << "->f32 a=0x" << std::hex << a;
        ASSERT_EQ(fg.bits, ff.bits)
            << fp::format_name(from) << "->f32 flags a=0x" << std::hex << a;
      }
    }
  }
}

/// One converter, both backends, bits + flags must agree.
void check_cvt(FpFormat to, FpFormat from, std::uint64_t a, RoundingMode rm) {
  Flags fg, ff;
  const std::uint64_t rg =
      fp::rt_convert_fn(to, from, MathBackend::Grs)(a, rm, fg);
  const std::uint64_t rf =
      fp::rt_convert_fn(to, from, MathBackend::Fast)(a, rm, ff);
  ASSERT_EQ(rg, rf) << fp::format_name(from) << "->" << fp::format_name(to)
                    << " a=0x" << std::hex << a
                    << " rm=" << fp::rounding_mode_name(rm);
  ASSERT_EQ(fg.bits, ff.bits)
      << fp::format_name(from) << "->" << fp::format_name(to)
      << " flags a=0x" << std::hex << a << " rm=" << fp::rounding_mode_name(rm);
}

TEST(HostFastVsGrs, ConvertsBetweenHostFormats) {
  // Every rebound converter: between two distinct formats of binary8,
  // binary16, binary16alt and binary32. 8- and 16-bit sources are swept
  // exhaustively, binary32 sources over the boundary set and random
  // patterns, all in every rounding mode.
  const FpFormat host[] = {FpFormat::F8, FpFormat::F16, FpFormat::F16Alt,
                           FpFormat::F32};
  const auto f32_vals = boundary_values<Binary32>();
  for (const FpFormat to : host) {
    for (const FpFormat from : host) {
      if (from == to) continue;
      for (const RoundingMode rm : kAllRoundingModes) {
        if (from == FpFormat::F32) {
          for (const std::uint64_t a : f32_vals) check_cvt(to, from, a, rm);
          for (int i = 0; i < 20'000; ++i) {
            check_cvt(to, from, random_bits<Binary32>().bits, rm);
          }
        } else {
          const unsigned n = 1u << fp::format_width(from);
          for (unsigned a = 0; a < n; ++a) check_cvt(to, from, a, rm);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(HostFastVsGrs, PackedLaneEntriesMatch) {
  // f16/f16alt packed entries: random packed registers, all lane counts.
  for (const FpFormat tag : {FpFormat::F16, FpFormat::F16Alt}) {
    const RtVecOps& vg = fp::rt_vec_ops(tag, MathBackend::Grs);
    const RtVecOps& vf = fp::rt_vec_ops(tag, MathBackend::Fast);
    for (const RoundingMode rm : kAllRoundingModes) {
      for (const auto entry :
           {&RtVecOps::add, &RtVecOps::sub, &RtVecOps::mul, &RtVecOps::div}) {
        for (int i = 0; i < 20'000; ++i) {
          const std::uint64_t a = rng()();
          const std::uint64_t b = rng()();
          const int lanes = 1 + static_cast<int>(rng()() % 4);
          const bool rep = (rng()() & 1) != 0;
          Flags fg, ff;
          ASSERT_EQ((vg.*entry)(a, b, lanes, rep, rm, fg),
                    (vf.*entry)(a, b, lanes, rep, rm, ff))
              << fp::format_name(tag) << " vec a=0x" << std::hex << a
              << " b=0x" << b;
          ASSERT_EQ(fg.bits, ff.bits)
              << fp::format_name(tag) << " vec flags a=0x" << std::hex << a
              << " b=0x" << b;
        }
      }
      for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t a = rng()();
        const int lanes = 1 + static_cast<int>(rng()() % 4);
        Flags fg, ff;
        ASSERT_EQ(vg.sqrt(a, lanes, rm, fg), vf.sqrt(a, lanes, rm, ff))
            << fp::format_name(tag) << " vsqrt a=0x" << std::hex << a;
        ASSERT_EQ(fg.bits, ff.bits)
            << fp::format_name(tag) << " vsqrt flags a=0x" << std::hex << a;
      }
    }
  }
}

// ---- pointer identity over whole rows ---------------------------------------

/// One entry of a fast row beside the same entry of the Grs row.
struct EntryPair {
  std::string_view name;
  bool same;  ///< the fast entry IS the Grs entry
};

// Every field is listed below: a new field fails these asserts until it is.
static_assert(sizeof(RtOps) == 19 * sizeof(fp::RtBinFn));
static_assert(sizeof(RtVecOps) == 18 * sizeof(fp::RtVecBinFn));

std::vector<EntryPair> entry_pairs(const RtOps& f, const RtOps& g) {
  return {{"add", f.add == g.add},
          {"sub", f.sub == g.sub},
          {"mul", f.mul == g.mul},
          {"div", f.div == g.div},
          {"min", f.min == g.min},
          {"max", f.max == g.max},
          {"sgnj", f.sgnj == g.sgnj},
          {"sgnjn", f.sgnjn == g.sgnjn},
          {"sgnjx", f.sgnjx == g.sgnjx},
          {"fma", f.fma == g.fma},
          {"sqrt", f.sqrt == g.sqrt},
          {"feq", f.feq == g.feq},
          {"flt", f.flt == g.flt},
          {"fle", f.fle == g.fle},
          {"classify", f.classify == g.classify},
          {"to_int32", f.to_int32 == g.to_int32},
          {"to_uint32", f.to_uint32 == g.to_uint32},
          {"from_int32", f.from_int32 == g.from_int32},
          {"from_uint32", f.from_uint32 == g.from_uint32}};
}

std::vector<EntryPair> entry_pairs(const RtVecOps& f, const RtVecOps& g) {
  return {{"add", f.add == g.add},
          {"sub", f.sub == g.sub},
          {"mul", f.mul == g.mul},
          {"div", f.div == g.div},
          {"min", f.min == g.min},
          {"max", f.max == g.max},
          {"sgnj", f.sgnj == g.sgnj},
          {"sgnjn", f.sgnjn == g.sgnjn},
          {"sgnjx", f.sgnjx == g.sgnjx},
          {"mac", f.mac == g.mac},
          {"sqrt", f.sqrt == g.sqrt},
          {"to_int", f.to_int == g.to_int},
          {"from_int", f.from_int == g.from_int},
          {"feq", f.feq == g.feq},
          {"flt", f.flt == g.flt},
          {"fle", f.fle == g.fle},
          {"dotp", f.dotp == g.dotp},
          {"exsdotp", f.exsdotp == g.exsdotp}};
}

/// The entries named in `rebound` must be the fast backend's own; every
/// other entry of the row must be the Grs entry itself.
void expect_rebound_exactly(FpFormat tag, const char* row,
                            const std::vector<EntryPair>& entries,
                            const std::vector<std::string_view>& rebound) {
  for (const EntryPair& e : entries) {
    if (std::find(rebound.begin(), rebound.end(), e.name) != rebound.end()) {
      EXPECT_FALSE(e.same) << fp::format_name(tag) << " " << row << " "
                           << e.name << " is not rebound";
    } else {
      EXPECT_TRUE(e.same) << fp::format_name(tag) << " " << row << " "
                          << e.name << " is not the Grs entry";
    }
  }
}

const RtVecOps& vgrs(FpFormat f) { return fp::rt_vec_ops(f, MathBackend::Grs); }
const RtVecOps& vfast(FpFormat f) {
  return fp::rt_vec_ops(f, MathBackend::Fast);
}

TEST(Backend, F64AndUnprovenEntriesShareTheGrsImplementation) {
  // The fast backend rebinds add/sub/mul/fma of the four host-double
  // formats and the packed add/sub/mul/mac/dotp/exsdotp of the three packed
  // ones. Every other IEEE entry -- div and sqrt of every format, binary8's
  // min/max/compares/classify/int converts, all of binary64 -- is the Grs
  // entry itself.
  const std::vector<std::string_view> scalar = {"add", "sub", "mul", "fma"};
  const std::vector<std::string_view> packed = {"add", "sub",  "mul",
                                                "mac", "dotp", "exsdotp"};
  for (const FpFormat tag : {FpFormat::F8, FpFormat::F16, FpFormat::F16Alt,
                             FpFormat::F32, FpFormat::F64}) {
    const bool host = tag != FpFormat::F64;
    const bool simd = host && tag != FpFormat::F32;
    expect_rebound_exactly(tag, "scalar", entry_pairs(fast(tag), grs(tag)),
                           host ? scalar : std::vector<std::string_view>{});
    expect_rebound_exactly(tag, "packed", entry_pairs(vfast(tag), vgrs(tag)),
                           simd ? packed : std::vector<std::string_view>{});
  }
  // Converters: every pair of distinct host-double formats is rebound;
  // binary64, the posits and the diagonal are the Grs converter.
  const auto host_fmt = [](FpFormat f) {
    return f == FpFormat::F8 || f == FpFormat::F16 || f == FpFormat::F16Alt ||
           f == FpFormat::F32;
  };
  for (int to = 0; to < fp::kNumFormats; ++to) {
    for (int from = 0; from < fp::kNumFormats; ++from) {
      const auto t = static_cast<FpFormat>(to);
      const auto s = static_cast<FpFormat>(from);
      const bool rebound = host_fmt(t) && host_fmt(s) && t != s;
      EXPECT_EQ(fp::rt_convert_fn(t, s, MathBackend::Fast) ==
                    fp::rt_convert_fn(t, s, MathBackend::Grs),
                !rebound)
          << fp::format_name(s) << "->" << fp::format_name(t);
    }
  }
}

// ---- fma / mac / dotp ------------------------------------------------------

/// One scalar fma entry, both backends, bits + flags must agree.
void check_fma(fp::RtTernFn g, fp::RtTernFn f, std::uint64_t a,
               std::uint64_t b, std::uint64_t c, RoundingMode rm) {
  Flags fg, ff;
  ASSERT_EQ(g(a, b, c, rm, fg), f(a, b, c, rm, ff))
      << "fma a=0x" << std::hex << a << " b=0x" << b << " c=0x" << c
      << " rm=" << fp::rounding_mode_name(rm);
  ASSERT_EQ(fg.bits, ff.bits)
      << "fma flags a=0x" << std::hex << a << " b=0x" << b << " c=0x" << c
      << " rm=" << fp::rounding_mode_name(rm);
}

template <class F>
void check_fma_format(FpFormat tag, int fuzz_triples) {
  const auto g = grs(tag).fma;
  const auto f = fast(tag).fma;
  const auto vals = boundary_values<F>();
  const std::uint64_t zeros[] = {Float<F>::zero(false).bits,
                                 Float<F>::zero(true).bits};
  for (const RoundingMode rm : kAllRoundingModes) {
    // Boundary triples: all pairs from the set, with c sweeping a stride so
    // the product/addend span crosses 53 bits both ways (the double sum
    // exact, or rounded to odd), and with c = +-0 (the exact product,
    // rounded once).
    for (std::size_t i = 0; i < vals.size(); ++i) {
      for (std::size_t j = 0; j < vals.size(); ++j) {
        const std::uint64_t c = vals[(i * 7 + j * 13 + 5) % vals.size()];
        check_fma(g, f, vals[i], vals[j], c, rm);
        for (const std::uint64_t z : zeros) {
          check_fma(g, f, vals[i], vals[j], z, rm);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // Zero products: a = +-0 against every boundary b and c (the addend
    // unchanged, or the signed-zero rule when c is a zero too).
    for (const std::uint64_t z : zeros) {
      for (const std::uint64_t b : vals) {
        for (const std::uint64_t c : vals) {
          check_fma(g, f, z, b, c, rm);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
    for (int i = 0; i < fuzz_triples; ++i) {
      const std::uint64_t a = random_bits<F>().bits;
      const std::uint64_t b = random_bits<F>().bits;
      const std::uint64_t c = random_bits<F>().bits;
      check_fma(g, f, a, b, c, rm);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(HostFastVsGrs, FmaBinary8Exhaustive) {
  // The fast fma never delegates on finite operands with a non-zero
  // product: check the whole binary8 operand cube at a fixed addend grid,
  // every addend when a or b is +-0 (the zero-product rules), and both zero
  // addends for every pair (the exact product, rounded once).
  const auto g = grs(FpFormat::F8).fma;
  const auto f = fast(FpFormat::F8).fma;
  const auto is_zero = [](unsigned x) { return (x & 0x7f) == 0; };
  for (const RoundingMode rm : kAllRoundingModes) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        const unsigned step = is_zero(a) || is_zero(b) ? 1 : 8;
        for (unsigned c = (a + b) % step; c < 256; c += step) {
          check_fma(g, f, a, b, c, rm);
          if (::testing::Test::HasFatalFailure()) return;
        }
        check_fma(g, f, a, b, 0x00, rm);
        check_fma(g, f, a, b, 0x80, rm);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(HostFastVsGrs, FmaBinary16) {
  check_fma_format<Binary16>(FpFormat::F16, 30'000);
}

TEST(HostFastVsGrs, FmaBinary16Alt) {
  check_fma_format<Binary16Alt>(FpFormat::F16Alt, 30'000);
}

TEST(HostFastVsGrs, FmaBinary32) {
  check_fma_format<Binary32>(FpFormat::F32, 60'000);
}

// ---- narrowing boundaries ---------------------------------------------------

/// Exact results at F's rounding boundaries, reached as a + b, as a * b, as
/// fma(a, 1, b) or fma(a, b, +-0), and (below binary32) as a conversion of
/// the exact binary32 value: the inline RNE narrowing and its GRS fallback
/// must agree with the GRS entries in every mode. `rne` pins the GRS flags
/// in RNE, so each case provably sits on the boundary it names.
template <class F>
void check_narrowing_boundaries(FpFormat tag) {
  using T = Float<F>;
  constexpr int M = F::man_bits;
  const double ulp1 = std::ldexp(1.0, -M);  // one ulp of 1.0
  const double max_finite = fp::to_double(T::max_finite());
  struct Case {
    const char* what;
    bool mul;  // a * b, else a + b
    double a, b;
    std::uint8_t rne;
  };
  const Case cases[] = {
      {"carry into the next binade", false, 2 - ulp1, ulp1 / 2, Flags::NX},
      {"past the largest finite value", false, max_finite,
       std::ldexp(1.0, F::emax - M - 1), Flags::OF | Flags::NX},
      {"below the largest finite tie", false, max_finite,
       std::ldexp(1.0, F::emax - M - 2), Flags::NX},
      {"just below the smallest normal", true, 1 + ulp1,
       std::ldexp(1.0, F::emin - 1), Flags::UF | Flags::NX},
      {"tie to even, down", false, 1.0, ulp1 / 2, Flags::NX},
      {"tie to even, up", false, 1 + ulp1, ulp1 / 2, Flags::NX},
      {"exact", false, 1.0, ulp1, 0},
  };
  const RtOps& g = grs(tag);
  const RtOps& f = fast(tag);
  const std::uint64_t one = T::one().bits;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    // The negated case negates the result: both addends, or one factor.
    for (const bool neg : {false, true}) {
      const double av = neg ? -c.a : c.a;
      const double bv = neg && !c.mul ? -c.b : c.b;
      const std::uint64_t a = fp::from_double<F>(av).bits;
      const std::uint64_t b = fp::from_double<F>(bv).bits;
      ASSERT_EQ(fp::to_double(T::from_bits(a)), av);
      ASSERT_EQ(fp::to_double(T::from_bits(b)), bv);
      Flags rne;
      (void)(c.mul ? g.mul : g.add)(a, b, RoundingMode::RNE, rne);
      EXPECT_EQ(rne.bits, c.rne);
      const double exact = c.mul ? av * bv : av + bv;
      for (const RoundingMode rm : kAllRoundingModes) {
        if (c.mul) {
          check_bin(g.mul, f.mul, a, b, rm, "mul");
          for (const std::uint64_t z :
               {T::zero(false).bits, T::zero(true).bits}) {
            check_fma(g.fma, f.fma, a, b, z, rm);
          }
        } else {
          check_bin(g.add, f.add, a, b, rm, "add");
          check_fma(g.fma, f.fma, a, one, b, rm);
        }
        if (F::width < 32) {
          check_cvt(tag, FpFormat::F32,
                    fp::from_double<Binary32>(exact).bits, rm);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(HostFastVsGrs, NarrowingBoundaries) {
  check_narrowing_boundaries<Binary8>(FpFormat::F8);
  check_narrowing_boundaries<Binary16>(FpFormat::F16);
  check_narrowing_boundaries<Binary16Alt>(FpFormat::F16Alt);
  check_narrowing_boundaries<Binary32>(FpFormat::F32);
}

TEST(HostFastVsGrs, FmaBinary32AccumulationShapes) {
  // The accumulation shape |a*b| ~ |c|: triples whose product and addend
  // exponents are deliberately close exercise the TwoSum sum, both exact
  // and rounded to odd, and must still agree bit-for-bit.
  const RtOps& g = grs(FpFormat::F32);
  const RtOps& f = fast(FpFormat::F32);
  for (const RoundingMode rm : kAllRoundingModes) {
    for (int i = 0; i < 60'000; ++i) {
      const auto a = random_finite<fp::Binary32>();
      const auto b = random_finite<fp::Binary32>();
      // c's exponent field ~ ea + eb - bias (+/- 2): addend aligned with
      // the product.
      const int ea = a.bits >> 23 & 0xff ? int(a.bits >> 23 & 0xff) : 1;
      const int eb = b.bits >> 23 & 0xff ? int(b.bits >> 23 & 0xff) : 1;
      int ec = ea + eb - 127 + static_cast<int>(rng()() % 5) - 2;
      ec = std::min(std::max(ec, 0), 254);
      const std::uint64_t c =
          (rng()() & 0x807fffffu) | (static_cast<std::uint32_t>(ec) << 23);
      Flags fg, ff;
      ASSERT_EQ(g.fma(a.bits, b.bits, c, rm, fg),
                f.fma(a.bits, b.bits, c, rm, ff))
          << "fma a=0x" << std::hex << a.bits << " b=0x" << b.bits << " c=0x"
          << c << " rm=" << fp::rounding_mode_name(rm);
      ASSERT_EQ(fg.bits, ff.bits)
          << "fma flags a=0x" << std::hex << a.bits << " b=0x" << b.bits
          << " c=0x" << c << " rm=" << fp::rounding_mode_name(rm);
    }
  }
}

TEST(HostFastVsGrs, VecMacAndDotpMatch) {
  for (const FpFormat tag : {FpFormat::F8, FpFormat::F16, FpFormat::F16Alt}) {
    const RtVecOps& vg = fp::rt_vec_ops(tag, MathBackend::Grs);
    const RtVecOps& vf = fp::rt_vec_ops(tag, MathBackend::Fast);
    for (const RoundingMode rm : kAllRoundingModes) {
      for (int i = 0; i < 30'000; ++i) {
        const std::uint64_t a = rng()();
        const std::uint64_t b = rng()();
        const std::uint64_t d = rng()();
        const int lanes = 1 + static_cast<int>(rng()() % 4);
        const bool rep = (rng()() & 1) != 0;
        Flags fg, ff;
        ASSERT_EQ(vg.mac(a, b, d, lanes, rep, rm, fg),
                  vf.mac(a, b, d, lanes, rep, rm, ff))
            << fp::format_name(tag) << " mac a=0x" << std::hex << a << " b=0x"
            << b << " d=0x" << d;
        ASSERT_EQ(fg.bits, ff.bits)
            << fp::format_name(tag) << " mac flags a=0x" << std::hex << a
            << " b=0x" << b << " d=0x" << d;

        fg.clear();
        ff.clear();
        ASSERT_EQ(vg.dotp(a, b, d & 0xffffffffu, lanes, rep, rm, fg),
                  vf.dotp(a, b, d & 0xffffffffu, lanes, rep, rm, ff))
            << fp::format_name(tag) << " dotp a=0x" << std::hex << a
            << " b=0x" << b << " acc=0x" << (d & 0xffffffffu);
        ASSERT_EQ(fg.bits, ff.bits)
            << fp::format_name(tag) << " dotp flags a=0x" << std::hex << a
            << " b=0x" << b << " acc=0x" << (d & 0xffffffffu);
      }
    }
  }
}

// ---- posit8: exhaustive, both backend names --------------------------------

TEST(Posit8LutVsGrs, EveryBinaryTableEntryEveryMode) {
  // Posit arithmetic ignores the rounding mode, but the table contract is
  // still checked under every mode: a fast entry that accidentally consulted
  // rm would diverge here.
  for (const RoundingMode rm : kAllRoundingModes) {
    for (const auto& op : kF8BinOps) {
      const fp::RtBinFn g = grs(FpFormat::P8).*(op.entry);
      const fp::RtBinFn f = fast(FpFormat::P8).*(op.entry);
      for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = 0; b < 256; ++b) {
          check_bin(g, f, a, b, rm, op.name);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(Posit8LutVsGrs, SqrtCompareAndClassifyTables) {
  for (unsigned a = 0; a < 256; ++a) {
    Flags fg, ff;
    ASSERT_EQ(grs(FpFormat::P8).sqrt(a, RoundingMode::RNE, fg),
              fast(FpFormat::P8).sqrt(a, RoundingMode::RNE, ff))
        << "sqrt a=0x" << std::hex << a;
    ASSERT_EQ(fg.bits, ff.bits) << "sqrt flags a=0x" << std::hex << a;
    ASSERT_EQ(grs(FpFormat::P8).classify(a), fast(FpFormat::P8).classify(a))
        << "classify a=0x" << std::hex << a;
    for (unsigned b = 0; b < 256; ++b) {
      for (const auto entry : {&RtOps::feq, &RtOps::flt, &RtOps::fle}) {
        Flags cg, cf;
        ASSERT_EQ((grs(FpFormat::P8).*entry)(a, b, cg),
                  (fast(FpFormat::P8).*entry)(a, b, cf))
            << "cmp a=0x" << std::hex << a << " b=0x" << b;
        ASSERT_EQ(cg.bits, cf.bits)
            << "cmp flags a=0x" << std::hex << a << " b=0x" << b;
      }
    }
  }
}

TEST(Posit8LutVsGrs, PackedLaneEntries) {
  // Same moving-pattern sweep as the binary8 packed test: lane 0 pair space
  // exhaustive, upper lanes varying, all lane counts and replicate settings.
  const RtVecOps& vg = fp::rt_vec_ops(FpFormat::P8, MathBackend::Grs);
  const RtVecOps& vf = fp::rt_vec_ops(FpFormat::P8, MathBackend::Fast);
  for (const auto entry : {&RtVecOps::add, &RtVecOps::sub, &RtVecOps::mul,
                           &RtVecOps::div, &RtVecOps::min, &RtVecOps::max}) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        const std::uint64_t va = a | (std::uint64_t{b} << 8) |
                                 (std::uint64_t{a ^ 0x80} << 16) |
                                 (std::uint64_t{0x7f} << 24);
        const std::uint64_t vb = b | (std::uint64_t{a} << 8) |
                                 (std::uint64_t{b ^ 0x55} << 16) |
                                 (std::uint64_t{a} << 24);
        const int lanes = 1 + static_cast<int>((a + b) % 4);
        const bool rep = ((a ^ b) & 1) != 0;
        Flags fg, ff;
        ASSERT_EQ((vg.*entry)(va, vb, lanes, rep, RoundingMode::RNE, fg),
                  (vf.*entry)(va, vb, lanes, rep, RoundingMode::RNE, ff))
            << "vec a=0x" << std::hex << va << " b=0x" << vb;
        ASSERT_EQ(fg.bits, ff.bits)
            << "vec flags a=0x" << std::hex << va << " b=0x" << vb;
      }
    }
  }
  for (const auto entry : {&RtVecOps::feq, &RtVecOps::flt, &RtVecOps::fle}) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        const std::uint64_t va = a | (std::uint64_t{b} << 8);
        const std::uint64_t vb = b | (std::uint64_t{a} << 8);
        Flags fg, ff;
        ASSERT_EQ((vg.*entry)(va, vb, 2, fg), (vf.*entry)(va, vb, 2, ff))
            << "vcmp a=0x" << std::hex << va << " b=0x" << vb;
        ASSERT_EQ(fg.bits, ff.bits)
            << "vcmp flags a=0x" << std::hex << va << " b=0x" << vb;
      }
    }
  }
}

TEST(Posit8LutVsGrs, NeverRaisesFlags) {
  // Posit arithmetic is flag-free by construction; both backends must honor
  // that for every binary entry.
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      for (const auto& op : kF8BinOps) {
        Flags fl;
        (void)(fast(FpFormat::P8).*(op.entry))(a, b, RoundingMode::RNE, fl);
        ASSERT_EQ(fl.bits, 0u)
            << op.name << " a=0x" << std::hex << a << " b=0x" << b;
      }
    }
  }
}

TEST(Backend, Posit16AndUnprovenPositEntriesShareTheGrsImplementation) {
  // Both posit formats run the integer-exact core under either backend
  // name: every scalar and packed entry is the Grs entry itself.
  for (const FpFormat tag : {FpFormat::P8, FpFormat::P16}) {
    expect_rebound_exactly(tag, "scalar", entry_pairs(fast(tag), grs(tag)),
                           {});
    expect_rebound_exactly(tag, "packed", entry_pairs(vfast(tag), vgrs(tag)),
                           {});
  }
}

TEST(Posit8LutVsGrs, ConvertTables) {
  // Every posit8 convert row/column present in the 7x7 table, both backends.
  for (const FpFormat other :
       {FpFormat::F8, FpFormat::F16, FpFormat::F16Alt, FpFormat::F32,
        FpFormat::F64, FpFormat::P16}) {
    for (const RoundingMode rm : kAllRoundingModes) {
      for (unsigned a = 0; a < 256; ++a) {
        Flags fg, ff;
        ASSERT_EQ(fp::rt_convert_fn(other, FpFormat::P8, MathBackend::Grs)(
                      a, rm, fg),
                  fp::rt_convert_fn(other, FpFormat::P8, MathBackend::Fast)(
                      a, rm, ff))
            << "p8->" << fp::format_name(other) << " a=0x" << std::hex << a;
        ASSERT_EQ(fg.bits, ff.bits)
            << "p8->" << fp::format_name(other) << " flags a=0x" << std::hex
            << a;
      }
      const unsigned src_width = other == FpFormat::F8 ? 8u : 16u;
      const unsigned limit =
          other == FpFormat::F32 || other == FpFormat::F64
              ? 0u  // fuzzed below instead
              : (1u << src_width);
      for (unsigned a = 0; a < limit; ++a) {
        Flags fg, ff;
        ASSERT_EQ(fp::rt_convert_fn(FpFormat::P8, other, MathBackend::Grs)(
                      a, rm, fg),
                  fp::rt_convert_fn(FpFormat::P8, other, MathBackend::Fast)(
                      a, rm, ff))
            << fp::format_name(other) << "->p8 a=0x" << std::hex << a;
        ASSERT_EQ(fg.bits, ff.bits)
            << fp::format_name(other) << "->p8 flags a=0x" << std::hex << a;
      }
    }
  }
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t a32 = rng()() & 0xffffffffu;
    const std::uint64_t a64 = rng()();
    Flags fg, ff;
    ASSERT_EQ(
        fp::rt_convert_fn(FpFormat::P8, FpFormat::F32, MathBackend::Grs)(
            a32, RoundingMode::RNE, fg),
        fp::rt_convert_fn(FpFormat::P8, FpFormat::F32, MathBackend::Fast)(
            a32, RoundingMode::RNE, ff))
        << "f32->p8 a=0x" << std::hex << a32;
    ASSERT_EQ(
        fp::rt_convert_fn(FpFormat::P8, FpFormat::F64, MathBackend::Grs)(
            a64, RoundingMode::RNE, fg),
        fp::rt_convert_fn(FpFormat::P8, FpFormat::F64, MathBackend::Fast)(
            a64, RoundingMode::RNE, ff))
        << "f64->p8 a=0x" << std::hex << a64;
  }
}

// ---- exsdotp: widening dot-product entries ---------------------------------

TEST(HostFastVsGrs, ExSdotpEntriesMatch) {
  // The fast backend rebinds exsdotp for binary8 (widen to f16) and both
  // 16-bit formats (widen to f32); posit8 keeps the Grs entry. Fuzz all
  // four with full 32-bit packed registers, wide accumulators, every lane
  // count, both replicate settings, every rounding mode.
  for (const FpFormat tag :
       {FpFormat::F8, FpFormat::F16, FpFormat::F16Alt, FpFormat::P8}) {
    const RtVecOps& vg = fp::rt_vec_ops(tag, MathBackend::Grs);
    const RtVecOps& vf = fp::rt_vec_ops(tag, MathBackend::Fast);
    const int max_lanes = tag == FpFormat::F8 || tag == FpFormat::P8 ? 4 : 2;
    for (const RoundingMode rm : kAllRoundingModes) {
      for (int i = 0; i < 30'000; ++i) {
        const std::uint64_t a = rng()() & 0xffffffffu;
        const std::uint64_t b = rng()() & 0xffffffffu;
        const std::uint64_t acc = rng()() & 0xffffffffu;
        const int lanes = 2 * (1 + static_cast<int>(rng()() % (max_lanes / 2)));
        const bool rep = (rng()() & 1) != 0;
        Flags fg, ff;
        ASSERT_EQ(vg.exsdotp(a, b, acc, lanes, rep, rm, fg),
                  vf.exsdotp(a, b, acc, lanes, rep, rm, ff))
            << fp::format_name(tag) << " exsdotp a=0x" << std::hex << a
            << " b=0x" << b << " acc=0x" << acc << " lanes=" << lanes
            << " rep=" << rep;
        ASSERT_EQ(fg.bits, ff.bits)
            << fp::format_name(tag) << " exsdotp flags a=0x" << std::hex << a
            << " b=0x" << b << " acc=0x" << acc;
      }
    }
  }
}

TEST(Backend, ExSdotpUnsupportedFormatsShareTheTrapEntry) {
  // binary64 and posit16 have no one-step-wider neighbour: both backends
  // must keep the same (trapping) entry, so a decoder bug shows up as a
  // loud failure instead of a silent backend divergence.
  EXPECT_EQ(fast(FpFormat::F64).add, grs(FpFormat::F64).add);  // sanity
  EXPECT_EQ(fp::rt_vec_ops(FpFormat::F64, MathBackend::Fast).exsdotp,
            fp::rt_vec_ops(FpFormat::F64, MathBackend::Grs).exsdotp);
  EXPECT_EQ(fp::rt_vec_ops(FpFormat::P16, MathBackend::Fast).exsdotp,
            fp::rt_vec_ops(FpFormat::P16, MathBackend::Grs).exsdotp);
  // posit8's exsdotp is served by the Grs implementation under both names.
  EXPECT_EQ(fp::rt_vec_ops(FpFormat::P8, MathBackend::Fast).exsdotp,
            fp::rt_vec_ops(FpFormat::P8, MathBackend::Grs).exsdotp);
  // The rebound fast entries really are distinct implementations.
  EXPECT_NE(fp::rt_vec_ops(FpFormat::F8, MathBackend::Fast).exsdotp,
            fp::rt_vec_ops(FpFormat::F8, MathBackend::Grs).exsdotp);
  EXPECT_NE(fp::rt_vec_ops(FpFormat::F16, MathBackend::Fast).exsdotp,
            fp::rt_vec_ops(FpFormat::F16, MathBackend::Grs).exsdotp);
}

}  // namespace
}  // namespace sfrv::test
