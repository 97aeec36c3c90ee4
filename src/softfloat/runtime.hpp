// Runtime-dispatched operations on raw bit patterns.
//
// The ISA simulator stores FP register contents as untyped bits and selects
// the format from the decoded instruction; these helpers bridge into the
// templated arithmetic. All values are carried in the low bits of a uint64.
//
// Two dispatch styles are offered:
//  * rt_*(FpFormat, ...) convenience wrappers that switch on the format tag
//    per call -- fine for cold paths (tracing, QoR extraction, tests).
//  * per-(op, format) function-pointer tables (rt_ops / rt_vec_ops /
//    rt_convert_fn) that resolve the format ONCE, so a hot caller (the
//    simulator's micro-op decoder, sim/decode.hpp) binds a direct handler at
//    decode time instead of re-dispatching per lane per cycle. The JIT's
//    traces run those same decoded micro-ops; there are no separate
//    per-backend entry points.
#pragma once

#include <cstdint>

#include "softfloat/flags.hpp"
#include "softfloat/formats.hpp"

namespace sfrv::fp {

// ---- math backends ---------------------------------------------------------

/// Which implementation family backs the per-(op, format) tables below.
///
///  * Grs  -- the guard/round/sticky softfloat routines in arith.hpp /
///    convert.hpp. The reference implementation: every operation is computed
///    from first principles with a single rounding. Always available; the
///    per-call rt_*(FpFormat, ...) wrappers and the reference interpreter
///    use it unconditionally (they are the frozen oracle).
///  * Fast -- bit- and fflags-identical accelerated entries: f8/f16/f16alt/
///    f32 add/sub/mul/fma (and the packed mac/dotp/exsdotp) and the FP -> FP
///    conversions between those four formats compute an exact host-double
///    intermediate (or its rounding to odd) and round it once (see
///    docs/formats.md), falling back to Grs for any case whose result or
///    flags cannot be proven identical. Every other entry -- div/sqrt, f64,
///    the posits -- is the Grs entry itself.
///
/// The contract -- enforced by exhaustive 8-bit equivalence tests,
/// randomized f16/f32 differential fuzzing, and the golden digest matrix --
/// is that the two backends are indistinguishable except in wall-clock time.
enum class MathBackend : std::uint8_t { Grs, Fast };

/// Stable lowercase backend names ("grs", "fast") used by the CLI and the
/// eval report JSON.
[[nodiscard]] std::string_view backend_name(MathBackend b);
/// Parse a backend name; throws std::runtime_error on an unknown one.
[[nodiscard]] MathBackend backend_from_name(std::string_view name);

// ---- per-(op, format) scalar tables ----------------------------------------

/// Signature families for table entries. min/max and the sign-injection ops
/// take (and ignore) a rounding mode so that every two-operand entry shares
/// one signature and generic callers need a single code path.
using RtBinFn = std::uint64_t (*)(std::uint64_t, std::uint64_t, RoundingMode,
                                  Flags&);
using RtTernFn = std::uint64_t (*)(std::uint64_t, std::uint64_t, std::uint64_t,
                                   RoundingMode, Flags&);
using RtUnFn = std::uint64_t (*)(std::uint64_t, RoundingMode, Flags&);
using RtCmpFn = bool (*)(std::uint64_t, std::uint64_t, Flags&);
using RtClassFn = std::uint16_t (*)(std::uint64_t);
using RtToI32Fn = std::int32_t (*)(std::uint64_t, RoundingMode, Flags&);
using RtToU32Fn = std::uint32_t (*)(std::uint64_t, RoundingMode, Flags&);
using RtFromI32Fn = std::uint64_t (*)(std::int32_t, RoundingMode, Flags&);
using RtFromU32Fn = std::uint64_t (*)(std::uint32_t, RoundingMode, Flags&);
/// Format-to-format conversion with the source/destination pair pre-bound.
using RtCvtFn = std::uint64_t (*)(std::uint64_t, RoundingMode, Flags&);

/// Every scalar operation of one format, as directly callable entry points.
/// Generalizes the old single-op RtBinaryOp hook.
struct RtOps {
  RtBinFn add, sub, mul, div;
  RtBinFn min, max;              // rm ignored
  RtBinFn sgnj, sgnjn, sgnjx;    // rm ignored
  RtTernFn fma;
  RtUnFn sqrt;
  RtCmpFn feq, flt, fle;
  RtClassFn classify;
  RtToI32Fn to_int32;
  RtToU32Fn to_uint32;
  RtFromI32Fn from_int32;
  RtFromU32Fn from_uint32;
};

/// The operation table for a format tag. The reference never dangles: tables
/// have static storage duration. The single-argument form is the Grs
/// backend (the oracle); pass a backend to bind accelerated entries.
[[nodiscard]] const RtOps& rt_ops(FpFormat f);
[[nodiscard]] const RtOps& rt_ops(FpFormat f, MathBackend b);

/// Pre-bound converter for a (destination, source) format pair.
[[nodiscard]] RtCvtFn rt_convert_fn(FpFormat to, FpFormat from);
[[nodiscard]] RtCvtFn rt_convert_fn(FpFormat to, FpFormat from, MathBackend b);

// ---- per-(op, format) packed-SIMD tables -----------------------------------

/// Lanewise operations over `lanes` elements of one format packed in a
/// 64-bit register, with the element arithmetic inlined into the lane loop
/// (one indirect call per *instruction*, zero per lane). When `replicate` is
/// set, lane 0 of `b` is broadcast to all lanes (the .R scalar-replication
/// variants). Bits above lane `lanes-1` of the result are zero.
using RtVecBinFn = std::uint64_t (*)(std::uint64_t a, std::uint64_t b,
                                     int lanes, bool replicate, RoundingMode,
                                     Flags&);
/// Fused multiply-accumulate: d[l] = a[l] * b[l] + d[l].
using RtVecTernFn = std::uint64_t (*)(std::uint64_t a, std::uint64_t b,
                                      std::uint64_t d, int lanes,
                                      bool replicate, RoundingMode, Flags&);
using RtVecUnFn = std::uint64_t (*)(std::uint64_t a, int lanes, RoundingMode,
                                    Flags&);
/// Lanewise comparison producing a lane bitmask in an integer register.
using RtVecCmpFn = std::uint32_t (*)(std::uint64_t a, std::uint64_t b,
                                     int lanes, Flags&);
/// Expanding dot product (Xfaux): acc(f32) += sum_l widen(a[l]) * widen(b[l]),
/// accumulated with fused binary32 steps in lane order.
using RtVecDotpFn = std::uint64_t (*)(std::uint64_t a, std::uint64_t b,
                                      std::uint64_t acc32, int lanes,
                                      bool replicate, RoundingMode, Flags&);

struct RtVecOps {
  RtVecBinFn add, sub, mul, div;
  RtVecBinFn min, max;            // rm ignored
  RtVecBinFn sgnj, sgnjn, sgnjx;  // rm ignored
  RtVecTernFn mac;
  RtVecUnFn sqrt;
  RtVecUnFn to_int;    ///< lanewise FP -> saturating signed int of lane width
  RtVecUnFn from_int;  ///< lanewise signed int of lane width -> FP
  RtVecCmpFn feq, flt, fle;
  RtVecDotpFn dotp;
  /// ExSdotp (MiniFloat-NN-style): widening sum-of-dot-products into the
  /// next-wider format. `acc` is a FULL packed register of lanes/2 wide
  /// elements (unlike `dotp`, whose accumulator is one scalar binary32);
  /// wide lane l performs two sequential wide-format FMAs in lane order:
  ///   acc[l] = fma(widen(a[2l]),   widen(b[2l]),   acc[l])
  ///   acc[l] = fma(widen(a[2l+1]), widen(b[2l+1]), acc[l])
  /// The widening step (f8->f16, f16->f32, f16alt->f32, posit8->posit16) is
  /// exact; `lanes` counts NARROW elements. Bound only for formats with an
  /// in-register wider neighbour.
  RtVecDotpFn exsdotp;
};

/// The packed-lane table for a format tag (meaningful for the sub-32-bit
/// smallFloat formats; provided for all tags for uniformity). Same backend
/// convention as rt_ops.
[[nodiscard]] const RtVecOps& rt_vec_ops(FpFormat f);
[[nodiscard]] const RtVecOps& rt_vec_ops(FpFormat f, MathBackend b);

namespace detail {
/// Fast-backend tables (fastpath.cpp); rt_ops(f, b) dispatches here.
[[nodiscard]] const RtOps& fast_ops(FpFormat f);
[[nodiscard]] const RtVecOps& fast_vec_ops(FpFormat f);
[[nodiscard]] RtCvtFn fast_convert_fn(FpFormat to, FpFormat from);
}  // namespace detail

// ---- per-call format dispatch (cold paths) ---------------------------------

std::uint64_t rt_add(FpFormat f, std::uint64_t a, std::uint64_t b, RoundingMode rm, Flags& fl);
std::uint64_t rt_sub(FpFormat f, std::uint64_t a, std::uint64_t b, RoundingMode rm, Flags& fl);
std::uint64_t rt_mul(FpFormat f, std::uint64_t a, std::uint64_t b, RoundingMode rm, Flags& fl);
std::uint64_t rt_div(FpFormat f, std::uint64_t a, std::uint64_t b, RoundingMode rm, Flags& fl);
std::uint64_t rt_sqrt(FpFormat f, std::uint64_t a, RoundingMode rm, Flags& fl);
/// a * b + c, single rounding.
std::uint64_t rt_fma(FpFormat f, std::uint64_t a, std::uint64_t b, std::uint64_t c,
                     RoundingMode rm, Flags& fl);
std::uint64_t rt_min(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl);
std::uint64_t rt_max(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl);
std::uint64_t rt_sgnj(FpFormat f, std::uint64_t a, std::uint64_t b);
std::uint64_t rt_sgnjn(FpFormat f, std::uint64_t a, std::uint64_t b);
std::uint64_t rt_sgnjx(FpFormat f, std::uint64_t a, std::uint64_t b);
bool rt_feq(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl);
bool rt_flt(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl);
bool rt_fle(FpFormat f, std::uint64_t a, std::uint64_t b, Flags& fl);
std::uint16_t rt_classify(FpFormat f, std::uint64_t a);
/// Format-to-format conversion (single rounding).
std::uint64_t rt_convert(FpFormat to, FpFormat from, std::uint64_t a,
                         RoundingMode rm, Flags& fl);
std::int32_t rt_to_int32(FpFormat f, std::uint64_t a, RoundingMode rm, Flags& fl);
std::uint32_t rt_to_uint32(FpFormat f, std::uint64_t a, RoundingMode rm, Flags& fl);
std::uint64_t rt_from_int32(FpFormat f, std::int32_t v, RoundingMode rm, Flags& fl);
std::uint64_t rt_from_uint32(FpFormat f, std::uint32_t v, RoundingMode rm, Flags& fl);

/// Exact widening to host double (for tracing and QoR extraction).
double rt_to_double(FpFormat f, std::uint64_t a);
/// Correctly rounded narrowing from host double.
std::uint64_t rt_from_double(FpFormat f, double v, RoundingMode rm, Flags& fl);

}  // namespace sfrv::fp
