// Host-side emulation value types: the analogue of the paper's new C type
// keywords (float8 / float16 / float16alt). Arithmetic routes through the
// bit-accurate library using a thread-local FP environment, so host code
// computes exactly what the simulated instruction stream computes. Only the
// tests use them (tests/softfloat/test_scalar_emulation.cpp): golden
// references are computed in double and the precision tuner reads
// simulated cells.
#pragma once

#include "softfloat/arith.hpp"
#include "softfloat/compare.hpp"
#include "softfloat/convert.hpp"
#include "softfloat/host.hpp"

namespace sfrv::fp {

/// Thread-local floating-point environment (mirrors fcsr).
struct FpEnv {
  RoundingMode rm = RoundingMode::RNE;
  Flags flags;
};

[[nodiscard]] inline FpEnv& fp_env() {
  thread_local FpEnv env;
  return env;
}

/// Arithmetic value of format F with operator overloading.
template <class F>
class Scalar {
 public:
  constexpr Scalar() = default;
  constexpr explicit Scalar(Float<F> v) : v_(v) {}
  Scalar(double d) : v_(from_double<F>(d, fp_env().rm, fp_env().flags)) {}  // NOLINT: implicit by design, mirrors C float conversions

  [[nodiscard]] constexpr Float<F> raw() const { return v_; }
  [[nodiscard]] double to_double() const { return fp::to_double(v_); }

  friend Scalar operator+(Scalar a, Scalar b) {
    return Scalar{add(a.v_, b.v_, fp_env().rm, fp_env().flags)};
  }
  friend Scalar operator-(Scalar a, Scalar b) {
    return Scalar{sub(a.v_, b.v_, fp_env().rm, fp_env().flags)};
  }
  friend Scalar operator*(Scalar a, Scalar b) {
    return Scalar{mul(a.v_, b.v_, fp_env().rm, fp_env().flags)};
  }
  friend Scalar operator/(Scalar a, Scalar b) {
    return Scalar{div(a.v_, b.v_, fp_env().rm, fp_env().flags)};
  }
  friend Scalar operator-(Scalar a) { return Scalar{negate(a.v_)}; }

  Scalar& operator+=(Scalar o) { return *this = *this + o; }
  Scalar& operator-=(Scalar o) { return *this = *this - o; }
  Scalar& operator*=(Scalar o) { return *this = *this * o; }
  Scalar& operator/=(Scalar o) { return *this = *this / o; }

  friend bool operator==(Scalar a, Scalar b) {
    return feq(a.v_, b.v_, fp_env().flags);
  }
  friend bool operator<(Scalar a, Scalar b) {
    return flt(a.v_, b.v_, fp_env().flags);
  }
  friend bool operator<=(Scalar a, Scalar b) {
    return fle(a.v_, b.v_, fp_env().flags);
  }
  friend bool operator>(Scalar a, Scalar b) { return b < a; }
  friend bool operator>=(Scalar a, Scalar b) { return b <= a; }

  /// Fused multiply-add: *this = a * b + *this (single rounding).
  void fma_accumulate(Scalar a, Scalar b) {
    v_ = fp::fma(a.v_, b.v_, v_, fp_env().rm, fp_env().flags);
  }

  /// Convert to another format with the environment rounding mode.
  template <class To>
  [[nodiscard]] Scalar<To> to() const {
    return Scalar<To>{convert<To>(v_, fp_env().rm, fp_env().flags)};
  }

 private:
  Float<F> v_{};
};

using float8 = Scalar<Binary8>;        // paper keyword: float8
using float16 = Scalar<Binary16>;      // paper keyword: float16
using float16alt = Scalar<Binary16Alt>;  // paper keyword: float16alt
using float32 = Scalar<Binary32>;

}  // namespace sfrv::fp
