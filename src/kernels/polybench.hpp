// Polybench/C kernel builders (GEMM, ATAX, SYRK, SYR2K, FDTD-2D), typed per
// the smallFloat evaluation: every FP variable carries a configurable type,
// golden references run in host double precision.
//
// SYRK/SYR2K note: the rank-update kernels are built in their triangular
// form (inner loop bounded by the outer iterator), which is the code shape
// the paper singles out as the source of prologue/epilogue overhead for the
// auto-vectorizer. The transposed operand matrices are materialized as
// inputs so the innermost loop is a unit-stride update.
#pragma once

#include "kernels/runner.hpp"

namespace sfrv::kernels {

/// C[i][j] += A[i][k] * B[k][j]      (n x p x m)
[[nodiscard]] Benchmark gemm(int n = 24, int m = 24, int p = 24);

/// tmp = A x ; y = A^T tmp           (n x m)
[[nodiscard]] Benchmark atax(int n = 28, int m = 30);

/// C[i][j] += A[i][k] * A[j][k], lower triangle (j <= i)
[[nodiscard]] Benchmark syrk(int n = 24, int k = 24);

/// C[i][j] += A[i][k]*B[j][k] + B[i][k]*A[j][k], lower triangle
[[nodiscard]] Benchmark syr2k(int n = 24, int k = 24);

/// 2-D finite-difference time domain stencil over t timesteps.
[[nodiscard]] Benchmark fdtd2d(int t = 4, int n = 24, int m = 24);

/// One instance of each: the benchmark above at `tc`.
[[nodiscard]] KernelSpec make_gemm(TypeConfig tc, int n = 24, int m = 24,
                                   int p = 24);
[[nodiscard]] KernelSpec make_atax(TypeConfig tc, int n = 28, int m = 30);
[[nodiscard]] KernelSpec make_syrk(TypeConfig tc, int n = 24, int k = 24);
[[nodiscard]] KernelSpec make_syr2k(TypeConfig tc, int n = 24, int k = 24);
[[nodiscard]] KernelSpec make_fdtd2d(TypeConfig tc, int t = 4, int n = 24,
                                     int m = 24);

}  // namespace sfrv::kernels
