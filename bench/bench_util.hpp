// Shared helpers for the figure reproduction benches.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/suite.hpp"

namespace sfrv::bench {

using kernels::Benchmark;
using kernels::KernelSpec;
using kernels::RunResult;
using kernels::TypeConfig;

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_row_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Geometric mean (the natural average for speedups).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double logsum = 0;
  for (double x : v) logsum += std::log(x);
  return std::exp(logsum / static_cast<double>(v.size()));
}

/// Run a benchmark at a type configuration and codegen mode.
inline RunResult run(const Benchmark& b, TypeConfig tc, ir::CodegenMode mode) {
  const KernelSpec spec = b.make(tc);
  return kernels::run_kernel(spec, mode);
}

}  // namespace sfrv::bench
