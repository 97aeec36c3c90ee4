// The benchmark suite of the paper's evaluation (Section V): five
// Polybench/C kernels plus the SVM application, each instantiable at any
// type configuration.
#pragma once

#include <vector>

#include "kernels/nn.hpp"
#include "kernels/polybench.hpp"
#include "kernels/svm.hpp"

namespace sfrv::kernels {

/// Shared gesture dataset/model for the SVM entries (trained once).
[[nodiscard]] const SvmFixture& svm_fixture();

/// Table III order (SVM, GEMM, ATAX, SYRK, SYR2K, FDTD2D), then the NN
/// inference/training tier (CONV2D, FULLY_CONNECTED, NN_TRAIN) appended so
/// pre-NN report rows keep their matrix-expansion positions.
[[nodiscard]] const std::vector<Benchmark>& benchmark_suite();

}  // namespace sfrv::kernels
