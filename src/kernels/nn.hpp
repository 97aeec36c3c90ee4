// Neural-network kernel builders: the MiniFloat-NN workload class
// (PAPERS.md, arXiv 2207.03192) the ExSdotp datapath was designed for.
//
//  * conv2d           - single-channel valid 2-D convolution with a K x K
//                       filter; the taps are build-time unrolled into
//                       constant-offset accumulate statements, so the inner
//                       loop is a unit-stride stream the vectorizer handles
//                       like any stencil.
//  * fully_connected  - out = W x: one long dot-product reduction per output
//                       neuron. Under ManualVecExs with acc one step wider
//                       than data (e.g. f8 data / f16 acc), the reduction
//                       runs on the widening ExSdotp accumulator.
//  * nn_train         - one training step of the same layer: forward
//                       dot-products (ExSdotp-eligible) followed by the
//                       outer-product weight update W[o][i] += lr*g[o]*x[i].
//                       The f8-data / f16-acc instantiation is the
//                       MiniFloat-NN low-precision training shape.
#pragma once

#include "kernels/polybench.hpp"

namespace sfrv::kernels {

/// out[oy][ox] += sum_{ky,kx} W[ky][kx] * in[oy+ky][ox+kx]  (valid conv,
/// output oh x ow, filter k x k, input (oh+k-1) x (ow+k-1)).
[[nodiscard]] Benchmark conv2d(int oh = 12, int ow = 12, int k = 3);

/// out[o] = sum_i W[o][i] * x[i]      (n_out x n_in)
[[nodiscard]] Benchmark fully_connected(int n_out = 16, int n_in = 32);

/// Forward + weight update:  h[o] = sum_i W[o][i]*x[i];
/// W[o][i] += lr * g[o] * x[i]        (n_out x n_in, lr = 1/16)
[[nodiscard]] Benchmark nn_train(int n_out = 12, int n_in = 24);

/// One instance of each: the benchmark above at `tc`.
[[nodiscard]] KernelSpec make_conv2d(TypeConfig tc, int oh = 12, int ow = 12,
                                     int k = 3);
[[nodiscard]] KernelSpec make_fully_connected(TypeConfig tc, int n_out = 16,
                                              int n_in = 32);
[[nodiscard]] KernelSpec make_nn_train(TypeConfig tc, int n_out = 12,
                                       int n_in = 24);

}  // namespace sfrv::kernels
