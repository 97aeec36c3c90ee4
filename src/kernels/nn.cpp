#include "kernels/nn.hpp"

#include <random>

namespace sfrv::kernels {

using ir::ArrayRef;
using ir::Bound;
using ir::Expr;
using ir::Index;
using ir::Kernel;
using ir::Loop;

namespace {

std::vector<double> random_values(std::size_t n, std::uint64_t seed,
                                  double lo = -1.0, double hi = 1.0) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(gen);
  return v;
}

ArrayRef at(int array, Index row, Index col) { return {array, row, col}; }
ArrayRef at1(int array, Index col) { return {array, Index::constant(0), col}; }

}  // namespace

Benchmark conv2d(int oh, int ow, int k) {
  const int ih = oh + k - 1;
  const int iw = ow + k - 1;
  // Arrays, in declaration order: in, w, out.
  auto data = [=] {
    KernelData d;
    d.init.resize(3);
    d.init[0] = random_values(static_cast<std::size_t>(ih * iw), 501);
    d.init[1] = random_values(static_cast<std::size_t>(k * k), 502, -0.5, 0.5);
    d.output_arrays = {"out"};

    const auto& in = d.init[0];
    const auto& w = d.init[1];
    std::vector<double> gold(static_cast<std::size_t>(oh * ow), 0.0);
    for (int y = 0; y < oh; ++y) {
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx) {
          for (int x = 0; x < ow; ++x) {
            gold[static_cast<std::size_t>(y * ow + x)] +=
                in[static_cast<std::size_t>((y + ky) * iw + x + kx)] *
                w[static_cast<std::size_t>(ky * k + kx)];
          }
        }
      }
    }
    d.golden.push_back(std::move(gold));
    return d;
  };
  auto kernel = [=](TypeConfig tc) {
    Kernel kr;
    kr.name = "conv2d";
    const int IN = kr.add_array("in", tc.data, ih, iw);
    const int W = kr.add_array("w", tc.data, k, k);
    const int OUT = kr.add_array("out", tc.data, oh, ow);

    const int oy = kr.fresh_loop_var();
    const int ox = kr.fresh_loop_var();

    // Build-time unrolled taps: one constant-offset accumulate per (ky, kx),
    // the filter weight an invariant load hoisted to the loop preheader.
    Loop lx{ox, 0, Bound::fixed(ow), {}};
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        lx.body.push_back(ir::accum(
            at(OUT, {oy, 0}, {ox, 0}),
            Expr::mul(Expr::load(at(IN, {oy, ky}, {ox, kx})),
                      Expr::load(at(W, Index::constant(ky),
                                    Index::constant(kx))))));
      }
    }
    Loop ly{oy, 0, Bound::fixed(oh), {}};
    ly.body.push_back(std::move(lx));
    kr.body.push_back(std::move(ly));
    return kr;
  };
  return {"conv2d", std::move(data), std::move(kernel)};
}

Benchmark fully_connected(int n_out, int n_in) {
  // Arrays, in declaration order: w, x, out.
  auto data = [=] {
    KernelData d;
    d.init.resize(3);
    d.init[0] = random_values(static_cast<std::size_t>(n_out * n_in), 511);
    d.init[1] = random_values(static_cast<std::size_t>(n_in), 512);
    d.output_arrays = {"out"};

    const auto& w = d.init[0];
    const auto& x = d.init[1];
    std::vector<double> gold(static_cast<std::size_t>(n_out), 0.0);
    for (int oo = 0; oo < n_out; ++oo) {
      double acc = 0;
      for (int ii = 0; ii < n_in; ++ii) {
        acc += w[static_cast<std::size_t>(oo * n_in + ii)] *
               x[static_cast<std::size_t>(ii)];
      }
      gold[static_cast<std::size_t>(oo)] = acc;
    }
    d.golden.push_back(std::move(gold));
    return d;
  };
  auto kernel = [=](TypeConfig tc) {
    Kernel k;
    k.name = "fully_connected";
    const int W = k.add_array("w", tc.data, n_out, n_in);
    const int X = k.add_array("x", tc.data, 1, n_in);
    const int OUT = k.add_array("out", tc.data, 1, n_out);
    const int s = k.add_var("s", tc.acc);

    const int o = k.fresh_loop_var();
    const int i = k.fresh_loop_var();

    Loop lo{o, 0, Bound::fixed(n_out), {}};
    lo.body.push_back(ir::assign_var(s, Expr::constant(0.0)));
    Loop li{i, 0, Bound::fixed(n_in), {}};
    li.body.push_back(ir::accum_var(
        s, Expr::mul(Expr::load(at(W, {o, 0}, {i, 0})),
                     Expr::load(at1(X, {i, 0})))));
    lo.body.push_back(std::move(li));
    lo.body.push_back(ir::store(at1(OUT, {o, 0}), Expr::variable(s)));
    k.body.push_back(std::move(lo));
    return k;
  };
  return {"fully_connected", std::move(data), std::move(kernel)};
}

Benchmark nn_train(int n_out, int n_in) {
  // Exact in every evaluated format (power of two), so the weight update
  // itself adds no quantization noise beyond the formats under study.
  constexpr double kLr = 0.0625;
  // Arrays, in declaration order: w, x, g, h.
  auto data = [=] {
    KernelData d;
    d.init.resize(4);
    d.init[0] = random_values(static_cast<std::size_t>(n_out * n_in), 521);
    d.init[1] = random_values(static_cast<std::size_t>(n_in), 522);
    d.init[2] = random_values(static_cast<std::size_t>(n_out), 523, -0.5, 0.5);
    d.output_arrays = {"h", "w"};

    const auto& x = d.init[1];
    const auto& g = d.init[2];
    std::vector<double> h(static_cast<std::size_t>(n_out), 0.0);
    std::vector<double> w = d.init[0];
    for (int oo = 0; oo < n_out; ++oo) {
      double acc = 0;
      for (int ii = 0; ii < n_in; ++ii) {
        acc += w[static_cast<std::size_t>(oo * n_in + ii)] *
               x[static_cast<std::size_t>(ii)];
      }
      h[static_cast<std::size_t>(oo)] = acc;
      const double scale = kLr * g[static_cast<std::size_t>(oo)];
      for (int ii = 0; ii < n_in; ++ii) {
        w[static_cast<std::size_t>(oo * n_in + ii)] +=
            x[static_cast<std::size_t>(ii)] * scale;
      }
    }
    d.golden.push_back(std::move(h));
    d.golden.push_back(std::move(w));
    return d;
  };
  auto kernel = [=](TypeConfig tc) {
    Kernel k;
    k.name = "nn_train";
    const int W = k.add_array("w", tc.data, n_out, n_in);
    const int X = k.add_array("x", tc.data, 1, n_in);
    const int G = k.add_array("g", tc.data, 1, n_out);
    const int H = k.add_array("h", tc.data, 1, n_out);
    const int s = k.add_var("s", tc.acc);
    const int gs = k.add_var("gs", tc.data);  // lr * g[o], inner-invariant

    const int o = k.fresh_loop_var();
    const int i = k.fresh_loop_var();
    const int i2 = k.fresh_loop_var();

    Loop lo{o, 0, Bound::fixed(n_out), {}};
    // Forward: h[o] = sum_i W[o][i] * x[i] on the widening accumulator.
    lo.body.push_back(ir::assign_var(s, Expr::constant(0.0)));
    Loop li{i, 0, Bound::fixed(n_in), {}};
    li.body.push_back(ir::accum_var(
        s, Expr::mul(Expr::load(at(W, {o, 0}, {i, 0})),
                     Expr::load(at1(X, {i, 0})))));
    lo.body.push_back(std::move(li));
    lo.body.push_back(ir::store(at1(H, {o, 0}), Expr::variable(s)));
    // Update: W[o][i] += (lr * g[o]) * x[i], the scale hoisted per row.
    lo.body.push_back(ir::assign_var(
        gs, Expr::mul(Expr::constant(kLr), Expr::load(at1(G, {o, 0})))));
    Loop lu{i2, 0, Bound::fixed(n_in), {}};
    lu.body.push_back(ir::accum(
        at(W, {o, 0}, {i2, 0}),
        Expr::mul(Expr::load(at1(X, {i2, 0})), Expr::variable(gs))));
    lo.body.push_back(std::move(lu));
    k.body.push_back(std::move(lo));
    return k;
  };
  return {"nn_train", std::move(data), std::move(kernel)};
}

KernelSpec make_conv2d(TypeConfig tc, int oh, int ow, int k) {
  return conv2d(oh, ow, k).make(tc);
}

KernelSpec make_fully_connected(TypeConfig tc, int n_out, int n_in) {
  return fully_connected(n_out, n_in).make(tc);
}

KernelSpec make_nn_train(TypeConfig tc, int n_out, int n_in) {
  return nn_train(n_out, n_in).make(tc);
}

}  // namespace sfrv::kernels
