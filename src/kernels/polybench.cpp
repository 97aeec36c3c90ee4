#include "kernels/polybench.hpp"

#include <random>

namespace sfrv::kernels {

using ir::ArrayRef;
using ir::Bound;
using ir::Expr;
using ir::Index;
using ir::Kernel;
using ir::Loop;
using ir::ScalarType;

namespace {

/// Deterministic input generator shared by all kernels.
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

Benchmark gemm(int n, int m, int p) {
  // Arrays, in declaration order: A, B, C.
  auto data = [=] {
    KernelData d;
    d.init.resize(3);
    d.init[0] = random_values(static_cast<std::size_t>(n * p), 101);
    d.init[1] = random_values(static_cast<std::size_t>(p * m), 102);
    // C starts at zero.
    d.output_arrays = {"C"};

    std::vector<double> gold(static_cast<std::size_t>(n * m), 0.0);
    const auto& a = d.init[0];
    const auto& b = d.init[1];
    for (int ii = 0; ii < n; ++ii) {
      for (int x = 0; x < p; ++x) {
        for (int jj = 0; jj < m; ++jj) {
          gold[static_cast<std::size_t>(ii * m + jj)] +=
              a[static_cast<std::size_t>(ii * p + x)] *
              b[static_cast<std::size_t>(x * m + jj)];
        }
      }
    }
    d.golden.push_back(std::move(gold));
    return d;
  };
  auto kernel = [=](TypeConfig tc) {
    Kernel k;
    k.name = "gemm";
    const int A = k.add_array("A", tc.data, n, p);
    const int B = k.add_array("B", tc.data, p, m);
    const int C = k.add_array("C", tc.data, n, m);

    const int i = k.fresh_loop_var();
    const int kk = k.fresh_loop_var();
    const int j = k.fresh_loop_var();

    Loop lj{j, 0, Bound::fixed(m), {}};
    lj.body.push_back(ir::accum(
        at(C, {i, 0}, {j, 0}),
        Expr::mul(Expr::load(at(A, {i, 0}, {kk, 0})),
                  Expr::load(at(B, {kk, 0}, {j, 0})))));
    Loop lk{kk, 0, Bound::fixed(p), {}};
    lk.body.push_back(std::move(lj));
    Loop li{i, 0, Bound::fixed(n), {}};
    li.body.push_back(std::move(lk));
    k.body.push_back(std::move(li));
    return k;
  };
  return {"gemm", std::move(data), std::move(kernel)};
}

Benchmark atax(int n, int m) {
  // Arrays, in declaration order: A, x, y, tmp.
  auto data = [=] {
    KernelData d;
    d.init.resize(4);
    d.init[0] = random_values(static_cast<std::size_t>(n * m), 201);
    d.init[1] = random_values(static_cast<std::size_t>(m), 202);
    d.output_arrays = {"tmp", "y"};

    const auto& a = d.init[0];
    const auto& x = d.init[1];
    std::vector<double> tmp(static_cast<std::size_t>(n), 0.0);
    std::vector<double> y(static_cast<std::size_t>(m), 0.0);
    for (int ii = 0; ii < n; ++ii) {
      double acc = 0;
      for (int jj = 0; jj < m; ++jj) {
        acc += a[static_cast<std::size_t>(ii * m + jj)] *
               x[static_cast<std::size_t>(jj)];
      }
      tmp[static_cast<std::size_t>(ii)] = acc;
      for (int jj = 0; jj < m; ++jj) {
        y[static_cast<std::size_t>(jj)] +=
            a[static_cast<std::size_t>(ii * m + jj)] * acc;
      }
    }
    d.golden.push_back(std::move(tmp));
    d.golden.push_back(std::move(y));
    return d;
  };
  auto kernel = [=](TypeConfig tc) {
    Kernel k;
    k.name = "atax";
    const int A = k.add_array("A", tc.data, n, m);
    const int X = k.add_array("x", tc.data, 1, m);
    const int Y = k.add_array("y", tc.data, 1, m);
    const int TMP = k.add_array("tmp", tc.data, 1, n);
    const int s = k.add_var("s", tc.acc);

    const int i = k.fresh_loop_var();
    const int j = k.fresh_loop_var();
    const int j2 = k.fresh_loop_var();

    Loop li{i, 0, Bound::fixed(n), {}};
    li.body.push_back(ir::assign_var(s, Expr::constant(0.0)));
    Loop lj{j, 0, Bound::fixed(m), {}};
    lj.body.push_back(ir::accum_var(
        s, Expr::mul(Expr::load(at(A, {i, 0}, {j, 0})),
                     Expr::load(at1(X, {j, 0})))));
    li.body.push_back(std::move(lj));
    li.body.push_back(ir::store(at1(TMP, {i, 0}), Expr::variable(s)));
    Loop lj2{j2, 0, Bound::fixed(m), {}};
    lj2.body.push_back(ir::accum(
        at1(Y, {j2, 0}), Expr::mul(Expr::load(at(A, {i, 0}, {j2, 0})),
                                   Expr::variable(s))));
    li.body.push_back(std::move(lj2));
    k.body.push_back(std::move(li));
    return k;
  };
  return {"atax", std::move(data), std::move(kernel)};
}

namespace {

/// Shared builder for syrk (single product) and syr2k (two products).
Benchmark rank_update(int n, int kdim, bool two) {
  // Arrays, in declaration order: A, At, then B, Bt for syr2k, then C.
  auto transposed = [n, kdim](const std::vector<double>& v) {
    std::vector<double> t(static_cast<std::size_t>(kdim * n));
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < kdim; ++c) {
        t[static_cast<std::size_t>(c * n + r)] =
            v[static_cast<std::size_t>(r * kdim + c)];
      }
    }
    return t;
  };
  auto data = [=] {
    KernelData d;
    d.init.resize(two ? 5 : 3);
    auto a = random_values(static_cast<std::size_t>(n * kdim), 301);
    d.init[0] = a;
    d.init[1] = transposed(a);
    std::vector<double> b;
    if (two) {
      b = random_values(static_cast<std::size_t>(n * kdim), 302);
      d.init[2] = b;
      d.init[3] = transposed(b);
    }
    d.output_arrays = {"C"};

    std::vector<double> gold(static_cast<std::size_t>(n * n), 0.0);
    for (int ii = 0; ii < n; ++ii) {
      for (int x = 0; x < kdim; ++x) {
        for (int jj = 0; jj <= ii; ++jj) {
          const double aik = a[static_cast<std::size_t>(ii * kdim + x)];
          const double ajk = a[static_cast<std::size_t>(jj * kdim + x)];
          if (two) {
            const double bik = b[static_cast<std::size_t>(ii * kdim + x)];
            const double bjk = b[static_cast<std::size_t>(jj * kdim + x)];
            gold[static_cast<std::size_t>(ii * n + jj)] +=
                aik * bjk + bik * ajk;
          } else {
            gold[static_cast<std::size_t>(ii * n + jj)] += aik * ajk;
          }
        }
      }
    }
    d.golden.push_back(std::move(gold));
    return d;
  };
  auto kernel = [=](TypeConfig tc) {
    Kernel k;
    k.name = two ? "syr2k" : "syrk";
    const int A = k.add_array("A", tc.data, n, kdim);
    const int At = k.add_array("At", tc.data, kdim, n);
    int B = -1;
    int Bt = -1;
    if (two) {
      B = k.add_array("B", tc.data, n, kdim);
      Bt = k.add_array("Bt", tc.data, kdim, n);
    }
    const int C = k.add_array("C", tc.data, n, n);

    const int i = k.fresh_loop_var();
    const int kk = k.fresh_loop_var();
    const int j = k.fresh_loop_var();

    // Triangular innermost loop: j in [0, i+1) -- the shape the paper calls
    // out as the prologue/epilogue overhead source for auto-vectorization.
    Loop lj{j, 0, Bound::of_var(i, 1), {}};
    if (two) {
      lj.body.push_back(ir::accum(
          at(C, {i, 0}, {j, 0}),
          Expr::add(Expr::mul(Expr::load(at(A, {i, 0}, {kk, 0})),
                              Expr::load(at(Bt, {kk, 0}, {j, 0}))),
                    Expr::mul(Expr::load(at(B, {i, 0}, {kk, 0})),
                              Expr::load(at(At, {kk, 0}, {j, 0}))))));
    } else {
      lj.body.push_back(ir::accum(
          at(C, {i, 0}, {j, 0}),
          Expr::mul(Expr::load(at(A, {i, 0}, {kk, 0})),
                    Expr::load(at(At, {kk, 0}, {j, 0})))));
    }
    Loop lk{kk, 0, Bound::fixed(kdim), {}};
    lk.body.push_back(std::move(lj));
    Loop li{i, 0, Bound::fixed(n), {}};
    li.body.push_back(std::move(lk));
    k.body.push_back(std::move(li));
    return k;
  };
  return {two ? "syr2k" : "syrk", std::move(data), std::move(kernel)};
}

}  // namespace

Benchmark syrk(int n, int k) { return rank_update(n, k, false); }

Benchmark syr2k(int n, int k) { return rank_update(n, k, true); }

Benchmark fdtd2d(int tsteps, int n, int m) {
  // Arrays, in declaration order: ex, ey, hz, fict.
  auto data = [=] {
    KernelData d;
    d.init.resize(4);
    d.init[0] = random_values(static_cast<std::size_t>(n * m), 401, -0.5, 0.5);
    d.init[1] = random_values(static_cast<std::size_t>(n * m), 402, -0.5, 0.5);
    d.init[2] = random_values(static_cast<std::size_t>(n * m), 403, -0.5, 0.5);
    std::vector<double> fict(static_cast<std::size_t>(tsteps));
    for (int x = 0; x < tsteps; ++x) {
      fict[static_cast<std::size_t>(x)] = 0.1 * x;
    }
    d.init[3] = fict;
    d.output_arrays = {"ex", "ey", "hz"};

    // Golden: the same update sequence in double.
    auto ex = d.init[0];
    auto ey = d.init[1];
    auto hz = d.init[2];
    auto idx = [m](int r, int c) {
      return static_cast<std::size_t>(r * m + c);
    };
    for (int tt = 0; tt < tsteps; ++tt) {
      for (int j = 0; j < m; ++j) {
        ey[idx(0, j)] = fict[static_cast<std::size_t>(tt)];
      }
      for (int i = 1; i < n; ++i) {
        for (int j = 0; j < m; ++j) {
          ey[idx(i, j)] -= 0.5 * (hz[idx(i, j)] - hz[idx(i - 1, j)]);
        }
      }
      for (int i = 0; i < n; ++i) {
        for (int j = 1; j < m; ++j) {
          ex[idx(i, j)] -= 0.5 * (hz[idx(i, j)] - hz[idx(i, j - 1)]);
        }
      }
      for (int i = 0; i < n - 1; ++i) {
        for (int j = 0; j < m - 1; ++j) {
          hz[idx(i, j)] -= 0.7 * (ex[idx(i, j + 1)] - ex[idx(i, j)] +
                                  ey[idx(i + 1, j)] - ey[idx(i, j)]);
        }
      }
    }
    d.golden.push_back(std::move(ex));
    d.golden.push_back(std::move(ey));
    d.golden.push_back(std::move(hz));
    return d;
  };
  auto kernel = [=](TypeConfig tc) {
    Kernel k;
    k.name = "fdtd2d";
    const int EX = k.add_array("ex", tc.data, n, m);
    const int EY = k.add_array("ey", tc.data, n, m);
    const int HZ = k.add_array("hz", tc.data, n, m);
    const int FICT = k.add_array("fict", tc.data, 1, tsteps);

    const int t = k.fresh_loop_var();
    const int jb = k.fresh_loop_var();
    const int i1 = k.fresh_loop_var();
    const int j1 = k.fresh_loop_var();
    const int i2 = k.fresh_loop_var();
    const int j2 = k.fresh_loop_var();
    const int i3 = k.fresh_loop_var();
    const int j3 = k.fresh_loop_var();

    Loop lt{t, 0, Bound::fixed(tsteps), {}};

    Loop lb{jb, 0, Bound::fixed(m), {}};
    lb.body.push_back(ir::store(at(EY, Index::constant(0), {jb, 0}),
                                Expr::load(at1(FICT, {t, 0}))));
    lt.body.push_back(std::move(lb));

    Loop lj1{j1, 0, Bound::fixed(m), {}};
    lj1.body.push_back(ir::store(
        at(EY, {i1, 0}, {j1, 0}),
        Expr::sub(
            Expr::load(at(EY, {i1, 0}, {j1, 0})),
            Expr::mul(Expr::constant(0.5),
                      Expr::sub(Expr::load(at(HZ, {i1, 0}, {j1, 0})),
                                Expr::load(at(HZ, {i1, -1}, {j1, 0})))))));
    Loop li1{i1, 1, Bound::fixed(n), {}};
    li1.body.push_back(std::move(lj1));
    lt.body.push_back(std::move(li1));

    Loop lj2{j2, 1, Bound::fixed(m), {}};
    lj2.body.push_back(ir::store(
        at(EX, {i2, 0}, {j2, 0}),
        Expr::sub(
            Expr::load(at(EX, {i2, 0}, {j2, 0})),
            Expr::mul(Expr::constant(0.5),
                      Expr::sub(Expr::load(at(HZ, {i2, 0}, {j2, 0})),
                                Expr::load(at(HZ, {i2, 0}, {j2, -1})))))));
    Loop li2{i2, 0, Bound::fixed(n), {}};
    li2.body.push_back(std::move(lj2));
    lt.body.push_back(std::move(li2));

    Loop lj3{j3, 0, Bound::fixed(m - 1), {}};
    lj3.body.push_back(ir::store(
        at(HZ, {i3, 0}, {j3, 0}),
        Expr::sub(
            Expr::load(at(HZ, {i3, 0}, {j3, 0})),
            Expr::mul(
                Expr::constant(0.7),
                Expr::add(Expr::sub(Expr::load(at(EX, {i3, 0}, {j3, 1})),
                                    Expr::load(at(EX, {i3, 0}, {j3, 0}))),
                          Expr::sub(Expr::load(at(EY, {i3, 1}, {j3, 0})),
                                    Expr::load(at(EY, {i3, 0}, {j3, 0}))))))));
    Loop li3{i3, 0, Bound::fixed(n - 1), {}};
    li3.body.push_back(std::move(lj3));
    lt.body.push_back(std::move(li3));

    k.body.push_back(std::move(lt));
    return k;
  };
  return {"fdtd2d", std::move(data), std::move(kernel)};
}

KernelSpec make_gemm(TypeConfig tc, int n, int m, int p) {
  return gemm(n, m, p).make(tc);
}

KernelSpec make_atax(TypeConfig tc, int n, int m) {
  return atax(n, m).make(tc);
}

KernelSpec make_syrk(TypeConfig tc, int n, int k) {
  return syrk(n, k).make(tc);
}

KernelSpec make_syr2k(TypeConfig tc, int n, int k) {
  return syr2k(n, k).make(tc);
}

KernelSpec make_fdtd2d(TypeConfig tc, int t, int n, int m) {
  return fdtd2d(t, n, m).make(tc);
}

}  // namespace sfrv::kernels
