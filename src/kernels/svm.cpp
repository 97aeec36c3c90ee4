#include "kernels/svm.hpp"

#include <cassert>
#include <random>
#include <stdexcept>

namespace sfrv::kernels {

using ir::Bound;
using ir::Expr;
using ir::Index;
using ir::Kernel;
using ir::Loop;

GestureData make_gesture_data(int classes, int features, int train_per_class,
                              int test_per_class, double noise_sigma,
                              std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  // EMG-envelope-like scale: positive-leaning features of magnitude a few
  // units, wide enough dynamic range to stress binary8.
  std::uniform_real_distribution<double> center_dist(-2.0, 2.0);
  std::normal_distribution<double> noise(0.0, noise_sigma);

  std::vector<std::vector<double>> centers(static_cast<std::size_t>(classes));
  for (auto& c : centers) {
    c.resize(static_cast<std::size_t>(features));
    for (auto& v : c) v = center_dist(gen);
  }

  auto fill = [&](SvmDataset& ds, int per_class) {
    ds.features = features;
    ds.samples = classes * per_class;
    ds.x.reserve(static_cast<std::size_t>(ds.samples * features));
    for (int s = 0; s < per_class; ++s) {
      for (int c = 0; c < classes; ++c) {
        ds.labels.push_back(c);
        for (int f = 0; f < features; ++f) {
          ds.x.push_back(centers[static_cast<std::size_t>(c)]
                                [static_cast<std::size_t>(f)] +
                         noise(gen));
        }
      }
    }
  };

  GestureData data;
  fill(data.train, train_per_class);
  fill(data.test, test_per_class);
  return data;
}

namespace {

/// Solve M v = b in place by Gaussian elimination with partial pivoting.
std::vector<double> solve(std::vector<double> m, std::vector<double> b, int n) {
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::abs(m[static_cast<std::size_t>(r * n + col)]) >
          std::abs(m[static_cast<std::size_t>(pivot * n + col)])) {
        pivot = r;
      }
    }
    if (pivot != col) {
      for (int c = 0; c < n; ++c) {
        std::swap(m[static_cast<std::size_t>(col * n + c)],
                  m[static_cast<std::size_t>(pivot * n + c)]);
      }
      std::swap(b[static_cast<std::size_t>(col)],
                b[static_cast<std::size_t>(pivot)]);
    }
    const double d = m[static_cast<std::size_t>(col * n + col)];
    if (d == 0) throw std::runtime_error("singular system in svm trainer");
    for (int r = col + 1; r < n; ++r) {
      const double f = m[static_cast<std::size_t>(r * n + col)] / d;
      if (f == 0) continue;
      for (int c = col; c < n; ++c) {
        m[static_cast<std::size_t>(r * n + c)] -=
            f * m[static_cast<std::size_t>(col * n + c)];
      }
      b[static_cast<std::size_t>(r)] -= f * b[static_cast<std::size_t>(col)];
    }
  }
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int r = n - 1; r >= 0; --r) {
    double acc = b[static_cast<std::size_t>(r)];
    for (int c = r + 1; c < n; ++c) {
      acc -= m[static_cast<std::size_t>(r * n + c)] * v[static_cast<std::size_t>(c)];
    }
    v[static_cast<std::size_t>(r)] = acc / m[static_cast<std::size_t>(r * n + r)];
  }
  return v;
}

}  // namespace

SvmModel train_svm(const SvmDataset& train, int classes, double ridge_lambda) {
  const int f = train.features;
  const int naug = f + 1;  // augmented with a bias column
  // Normal matrix: (X^T X + lambda I), with X augmented by ones.
  std::vector<double> xtx(static_cast<std::size_t>(naug * naug), 0.0);
  for (int s = 0; s < train.samples; ++s) {
    const double* row = &train.x[static_cast<std::size_t>(s * f)];
    for (int a = 0; a < naug; ++a) {
      const double va = a < f ? row[a] : 1.0;
      for (int b = 0; b < naug; ++b) {
        const double vb = b < f ? row[b] : 1.0;
        xtx[static_cast<std::size_t>(a * naug + b)] += va * vb;
      }
    }
  }
  for (int a = 0; a < naug; ++a) {
    xtx[static_cast<std::size_t>(a * naug + a)] += ridge_lambda;
  }

  SvmModel model;
  model.classes = classes;
  model.features = f;
  model.weights.resize(static_cast<std::size_t>(classes * f));
  model.bias.resize(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    std::vector<double> xty(static_cast<std::size_t>(naug), 0.0);
    for (int s = 0; s < train.samples; ++s) {
      const double y = train.labels[static_cast<std::size_t>(s)] == c ? 1.0 : -1.0;
      const double* row = &train.x[static_cast<std::size_t>(s * f)];
      for (int a = 0; a < naug; ++a) {
        xty[static_cast<std::size_t>(a)] += (a < f ? row[a] : 1.0) * y;
      }
    }
    const auto w = solve(xtx, xty, naug);
    for (int a = 0; a < f; ++a) {
      model.weights[static_cast<std::size_t>(c * f + a)] = w[static_cast<std::size_t>(a)];
    }
    model.bias[static_cast<std::size_t>(c)] = w[static_cast<std::size_t>(f)];
  }
  return model;
}

KernelSpec make_svm(TypeConfig tc, const SvmFixture& fixture) {
  const SvmModel& model = fixture.model;
  const SvmDataset& test = fixture.test;
  assert(model.features == test.features);
  KernelSpec spec;
  Kernel& k = spec.kernel;
  k.name = "svm";
  const int S = test.samples;
  const int C = model.classes;
  const int F = model.features;
  const int X = k.add_array("x", tc.data, S, F);
  const int W = k.add_array("w", tc.data, C, F);
  const int B = k.add_array("bias", tc.acc, 1, C);
  const int SC = k.add_array("scores", tc.acc, S, C);
  const int acc = k.add_var("acc", tc.acc);

  const int s = k.fresh_loop_var();
  const int c = k.fresh_loop_var();
  const int f = k.fresh_loop_var();

  Loop ls{s, 0, Bound::fixed(S), {}};
  Loop lc{c, 0, Bound::fixed(C), {}};
  lc.body.push_back(ir::assign_var(
      acc, Expr::load({B, Index::constant(0), {c, 0}})));
  Loop lf{f, 0, Bound::fixed(F), {}};
  lf.body.push_back(ir::accum_var(
      acc, Expr::mul(Expr::load({X, {s, 0}, {f, 0}}),
                     Expr::load({W, {c, 0}, {f, 0}}))));
  lc.body.push_back(std::move(lf));
  lc.body.push_back(ir::store({SC, {s, 0}, {c, 0}}, Expr::variable(acc)));
  ls.body.push_back(std::move(lc));
  k.body.push_back(std::move(ls));

  spec.init.resize(k.arrays.size());
  spec.init[static_cast<std::size_t>(X)] = test.x;
  spec.init[static_cast<std::size_t>(W)] = model.weights;
  spec.init[static_cast<std::size_t>(B)] = model.bias;
  spec.output_arrays = {"scores"};

  std::vector<double> flat;
  flat.reserve(static_cast<std::size_t>(S * C));
  for (const auto& r : fixture.golden) {
    flat.insert(flat.end(), r.begin(), r.end());
  }
  spec.golden.push_back(std::move(flat));
  return spec;
}

std::vector<std::vector<double>> svm_scores_golden(const SvmModel& model,
                                                   const SvmDataset& test) {
  std::vector<std::vector<double>> rows(static_cast<std::size_t>(test.samples));
  for (int s = 0; s < test.samples; ++s) {
    auto& row = rows[static_cast<std::size_t>(s)];
    row.resize(static_cast<std::size_t>(model.classes));
    for (int c = 0; c < model.classes; ++c) {
      double acc = model.bias[static_cast<std::size_t>(c)];
      for (int f = 0; f < model.features; ++f) {
        acc += test.x[static_cast<std::size_t>(s * model.features + f)] *
               model.weights[static_cast<std::size_t>(c * model.features + f)];
      }
      row[static_cast<std::size_t>(c)] = acc;
    }
  }
  return rows;
}

std::vector<std::vector<double>> reshape_scores(const std::vector<double>& flat,
                                                int samples, int classes) {
  std::vector<std::vector<double>> rows(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    rows[static_cast<std::size_t>(s)].assign(
        flat.begin() + static_cast<std::ptrdiff_t>(s * classes),
        flat.begin() + static_cast<std::ptrdiff_t>((s + 1) * classes));
  }
  return rows;
}

}  // namespace sfrv::kernels
