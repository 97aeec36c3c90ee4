// Linear multi-class SVM for the gesture-recognition case study (paper
// Section V-C, after Benatti et al.).
//
// Substitution note: the EMG dataset is proprietary; a synthetic
// Gaussian-cluster dataset with controlled margins exercises the same inference
// code path (per-class dot products over a feature vector) and reproduces the
// precision/accuracy trade-off the case study reports (float/mixed exact,
// narrower accumulators losing classifications).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "kernels/polybench.hpp"

namespace sfrv::kernels {

struct SvmModel {
  int classes = 0;
  int features = 0;
  std::vector<double> weights;  // classes x features
  std::vector<double> bias;     // classes
};

struct SvmDataset {
  int samples = 0;
  int features = 0;
  std::vector<double> x;    // samples x features
  std::vector<int> labels;  // samples
};

/// Train/test split drawn from the same per-class Gaussian clusters.
struct GestureData {
  SvmDataset train;
  SvmDataset test;
};

/// Deterministic synthetic gesture dataset: per-class Gaussian clusters in
/// feature space (EMG-envelope-like scale), split into train and test.
[[nodiscard]] GestureData make_gesture_data(int classes, int features,
                                            int train_per_class,
                                            int test_per_class,
                                            double noise_sigma,
                                            std::uint64_t seed);

/// One-vs-all ridge-regression training (normal equations, host double).
[[nodiscard]] SvmModel train_svm(const SvmDataset& train, int classes,
                                 double ridge_lambda = 1e-3);

/// Golden double-precision scores, one row per sample.
[[nodiscard]] std::vector<std::vector<double>> svm_scores_golden(
    const SvmModel& model, const SvmDataset& test);

/// A trained model with its test set and the test set's reference scores.
/// The scores do not depend on the TypeConfig, so they are computed once,
/// with the fixture, for all of its kernel builds.
struct SvmFixture {
  SvmDataset train;
  SvmDataset test;
  SvmModel model;
  std::vector<std::vector<double>> golden;  ///< svm_scores_golden(model, test)

  SvmFixture(SvmDataset train_set, SvmModel trained, SvmDataset test_set)
      : train(std::move(train_set)),
        test(std::move(test_set)),
        model(std::move(trained)),
        golden(svm_scores_golden(model, test)) {}
};

/// Inference kernel over the fixture's test set:
/// scores[s][c] = bias[c] + sum_f x[s][f] * w[c][f]. Arrays x/w use
/// tc.data; bias/scores/accumulator use tc.acc (the paper's tuned
/// assignment is data = float16, acc = float). `fixture` is called for the
/// fixture each time a part is built, so a suite can build it on first use
/// (svm_fixture()); the fixture it returns must outlive that part's build.
[[nodiscard]] Benchmark svm(std::function<const SvmFixture&()> fixture);

/// One instance: svm(fixture) at `tc`.
[[nodiscard]] KernelSpec make_svm(TypeConfig tc, const SvmFixture& fixture);

/// Reshape a flat scores output array into per-sample rows.
[[nodiscard]] std::vector<std::vector<double>> reshape_scores(
    const std::vector<double>& flat, int samples, int classes);

}  // namespace sfrv::kernels
