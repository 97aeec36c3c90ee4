// Precision-tuner tests: synthetic problems with known optima, and the
// paper's Section V-C case study (variable-to-type assignment for the SVM).
#include <gtest/gtest.h>

#include <map>

#include "energy/model.hpp"
#include "kernels/qor.hpp"
#include "kernels/suite.hpp"
#include "tuner/tuner.hpp"

namespace sfrv::tuner {
namespace {

using ir::ScalarType;

double width_cost(const TypeVector& t) {
  double w = 0;
  for (auto x : t) w += ir::width_bits(x);
  return w;
}

TEST(Tuner, ExhaustiveFindsCheapestFeasible) {
  // QoR grows with total width; threshold demands at least 48 bits total.
  Problem p;
  p.slot_names = {"a", "b"};
  p.slot_domains = {{ScalarType::F8, ScalarType::F16, ScalarType::F32},
                    {ScalarType::F8, ScalarType::F16, ScalarType::F32}};
  p.qor = [](const TypeVector& t) { return width_cost(t); };
  p.cost = width_cost;
  p.qor_threshold = 48;
  const auto r = tune_exhaustive(p);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.best.cost, 48);  // 16+32 or 32+16
  EXPECT_EQ(r.explored.size(), 9u);
}

TEST(Tuner, GreedyPromotesTheEffectiveSlot) {
  // Only slot "b" affects QoR: greedy must widen b, not a.
  Problem p;
  p.slot_names = {"a", "b"};
  p.slot_domains = {{ScalarType::F8, ScalarType::F16, ScalarType::F32},
                    {ScalarType::F8, ScalarType::F16, ScalarType::F32}};
  p.qor = [](const TypeVector& t) {
    return static_cast<double>(ir::width_bits(t[1]));
  };
  p.cost = width_cost;
  p.qor_threshold = 32;
  const auto r = tune_greedy(p);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.best.types[0], ScalarType::F8) << "slot a stays narrow";
  EXPECT_EQ(r.best.types[1], ScalarType::F32);
}

TEST(Tuner, InfeasibleProblemReportsFailure) {
  Problem p;
  p.slot_names = {"a"};
  p.slot_domains = {{ScalarType::F8, ScalarType::F16}};
  p.qor = [](const TypeVector&) { return 0.0; };
  p.cost = width_cost;
  p.qor_threshold = 1.0;
  EXPECT_FALSE(tune_greedy(p).found);
  EXPECT_FALSE(tune_exhaustive(p).found);
}

/// The Section V-C case study: tune {data, accumulator} types of the SVM
/// under a strict accuracy constraint, minimizing execution cycles (the
/// platform objective: the Xfaux expanding ops make the mixed assignment
/// both the fastest and the accurate one).
class SvmCaseStudy : public ::testing::Test {
 protected:
  struct Measured {
    double accuracy = 0;
    double cycles = 0;
  };

  static Measured measure(const TypeVector& t) {
    static std::map<std::pair<int, int>, Measured> cache;
    const auto key = std::make_pair(static_cast<int>(t[0]), static_cast<int>(t[1]));
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    const auto& f = kernels::svm_fixture();
    const auto spec = kernels::make_svm({t[0], t[1]}, f);
    const auto r = kernels::run_kernel(spec, ir::CodegenMode::ManualVec);
    const auto rows = kernels::reshape_scores(r.outputs.at("scores"),
                                              f.test.samples, f.model.classes);
    Measured m;
    m.accuracy = kernels::classification_accuracy(rows, f.test.labels);
    m.cycles = static_cast<double>(r.cycles());
    cache[key] = m;
    return m;
  }

  static Problem svm_problem(double threshold) {
    Problem p;
    p.slot_names = {"data", "accumulator"};
    p.slot_domains = {
        {ScalarType::F8, ScalarType::F16Alt, ScalarType::F16, ScalarType::F32},
        {ScalarType::F8, ScalarType::F16Alt, ScalarType::F16, ScalarType::F32}};
    p.qor = [](const TypeVector& t) { return measure(t).accuracy; };
    p.cost = [](const TypeVector& t) { return measure(t).cycles; };
    p.qor_threshold = threshold;
    return p;
  }
};

TEST_F(SvmCaseStudy, StrictConstraintPicksThePaperAssignment) {
  // Paper: "a float variable for the final accumulation and float16 for
  // other variables" under the no-classification-errors constraint.
  const auto r = tune_exhaustive(svm_problem(1.0));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.best.types[0], ScalarType::F16) << "data assigned float16";
  EXPECT_EQ(r.best.types[1], ScalarType::F32) << "accumulator assigned float";
  EXPECT_EQ(measure(r.best.types).accuracy, 1.0);
  // Narrower alternatives violate the constraint: all-float16 loses a
  // classification, float8 data loses several.
  EXPECT_LT(measure({ScalarType::F16, ScalarType::F16}).accuracy, 1.0);
  EXPECT_LT(measure({ScalarType::F8, ScalarType::F32}).accuracy, 1.0);
}

TEST_F(SvmCaseStudy, GreedyFindsAFeasibleConfig) {
  const auto g = tune_greedy(svm_problem(1.0));
  ASSERT_TRUE(g.found);
  EXPECT_EQ(measure(g.best.types).accuracy, 1.0);
}

TEST_F(SvmCaseStudy, RelaxedConstraintAllowsNarrowerCheaperTypes) {
  // Paper: tolerating ~5% errors lets the type assignment shrink further.
  const auto strict = tune_exhaustive(svm_problem(1.0));
  const auto relaxed = tune_exhaustive(svm_problem(0.95));
  ASSERT_TRUE(strict.found);
  ASSERT_TRUE(relaxed.found);
  EXPECT_LT(relaxed.best.cost, strict.best.cost);
  EXPECT_LT(ir::width_bits(relaxed.best.types[0]) +
                ir::width_bits(relaxed.best.types[1]),
            ir::width_bits(strict.best.types[0]) +
                ir::width_bits(strict.best.types[1]));
}

}  // namespace
}  // namespace sfrv::tuner
