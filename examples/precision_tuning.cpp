// Automatic precision tuning demo (paper Section V-C): search the
// variable-to-type assignment of the SVM under a QoR constraint with the
// greedy (fpPrecisionTuning-style) and exhaustive tuners.
//
// Two cost objectives are shown:
//  * execution cycles on the smallFloat platform (what the ISA extensions
//    make cheap: the expanding Xfaux ops favour exactly the paper's
//    float16-data/float-accumulator assignment), and
//  * total variable bit-width (the fpPrecisionTuning objective).
//
// Build & run:  ./build/examples/precision_tuning
#include <cstdio>
#include <map>

#include "kernels/qor.hpp"
#include "kernels/suite.hpp"
#include "tuner/tuner.hpp"

using namespace sfrv;
using ir::ScalarType;

namespace {

struct Measured {
  double accuracy = 0;
  double cycles = 0;
};

Measured measure(const tuner::TypeVector& t) {
  static std::map<std::pair<int, int>, Measured> cache;
  const auto key = std::make_pair(static_cast<int>(t[0]), static_cast<int>(t[1]));
  if (const auto it = cache.find(key); it != cache.end()) return it->second;
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

tuner::Problem problem(double threshold, bool cycles_cost) {
  tuner::Problem p;
  p.slot_names = {"data (inputs/weights)", "accumulator"};
  p.slot_domains = {
      {ScalarType::F8, ScalarType::F16Alt, ScalarType::F16, ScalarType::F32},
      {ScalarType::F8, ScalarType::F16Alt, ScalarType::F16, ScalarType::F32}};
  p.qor = [](const tuner::TypeVector& t) { return measure(t).accuracy; };
  if (cycles_cost) {
    p.cost = [](const tuner::TypeVector& t) { return measure(t).cycles; };
  } else {
    p.cost = [](const tuner::TypeVector& t) {
      return static_cast<double>(ir::width_bits(t[0]) + ir::width_bits(t[1]));
    };
  }
  p.qor_threshold = threshold;
  return p;
}

void report(const char* title, const tuner::Result& r,
            const tuner::Problem& p) {
  std::printf("\n%s\n", title);
  std::printf("  evaluations: %zu\n", r.explored.size());
  if (!r.found) {
    std::printf("  no feasible configuration\n");
    return;
  }
  for (std::size_t s = 0; s < p.slot_names.size(); ++s) {
    std::printf("  %-22s -> %s\n", p.slot_names[s].c_str(),
                std::string(ir::type_name(r.best.types[s])).c_str());
  }
  const auto m = measure(r.best.types);
  std::printf("  accuracy %.1f%%, %.0f cycles\n", 100 * m.accuracy, m.cycles);
}

}  // namespace

int main() {
  std::printf("precision tuning of the gesture SVM "
              "(QoR = classification accuracy)\n");

  const auto strict_cyc = problem(1.0, true);
  report("strict constraint, cycle cost - exhaustive:",
         tuner::tune_exhaustive(strict_cyc), strict_cyc);
  report("strict constraint, cycle cost - greedy:",
         tuner::tune_greedy(strict_cyc), strict_cyc);

  const auto strict_width = problem(1.0, false);
  report("strict constraint, bit-width cost (fpPrecisionTuning objective):",
         tuner::tune_exhaustive(strict_width), strict_width);

  const auto relaxed = problem(0.95, true);
  report("relaxed constraint (>= 95% accuracy), cycle cost:",
         tuner::tune_exhaustive(relaxed), relaxed);

  std::printf(
      "\npaper Section V-C: the strict constraint assigns float to the "
      "accumulation and float16 to the other variables; tolerating ~5%% "
      "errors lets the tuner shrink the accumulator type further\n");
  return 0;
}
