// Gesture-recognition case study (paper Section V-C): train a linear SVM on
// synthetic EMG-like data, then run inference on the smallFloat simulator
// under several precision schemes and compare cycles, energy and accuracy.
//
// Build & run:  ./build/examples/gesture_recognition
#include <cstdio>

#include "energy/model.hpp"
#include "kernels/qor.hpp"
#include "kernels/suite.hpp"

using namespace sfrv;
using kernels::TypeConfig;

int main() {
  const auto& fx = kernels::svm_fixture();
  std::printf("gesture SVM: %d classes, %d features, %d train / %d test samples\n",
              fx.model.classes, fx.model.features, fx.train.samples,
              fx.test.samples);

  std::printf("reference (double) accuracy: %.1f%%\n\n",
              100 * kernels::classification_accuracy(fx.golden, fx.test.labels));

  struct Scheme {
    const char* name;
    TypeConfig tc;
    ir::CodegenMode mode;
  };
  const Scheme schemes[] = {
      {"float (scalar)", TypeConfig::uniform(ir::ScalarType::F32),
       ir::CodegenMode::Scalar},
      {"float16, auto-vec", TypeConfig::uniform(ir::ScalarType::F16),
       ir::CodegenMode::AutoVec},
      {"float16, manual", TypeConfig::uniform(ir::ScalarType::F16),
       ir::CodegenMode::ManualVec},
      {"mixed f16+f32acc", {ir::ScalarType::F16, ir::ScalarType::F32},
       ir::CodegenMode::ManualVec},
      {"float16alt", TypeConfig::uniform(ir::ScalarType::F16Alt),
       ir::CodegenMode::ManualVec},
      {"float8", TypeConfig::uniform(ir::ScalarType::F8),
       ir::CodegenMode::ManualVec},
  };

  const energy::EnergyModel em;
  const sim::MemConfig mem;
  double base_cycles = 0, base_energy = 0;
  std::printf("%-20s %10s %9s %9s %10s\n", "scheme", "cycles", "speedup",
              "energy", "accuracy");
  for (const auto& s : schemes) {
    const auto spec = kernels::make_svm(s.tc, fx);
    const auto r = kernels::run_kernel(spec, s.mode, mem);
    const double cyc = static_cast<double>(r.cycles());
    const double e = em.total_pj(r.stats, mem);
    if (base_cycles == 0) {
      base_cycles = cyc;
      base_energy = e;
    }
    const auto rows = kernels::reshape_scores(r.outputs.at("scores"),
                                              fx.test.samples, fx.model.classes);
    std::printf("%-20s %10.0f %8.2fx %8.2fx %9.1f%%\n", s.name, cyc,
                base_cycles / cyc, e / base_energy,
                100 * kernels::classification_accuracy(rows, fx.test.labels));
  }
  std::printf("\nthe tuned mixed scheme keeps float accuracy at float16-level "
              "cost -- the transprecision result of the paper's case study\n");
  return 0;
}
