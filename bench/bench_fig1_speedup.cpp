// Figure 1 reproduction: speedup of smallFloat types over scalar float,
// per benchmark, for automatic and manual vectorization, plus the ideal
// (Amdahl) speedup.
//
// Paper reference points (Section V-B):
//   float16  auto: avg 1.34x, max 1.64x;  manual: avg 1.50x, peak 1.91x
//   float8   auto: avg 2.18x, max 3.08x;  manual: avg 2.35x, peak 3.58x
#include <cstdio>

#include "bench_util.hpp"

namespace sfrv::bench {
namespace {

void run_figure1() {
  print_header(
      "Figure 1: speedup vs scalar float (auto | manual | ideal)");
  const ir::ScalarType types[] = {ir::ScalarType::F16, ir::ScalarType::F16Alt,
                                  ir::ScalarType::F8};
  std::printf("%-8s", "bench");
  for (const auto t : types) {
    std::printf(" | %-11s auto    man  ideal", std::string(ir::type_name(t)).c_str());
  }
  std::printf("\n");
  print_row_rule(98);

  std::vector<double> avg_auto[3], avg_man[3], avg_ideal[3];
  for (const auto& b : kernels::benchmark_suite()) {
    std::printf("%-8s", b.name.c_str());
    const auto base =
        run(b, TypeConfig::uniform(ir::ScalarType::F32), ir::CodegenMode::Scalar);
    int ti = 0;
    for (const auto t : types) {
      const auto autov = run(b, TypeConfig::uniform(t), ir::CodegenMode::AutoVec);
      const auto man =
          run(b, TypeConfig::uniform(t), ir::CodegenMode::ManualVec);
      const double sa =
          static_cast<double>(base.cycles()) / static_cast<double>(autov.cycles());
      const double sm =
          static_cast<double>(base.cycles()) / static_cast<double>(man.cycles());
      // Ideal: innermost loops of the scalar-float build sped up by the lane
      // count with zero overhead.
      const int vl = ir::lanes32(t);
      const double ideal =
          static_cast<double>(base.cycles()) / base.ideal_cycles(vl);
      std::printf(" | %15.2f %6.2f %6.2f", sa, sm, ideal);
      avg_auto[ti].push_back(sa);
      avg_man[ti].push_back(sm);
      avg_ideal[ti].push_back(ideal);
      ++ti;
    }
    std::printf("\n");
  }
  print_row_rule(98);
  std::printf("%-8s", "average");
  for (int ti = 0; ti < 3; ++ti) {
    std::printf(" | %15.2f %6.2f %6.2f", geomean(avg_auto[ti]),
                geomean(avg_man[ti]), geomean(avg_ideal[ti]));
  }
  std::printf("\n\npaper:   float16 auto avg 1.34 / manual avg 1.50 (peak 1.91)"
              "; float8 auto avg 2.18 (max 3.08) / manual avg 2.35 (peak 3.58)\n");
}

}  // namespace
}  // namespace sfrv::bench

int main() {
  sfrv::bench::run_figure1();
  return 0;
}
