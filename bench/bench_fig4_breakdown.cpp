// Figure 4 reproduction: dynamic instruction-count breakdown for the SVM
// benchmark under mixed precision (float16 data, float accumulator):
// the original scalar float program vs automatic vs manual vectorization.
//
// Paper observations to reproduce:
//  * auto-vectorization converts float scalar ops into scalar+vector f16 ops
//    and roughly halves memory instructions, but adds ALU and conversion
//    overhead that eats the gain;
//  * manual vectorization removes the conversions (expanding Xfaux ops) and
//    the scalar f16 leftovers, and trims the ALU overhead.
#include <cstdio>

#include "bench_util.hpp"

namespace sfrv::bench {
namespace {

struct Breakdown {
  std::uint64_t mem = 0;
  std::uint64_t alu = 0;
  std::uint64_t fp32 = 0;
  std::uint64_t fp16_scalar = 0;
  std::uint64_t fp16_vector = 0;
  std::uint64_t conversions = 0;
  std::uint64_t expanding = 0;
  std::uint64_t total = 0;
};

Breakdown classify(const sim::Stats& stats) {
  Breakdown bd;
  for (std::size_t i = 0; i < isa::kNumOps; ++i) {
    const auto op = static_cast<isa::Op>(i);
    const auto n = stats.op_count[i];
    if (n == 0) continue;
    bd.total += n;
    using isa::Cls;
    switch (isa::op_class(op)) {
      case Cls::Load:
      case Cls::Store:
      case Cls::FpLoad:
      case Cls::FpStore:
        bd.mem += n;
        break;
      case Cls::IntAlu:
      case Cls::IntMul:
      case Cls::IntDiv:
      case Cls::Branch:
      case Cls::Jump:
      case Cls::Csr:
      case Cls::Sys:
        bd.alu += n;
        break;
      case Cls::FpCvt:
      case Cls::FpCvtToInt:
      case Cls::FpCvtFromInt:
      case Cls::FpMvToX:
      case Cls::FpMvFromX:
      case Cls::FpCpk:
        bd.conversions += n;
        break;
      case Cls::FpDotp:
      case Cls::FpMacEx:
      case Cls::FpMulEx:
        bd.expanding += n;
        break;
      default:
        if (isa::op_format(op) == isa::OpFmt::S) {
          bd.fp32 += n;
        } else if (isa::is_vector(op)) {
          bd.fp16_vector += n;
        } else {
          bd.fp16_scalar += n;
        }
    }
  }
  return bd;
}

void print_breakdown(const char* name, const Breakdown& b) {
  std::printf("%-14s %8llu %8llu %8llu %8llu %8llu %8llu %8llu %9llu\n", name,
              static_cast<unsigned long long>(b.mem),
              static_cast<unsigned long long>(b.alu),
              static_cast<unsigned long long>(b.fp32),
              static_cast<unsigned long long>(b.fp16_scalar),
              static_cast<unsigned long long>(b.fp16_vector),
              static_cast<unsigned long long>(b.conversions),
              static_cast<unsigned long long>(b.expanding),
              static_cast<unsigned long long>(b.total));
}

void run_figure4() {
  print_header("Figure 4: SVM instruction-count breakdown, mixed precision");
  const auto& f = kernels::svm_fixture();
  const TypeConfig mixed{ir::ScalarType::F16, ir::ScalarType::F32};
  const auto spec_float =
      kernels::make_svm(TypeConfig::uniform(ir::ScalarType::F32), f);
  const auto spec_mixed = kernels::make_svm(mixed, f);

  const auto orig = kernels::run_kernel(spec_float, ir::CodegenMode::Scalar);
  const auto autov = kernels::run_kernel(spec_mixed, ir::CodegenMode::AutoVec);
  const auto man = kernels::run_kernel(spec_mixed, ir::CodegenMode::ManualVec);

  std::printf("%-14s %8s %8s %8s %8s %8s %8s %8s %9s\n", "version", "mem",
              "alu", "fp32", "f16-scal", "f16-vec", "conv", "expand", "total");
  print_row_rule(96);
  print_breakdown("original", classify(orig.stats));
  print_breakdown("auto-vec", classify(autov.stats));
  print_breakdown("manual-vec", classify(man.stats));
  std::printf(
      "\nexpected shape (paper): auto-vec halves mem but adds conv+alu "
      "overhead; manual-vec removes conversions via Xfaux expanding ops\n");
}

}  // namespace
}  // namespace sfrv::bench

int main() {
  sfrv::bench::run_figure4();
  return 0;
}
