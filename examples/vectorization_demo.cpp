// Vectorization demo (the paper's Fig. 5 walk-through): one dot-product
// kernel, three code generators. Prints the inner loop each backend emits
// and the measured cycle counts.
//
// Build & run:  ./build/example_vectorization_demo
#include <cstdio>

#include "isa/disasm.hpp"
#include "kernels/runner.hpp"

using namespace sfrv;

namespace {

kernels::KernelSpec make_dotp(int n) {
  kernels::KernelSpec spec;
  auto& k = spec.kernel;
  k.name = "dotp";
  const int A = k.add_array("a", ir::ScalarType::F16, 1, n);
  const int B = k.add_array("b", ir::ScalarType::F16, 1, n);
  const int OUT = k.add_array("out", ir::ScalarType::F32, 1, 1);
  const int sum = k.add_var("sum", ir::ScalarType::F32);
  const int i = k.fresh_loop_var();

  k.body.push_back(ir::assign_var(sum, ir::Expr::constant(0.0)));
  ir::Loop li{i, 0, ir::Bound::fixed(n), {}};
  li.body.push_back(ir::accum_var(
      sum, ir::Expr::mul(ir::Expr::load({A, ir::Index::constant(0), {i, 0}}),
                         ir::Expr::load({B, ir::Index::constant(0), {i, 0}}))));
  k.body.push_back(std::move(li));
  k.body.push_back(
      ir::store({OUT, ir::Index::constant(0), ir::Index::constant(0)},
                ir::Expr::variable(sum)));

  spec.init.resize(3);
  std::vector<double> av(static_cast<std::size_t>(n)), bv(static_cast<std::size_t>(n));
  for (int x = 0; x < n; ++x) {
    av[static_cast<std::size_t>(x)] = 0.125 * ((x % 9) - 4);
    bv[static_cast<std::size_t>(x)] = 0.25 * ((x % 5) - 2);
  }
  spec.init[static_cast<std::size_t>(A)] = av;
  spec.init[static_cast<std::size_t>(B)] = bv;
  spec.output_arrays = {"out"};
  double acc = 0;
  for (int x = 0; x < n; ++x) acc += av[static_cast<std::size_t>(x)] * bv[static_cast<std::size_t>(x)];
  spec.golden.push_back({acc});
  return spec;
}

void show(const char* title, const kernels::KernelSpec& spec,
          ir::CodegenMode mode) {
  const auto r = kernels::run_kernel(spec, mode);
  std::printf("\n--- %s ---\n", title);
  for (const auto& [beg, end] : r.lowered.inner_ranges) {
    for (std::uint32_t pc = beg; pc < end; pc += 4) {
      const auto idx = (pc - r.text_base) / 4;
      std::printf("  %s\n",
                  isa::disassemble(r.lowered.program.text[idx], pc).c_str());
    }
  }
  std::printf("cycles: %llu, instructions: %llu, result: %.6f (golden %.6f)\n",
              static_cast<unsigned long long>(r.stats.cycles),
              static_cast<unsigned long long>(r.stats.instructions),
              r.outputs.at("out")[0], spec.golden[0][0]);
}

}  // namespace

int main() {
  std::printf("float16 dot product with a float accumulator\n"
              "  float16 *a, *b;  float sum = 0;\n"
              "  for (i = 0; i < 64; i++) sum += a[i] * b[i];\n");
  const auto spec = make_dotp(64);
  show("scalar (2x fcvt.s.h + fmadd.s)", spec, ir::CodegenMode::Scalar);
  show("auto-vectorized (vfmul.h + unpack + fcvt.s.h + fadd.s, Fig. 5 left)",
       spec, ir::CodegenMode::AutoVec);
  show("manually vectorized (vfdotpex.s.h, Fig. 5 right)", spec,
       ir::CodegenMode::ManualVec);
  return 0;
}
