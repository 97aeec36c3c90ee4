// Kernel execution harness: lower a kernel, run it on the simulator, pull
// typed outputs back as doubles, and expose the statistics the benches need.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ir/lower.hpp"
#include "sim/core.hpp"

namespace sfrv::kernels {

/// A benchmark instance: typed IR, input data, golden double reference.
struct KernelSpec {
  ir::Kernel kernel;
  std::vector<std::vector<double>> init;          ///< per array id (inputs)
  std::vector<std::string> output_arrays;         ///< arrays compared for QoR
  std::vector<std::vector<double>> golden;        ///< per output array
};

struct RunResult {
  sim::Stats stats;
  std::unordered_map<std::string, std::vector<double>> outputs;
  ir::LoweredKernel lowered;
  std::uint32_t text_base = 0;
  /// Accrued FP exception flags at halt (the O0-vs-optimized differential
  /// suite asserts these match bit-for-bit across opt levels).
  std::uint8_t fflags = 0;

  [[nodiscard]] std::uint64_t cycles() const { return stats.cycles; }

  /// Amdahl-style ideal cycle count if every innermost loop ran `vl` times
  /// faster with zero overhead (paper Fig. 1 dashed bars): total minus the
  /// measured innermost-loop cycles plus those cycles divided by vl.
  [[nodiscard]] double ideal_cycles(int vl) const;

  /// Concatenated outputs in declaration order (for SQNR over a benchmark).
  [[nodiscard]] std::vector<double> concat_outputs(
      const std::vector<std::string>& names) const;
};

/// Lower with `mode`, execute to completion, and read back every array in
/// `spec.output_arrays`. The engine, math backend, and optimization level
/// default to jit, grs and O0 (sfrv-eval's defaults); results are bit- and
/// cycle-identical across engines and backends.
[[nodiscard]] RunResult run_kernel(
    const KernelSpec& spec, ir::CodegenMode mode, sim::MemConfig mem = {},
    isa::IsaConfig cfg = isa::IsaConfig::full(),
    sim::Engine engine = sim::Engine::Jit,
    fp::MathBackend backend = fp::MathBackend::Grs,
    const ir::OptConfig& opt = ir::OptConfig::O0());

/// Execute an already-lowered kernel (the simulate half of run_kernel).
/// Separated so the eval planner can lower every cell up front — computing
/// content digests and consulting the cell store — and pay for simulation
/// only on cache misses.
[[nodiscard]] RunResult run_lowered(
    const KernelSpec& spec, const ir::LoweredKernel& lowered,
    sim::MemConfig mem = {}, isa::IsaConfig cfg = isa::IsaConfig::full(),
    sim::Engine engine = sim::Engine::Jit,
    fp::MathBackend backend = fp::MathBackend::Grs);

/// Content digest of a lowered kernel instance: a process-stable FNV-1a hash
/// over the encoded text image, the initialized data segment (which embeds
/// the quantized inputs), the memory layout bases, and the QoR reference
/// (output-array names and golden values). Any change to the kernel source,
/// its inputs, the code generator, or the optimizer that alters the program
/// or its reference changes the digest — this is what makes the eval cell
/// store content-addressed rather than name-addressed.
[[nodiscard]] std::uint64_t lowered_digest(const KernelSpec& spec,
                                           const ir::LoweredKernel& lowered);

}  // namespace sfrv::kernels
