// Kernel execution harness: lower a kernel, run it on the simulator, pull
// typed outputs back as doubles, and expose the statistics the benches need.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/lower.hpp"
#include "sim/core.hpp"
#include "util/wordhash.hpp"

namespace sfrv::kernels {

/// Variable-to-type assignment: `data` types the arrays, `acc` the
/// reduction accumulators (mixed precision uses acc wider than data).
struct TypeConfig {
  ir::ScalarType data = ir::ScalarType::F32;
  ir::ScalarType acc = ir::ScalarType::F32;

  static TypeConfig uniform(ir::ScalarType t) { return {t, t}; }
};

/// The part of a benchmark instance that no TypeConfig changes: the input
/// values, the arrays compared for QoR and the golden double reference.
struct KernelData {
  std::vector<std::vector<double>> init;          ///< per array id (inputs)
  std::vector<std::string> output_arrays;         ///< arrays compared for QoR
  std::vector<std::vector<double>> golden;        ///< per output array
};

/// A benchmark instance: input data and golden reference, plus the IR
/// typed for one TypeConfig.
struct KernelSpec : KernelData {
  ir::Kernel kernel;
};

/// A suite benchmark in its two parts: the data, built once for every
/// TypeConfig, and the typed IR of one TypeConfig, whose array ids index
/// the data's `init`.
struct Benchmark {
  std::string name;
  std::function<KernelData()> build_data;
  std::function<ir::Kernel(TypeConfig)> build_kernel;

  /// The TypeConfig-independent part: build_data(), behind a named
  /// out-of-line call so that profiles can attribute it (bench_profile's
  /// "benchmark data" row).
  [[nodiscard]] KernelData data() const;
  /// The instance at `tc` over data built once: a copy of `data` with the
  /// IR typed for `tc`.
  [[nodiscard]] KernelSpec instantiate(TypeConfig tc,
                                       const KernelData& data) const;
  /// The instance at `tc`: the two parts composed.
  [[nodiscard]] KernelSpec make(TypeConfig tc) const;
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

/// Content digest of a lowered kernel instance: a process-stable word-wise
/// hash (util::WordHash, eight bytes per step) over the memory layout bases,
/// the initialized data segment (which embeds the quantized inputs), the
/// encoded text image, and the QoR reference (output-array names and golden
/// values). Any change to the kernel source, its inputs, the code generator,
/// or the optimizer that alters the program or its reference changes the
/// digest — this is what makes the eval cell store content-addressed rather
/// than name-addressed. The bytes are hashed in two parts: first what every
/// lowering of the kernel shares (data base, data segment, output-array
/// names, golden values), then the lowering's own text base and text words,
/// so KernelDigest can hash the first part once.
[[nodiscard]] std::uint64_t lowered_digest(const KernelSpec& spec,
                                           const ir::LoweredKernel& lowered);

/// lowered_digest over many lowerings of one kernel. The first call hashes
/// the shared part and keeps the hash state with the data segment it hashed;
/// a later lowering whose data base and data segment are byte-equal resumes
/// from that state and hashes only its text, and any other lowering is
/// hashed in full. Every call returns exactly lowered_digest(spec, lowered).
/// `spec` must outlive the KernelDigest.
class KernelDigest {
 public:
  explicit KernelDigest(const KernelSpec& spec) : spec_(&spec) {}

  [[nodiscard]] std::uint64_t operator()(const ir::LoweredKernel& lowered);

 private:
  const KernelSpec* spec_;
  std::optional<std::vector<std::uint8_t>> data_;  ///< the segment hashed
  std::uint32_t data_base_ = 0;
  util::WordHash shared_;  ///< the state after the shared part
};

}  // namespace sfrv::kernels
