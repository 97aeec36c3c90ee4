#include "kernels/runner.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "softfloat/runtime.hpp"

namespace sfrv::kernels {

using util::WordHash;

KernelData Benchmark::data() const { return build_data(); }

KernelSpec Benchmark::instantiate(TypeConfig tc, const KernelData& data) const {
  return {data, build_kernel(tc)};
}

KernelSpec Benchmark::make(TypeConfig tc) const {
  return {data(), build_kernel(tc)};
}

double RunResult::ideal_cycles(int vl) const {
  if (vl < 1) {
    throw std::invalid_argument("ideal_cycles: vl must be >= 1, got " +
                                std::to_string(vl));
  }
  // Lowering normalizes its ranges (sorted, non-overlapping), but hand-built
  // RunResults may not: merge overlaps so shared text is attributed once
  // instead of double-counted.
  auto ranges = lowered.inner_ranges;
  std::sort(ranges.begin(), ranges.end());
  std::uint64_t inner = 0;
  std::uint32_t covered_to = 0;
  for (const auto& [b, e] : ranges) {
    const std::uint32_t begin = std::max(b, covered_to);
    if (begin >= e) continue;
    inner += stats.cycles_in_range(text_base, begin, e);
    covered_to = e;
  }
  const auto total = static_cast<double>(stats.cycles);
  return total - static_cast<double>(inner) +
         static_cast<double>(inner) / static_cast<double>(vl);
}

std::vector<double> RunResult::concat_outputs(
    const std::vector<std::string>& names) const {
  std::vector<double> all;
  for (const auto& n : names) {
    const auto& v = outputs.at(n);
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

namespace {

/// The digest's first part, which every lowering of one kernel shares.
WordHash shared_part(const KernelSpec& spec, const asmb::Program& program) {
  WordHash h;
  h.pod(program.data_base);
  h.bytes(program.data.data(), program.data.size());
  // The QoR reference: SQNR (and accuracy) of a cached cell are functions of
  // the golden outputs too, so a reference change must change the address.
  for (const auto& name : spec.output_arrays) h.bytes(name.data(), name.size());
  for (const auto& g : spec.golden) {
    h.bytes(g.data(), g.size() * sizeof(double));
  }
  return h;
}

/// The digest's second part: the lowering's own text.
std::uint64_t with_text(WordHash h, const asmb::Program& program) {
  h.pod(program.text_base);
  h.bytes(program.text_words.data(),
          program.text_words.size() * sizeof(std::uint32_t));
  return h.value();
}

}  // namespace

std::uint64_t lowered_digest(const KernelSpec& spec,
                             const ir::LoweredKernel& lowered) {
  return with_text(shared_part(spec, lowered.program), lowered.program);
}

std::uint64_t KernelDigest::operator()(const ir::LoweredKernel& lowered) {
  const asmb::Program& program = lowered.program;
  if (!data_) {
    shared_ = shared_part(*spec_, program);
    data_base_ = program.data_base;
    data_ = program.data;
  } else if (program.data_base != data_base_ || program.data != *data_) {
    return lowered_digest(*spec_, lowered);
  }
  return with_text(shared_, program);
}

RunResult run_kernel(const KernelSpec& spec, ir::CodegenMode mode,
                     sim::MemConfig mem, isa::IsaConfig cfg,
                     sim::Engine engine, fp::MathBackend backend,
                     const ir::OptConfig& opt) {
  return run_lowered(spec, ir::lower(spec.kernel, mode, spec.init, opt), mem,
                     cfg, engine, backend);
}

RunResult run_lowered(const KernelSpec& spec, const ir::LoweredKernel& lowered,
                      sim::MemConfig mem, isa::IsaConfig cfg,
                      sim::Engine engine, fp::MathBackend backend) {
  RunResult r;
  r.lowered = lowered;
  sim::Core core(cfg, mem);
  core.set_engine(engine);
  core.set_backend(backend);
  core.load_program(r.lowered.program);
  if (core.run() != sim::Core::RunResult::Halted) {
    throw std::runtime_error("kernel did not halt: " + spec.kernel.name);
  }
  r.stats = core.stats();
  r.text_base = r.lowered.program.text_base;
  r.fflags = core.fflags();
  for (const auto& name : spec.output_arrays) {
    const auto& arr = spec.kernel.arrays[static_cast<std::size_t>(
        spec.kernel.array_index(name))];
    const auto addr = r.lowered.array_addr.at(name);
    const int esize = ir::width_bytes(arr.type);
    std::vector<double> vals(static_cast<std::size_t>(arr.elems()));
    for (int e = 0; e < arr.elems(); ++e) {
      std::uint64_t bits = 0;
      core.memory().read_block(addr + static_cast<std::uint32_t>(e * esize),
                               &bits, static_cast<std::size_t>(esize));
      vals[static_cast<std::size_t>(e)] =
          fp::rt_to_double(ir::fp_format(arr.type), bits);
    }
    r.outputs[name] = std::move(vals);
  }
  return r;
}

}  // namespace sfrv::kernels
