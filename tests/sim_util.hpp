// Helpers for simulator tests: the simulator configurations every
// differential test runs, and run_program, which builds a small program
// with the assembler, runs it on each configuration, and checks that they
// agree before handing one core back for inspection.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "asmb/assembler.hpp"
#include "sim/core.hpp"

namespace sfrv::test {

/// One simulator configuration: an engine and the math backend its
/// micro-ops bind.
struct SimConfig {
  sim::Engine engine;
  fp::MathBackend backend;
  const char* name;
};

inline constexpr SimConfig kJitGrs{sim::Engine::Jit, fp::MathBackend::Grs,
                                   "jit-grs"};
inline constexpr SimConfig kReference{sim::Engine::Reference,
                                      fp::MathBackend::Grs, "reference"};
inline constexpr SimConfig kJitFast{sim::Engine::Jit, fp::MathBackend::Fast,
                                    "jit-fast"};

/// The three distinct simulator configurations, the default (jit-grs)
/// first. The reference interpreter always computes through grs, so
/// reference with the fast backend would not be a fourth one.
inline constexpr SimConfig kSimConfigs[] = {kJitGrs, kReference, kJitFast};

/// gtest prints a SimConfig parameter by its name.
inline void PrintTo(const SimConfig& c, std::ostream* os) { *os << c.name; }

/// A core on configuration `c`, with no program loaded yet.
inline sim::Core make_core(const SimConfig& c,
                           const isa::IsaConfig& cfg = isa::IsaConfig::full(),
                           const sim::MemConfig& mem = {},
                           const sim::Timing& timing = {}) {
  sim::Core core(cfg, mem, timing);
  core.set_engine(c.engine);
  core.set_backend(c.backend);
  return core;
}

struct RunOptions {
  isa::IsaConfig cfg = isa::IsaConfig::full();
  sim::MemConfig mem{};
  sim::Timing timing{};
};

/// Compare the architectural and timing state of two cores running `prog`:
/// pc, halted, the x and f register files, fflags, frm, vl, every Stats
/// counter (per-op and per-pc included) and the program's data segment.
inline ::testing::AssertionResult same_state(sim::Core& a, sim::Core& b,
                                             const asmb::Program& prog) {
  const auto differ = [](const std::string& what, std::uint64_t va,
                          std::uint64_t vb) {
    return ::testing::AssertionFailure() << what << ": " << va << " != " << vb;
  };
  if (a.pc() != b.pc()) return differ("pc", a.pc(), b.pc());
  if (a.halted() != b.halted()) return differ("halted", a.halted(), b.halted());
  for (unsigned r = 0; r < 32; ++r) {
    if (a.x(r) != b.x(r)) {
      return differ("x" + std::to_string(r), a.x(r), b.x(r));
    }
    if (a.f_bits(r) != b.f_bits(r)) {
      return differ("f" + std::to_string(r), a.f_bits(r), b.f_bits(r));
    }
  }
  if (a.fflags() != b.fflags()) return differ("fflags", a.fflags(), b.fflags());
  if (a.frm() != b.frm()) {
    return differ("frm", static_cast<std::uint64_t>(a.frm()),
                  static_cast<std::uint64_t>(b.frm()));
  }
  if (a.context().vl != b.context().vl) {
    return differ("vl", a.context().vl, b.context().vl);
  }
  const sim::Stats& sa = a.stats();
  const sim::Stats& sb = b.stats();
  if (sa.cycles != sb.cycles) return differ("cycles", sa.cycles, sb.cycles);
  if (sa.instructions != sb.instructions) {
    return differ("instructions", sa.instructions, sb.instructions);
  }
  if (sa.load_count != sb.load_count) {
    return differ("load count", sa.load_count, sb.load_count);
  }
  if (sa.store_count != sb.store_count) {
    return differ("store count", sa.store_count, sb.store_count);
  }
  for (std::size_t i = 0; i < sa.op_count.size(); ++i) {
    if (sa.op_count[i] != sb.op_count[i]) {
      return differ(std::string(isa::mnemonic(static_cast<isa::Op>(i))) +
                        " count",
                    sa.op_count[i], sb.op_count[i]);
    }
  }
  if (sa.pc_cycles != sb.pc_cycles) {
    return ::testing::AssertionFailure() << "pc_cycles differ";
  }
  std::vector<std::uint8_t> da(prog.data.size()), db(prog.data.size());
  a.memory().read_block(prog.data_base, da.data(), da.size());
  b.memory().read_block(prog.data_base, db.data(), db.size());
  if (da != db) return ::testing::AssertionFailure() << "data segment differs";
  return ::testing::AssertionSuccess();
}

/// Assemble `body` (which must end the program, e.g. with ebreak), run it
/// on every configuration in kSimConfigs, fail the test where any of them
/// disagrees with jit-grs (see same_state), and return the halted jit-grs
/// core for inspection.
inline sim::Core run_program(const std::function<void(asmb::Assembler&)>& body,
                             const RunOptions& opts = {}) {
  asmb::Assembler a;
  body(a);
  const asmb::Program prog = a.finish();
  std::vector<sim::Core> cores;
  for (const SimConfig& c : kSimConfigs) {
    sim::Core core = make_core(c, opts.cfg, opts.mem, opts.timing);
    core.load_program(prog);
    if (core.run(50'000'000) != sim::Core::RunResult::Halted) {
      throw std::runtime_error(std::string("test program did not halt on ") +
                               c.name);
    }
    cores.push_back(std::move(core));
  }
  for (std::size_t i = 1; i < cores.size(); ++i) {
    EXPECT_TRUE(same_state(cores[0], cores[i], prog))
        << kSimConfigs[0].name << " vs " << kSimConfigs[i].name;
  }
  return std::move(cores[0]);
}

}  // namespace sfrv::test
