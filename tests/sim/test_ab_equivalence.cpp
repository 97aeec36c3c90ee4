// Randomized differential suite: the jit trace-compilation engine, on its
// compiled traces and on its cold tier and under both math backends, must
// match the retained reference interpreter bit-for-bit on architectural
// state (x/f register files, the scratch buffer, fflags/frm, vl) AND on
// the timing model (cycles, instruction/load/store counts, per-op and
// per-pc counters; same_state in sim_util.hpp) across every extension
// configuration. Each stream runs on every simulator configuration of
// kSimConfigs (jit-grs, reference, jit-fast). Streams read the cycle CSR
// mid-run, so a single mis-accounted cycle also shows up as an
// architectural divergence.
//
// Each random stream runs three ways:
//  * free-run — every configuration to completion at full speed (compiled
//    traces, and the jit's cold tier for stop-class ops), final state
//    compared;
//  * per-instruction lockstep — run(1) on all cores, full state compared
//    after every retired instruction (a budget shorter than a compiled
//    trace hands off to the cold tier, so this drives one-instruction
//    cold-tier budgets from trace heads);
//  * random-chunk lockstep — run(k), k in [1, 8], so trace prefixes run on
//    the cold tier, whole traces run compiled, and state is compared at
//    interior pcs.
// The streams' jalr groups produce dynamic targets that skip an
// instruction (the +12 skip), covering mid-trace jalr entry, and their CSR
// ops (stop-class, retired on the cold tier) read the cycle and instret
// counters right after a trace exits, which checks that every trace books
// its accounting as it exits.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "asmb/assembler.hpp"
#include "sim/core.hpp"
#include "sim_util.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using isa::Cls;
using isa::IsaConfig;
using isa::Lay;
using isa::Op;
namespace reg = asmb::reg;

constexpr std::uint8_t kBaseReg = reg::s0;  // holds the scratch-buffer address
constexpr std::size_t kBufBytes = 256;

class StreamGen {
 public:
  StreamGen(const IsaConfig& cfg, std::uint64_t seed) : rng_(seed) {
    for (std::size_t k = 0; k < isa::kNumOps; ++k) {
      const Op op = static_cast<Op>(k);
      if (!cfg.supports(op)) continue;
      // ECALL/EBREAK would end the stream early.
      if (op == Op::ECALL || op == Op::EBREAK) continue;
      pool_.push_back(op);
    }
  }

  /// Emit `count` random instruction groups into `a`, followed by ebreak.
  /// JALR expands to a two-instruction auipc pair, so "skip one" forward
  /// displacements are only allowed when the following group is a single
  /// instruction (a skip landing mid-pair would read a garbage base).
  void emit_stream(Assembler& a, int count) {
    std::vector<Op> ops(static_cast<std::size_t>(count));
    for (auto& op : ops) op = pick_op();
    for (int i = 0; i < count; ++i) {
      const bool allow_skip = i + 1 < count && ops[i + 1] != Op::JALR;
      const Op op = ops[i];
      if (op == Op::JALR) {
        // Register-indirect targets are made trackable with an auipc pair:
        // target = auipc_pc + imm lands on the next instruction (+8) or
        // skips one (+12). rd may alias the base, exercising the
        // read-before-link-write ordering.
        std::uint8_t base = int_rd();
        if (base == 0) base = reg::t1;
        a.emit({.op = Op::AUIPC, .rd = base, .imm = 0});
        a.emit({.op = Op::JALR, .rd = int_rd(), .rs1 = base,
                .imm = fwd_imm(allow_skip) + 4});
        continue;
      }
      a.emit(random_inst(op, allow_skip));
    }
    a.ebreak();
  }

 private:
  Op pick_op() { return pool_[rng_() % pool_.size()]; }
  std::uint8_t xreg() { return static_cast<std::uint8_t>(rng_() & 31); }
  std::uint8_t freg() { return static_cast<std::uint8_t>(rng_() & 31); }
  /// Integer destination that never clobbers the scratch-buffer base.
  std::uint8_t int_rd() {
    const auto r = xreg();
    return r == kBaseReg ? static_cast<std::uint8_t>(r + 1) : r;
  }
  std::uint8_t rand_rm() {
    const std::uint8_t m[] = {0, 1, 2, 3, 4, isa::kRmDyn};
    return m[rng_() % 6];
  }
  std::int32_t mem_offset() {
    return static_cast<std::int32_t>(rng_() % 63) * 4;
  }
  /// Forward branch/jump displacement that stays inside the stream: +8 skips
  /// one instruction, +4 is a plain fall-through (taken or not).
  std::int32_t fwd_imm(bool allow_skip) {
    return (allow_skip && (rng_() & 1) != 0) ? 8 : 4;
  }

  isa::Inst random_inst(Op op, bool allow_skip) {
    isa::Inst i{.op = op};
    const auto cls = isa::op_class(op);
    switch (isa::layout(op)) {
      case Lay::U:
        i.rd = int_rd();
        i.imm = static_cast<std::int32_t>((rng_() & 0xfffff) << 12);
        break;
      case Lay::J:
        i.rd = int_rd();
        i.imm = fwd_imm(allow_skip);
        break;
      case Lay::Bimm:
        i.rs1 = xreg();
        i.rs2 = xreg();
        i.imm = fwd_imm(allow_skip);
        break;
      case Lay::Iimm:
        if (cls == Cls::Load || cls == Cls::FpLoad) {
          i.rd = cls == Cls::Load ? int_rd() : freg();
          i.rs1 = kBaseReg;
          i.imm = mem_offset();
        } else {
          i.rd = int_rd();
          i.rs1 = xreg();
          i.imm = static_cast<std::int32_t>(rng_() & 0xfff) - 2048;
        }
        break;
      case Lay::Simm:
        i.rs1 = kBaseReg;
        i.rs2 = cls == Cls::Store ? xreg() : freg();
        i.imm = mem_offset();
        break;
      case Lay::Shamt:
        i.rd = int_rd();
        i.rs1 = xreg();
        i.imm = static_cast<std::int32_t>(rng_() & 31);
        break;
      case Lay::R:
        i.rd = int_rd();
        i.rs1 = xreg();
        i.rs2 = xreg();
        break;
      case Lay::FullWord:
        break;  // fence
      case Lay::Csr: {
        const std::int32_t addrs[] = {0x001, 0x002, 0x003, 0xc00, 0xc02};
        i.rd = int_rd();
        i.rs1 = xreg();  // zimm for the I variants: same 5-bit range
        i.imm = addrs[rng_() % 5];
        break;
      }
      case Lay::FpRrm:
      case Lay::FpR2:
        i.rd = isa::rd_is_int(op) ? int_rd() : freg();
        i.rs1 = freg();
        i.rs2 = freg();
        i.rm = rand_rm();
        break;
      case Lay::FpR4:
        i.rd = freg();
        i.rs1 = freg();
        i.rs2 = freg();
        i.rs3 = freg();
        i.rm = rand_rm();
        break;
      case Lay::FpUnaryRm:
      case Lay::FpUnary:
        i.rd = isa::rd_is_int(op) ? int_rd() : freg();
        i.rs1 = isa::rs1_is_int(op) ? xreg() : freg();
        i.rm = rand_rm();
        break;
      case Lay::Vec:
        i.rd = isa::rd_is_int(op) ? int_rd() : freg();
        i.rs1 = freg();
        i.rs2 = freg();
        break;
      case Lay::VecUnary:
        i.rd = freg();
        i.rs1 = freg();
        break;
    }
    return i;
  }

  std::mt19937_64 rng_;
  std::vector<Op> pool_;
};

/// Seed a core with the random architectural state of `seed` (every core of
/// one stream gets the same).
void seed_state(sim::Core& core, std::uint64_t seed) {
  std::mt19937_64 sr(seed ^ 0x5eed5eed5eed5eedull);
  for (unsigned r = 1; r < 32; ++r) {
    core.set_x(r, static_cast<std::uint32_t>(sr()));
  }
  for (unsigned r = 0; r < 32; ++r) core.set_f_bits(r, sr());
  core.set_fflags(static_cast<std::uint8_t>(sr() & 0x1f));
  core.set_frm(static_cast<fp::RoundingMode>(sr() % 5));
}

/// "<config 0> vs <config i>", for cores built in kSimConfigs order.
std::string versus(std::size_t i) {
  return std::string(kSimConfigs[0].name) + " vs " + kSimConfigs[i].name;
}

/// A random stream over a zeroed scratch buffer, which is the program's
/// whole data segment (so same_state compares everything it stores).
asmb::Program make_stream(const IsaConfig& cfg, std::uint64_t seed,
                          int count) {
  Assembler a;
  a.la(kBaseReg, a.data_zero(kBufBytes));
  StreamGen gen(cfg, seed);
  gen.emit_stream(a, count);
  return a.finish();
}

/// All differential cores for one stream, one per simulator configuration
/// (kSimConfigs order), each seeded with the same random state.
std::vector<sim::Core> make_cores(const IsaConfig& cfg,
                                  const asmb::Program& prog,
                                  std::uint64_t seed) {
  std::vector<sim::Core> cores;
  for (const SimConfig& c : kSimConfigs) {
    sim::Core core = make_core(c, cfg);
    core.load_program(prog);
    seed_state(core, seed);
    cores.push_back(std::move(core));
  }
  return cores;
}

/// Lockstep every core in chunks of `chunk(rng)` instructions, comparing
/// the full state at every chunk boundary.
template <typename ChunkFn>
void lockstep(const IsaConfig& cfg, const asmb::Program& prog,
              std::uint64_t seed, ChunkFn chunk) {
  std::vector<sim::Core> cores = make_cores(cfg, prog, seed);
  std::mt19937_64 cr(seed ^ 0xC0DEC0DEC0DEull);
  for (std::uint64_t retired = 0; retired < 1'000'000;) {
    const std::uint64_t k = chunk(cr);
    for (auto& c : cores) c.run(k);
    retired += k;
    for (std::size_t i = 1; i < cores.size(); ++i) {
      ASSERT_TRUE(same_state(cores[0], cores[i], prog))
          << versus(i) << " seed=" << seed << " after " << retired
          << " budgeted steps";
    }
    if (cores[0].halted()) break;
  }
  ASSERT_TRUE(cores[0].halted()) << "stream did not halt, seed=" << seed;
}

/// Run one random stream on every configuration; returns executed
/// instructions.
std::uint64_t run_stream(const IsaConfig& cfg, std::uint64_t seed, int count) {
  const asmb::Program prog = make_stream(cfg, seed, count);

  // Free-run: every core at full speed (cold blocks + compiled traces).
  std::vector<sim::Core> cores = make_cores(cfg, prog, seed);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    EXPECT_EQ(cores[i].run(1'000'000), sim::Core::RunResult::Halted)
        << kSimConfigs[i].name << " seed=" << seed;
  }
  for (std::size_t i = 1; i < cores.size(); ++i) {
    EXPECT_TRUE(same_state(cores[0], cores[i], prog))
        << versus(i) << " seed=" << seed;
  }

  // Per-instruction lockstep: state checked at every retired instruction.
  lockstep(cfg, prog, seed,
           [](std::mt19937_64&) -> std::uint64_t { return 1; });
  // Random-chunk lockstep: several instructions between observation points.
  lockstep(cfg, prog, seed,
           [](std::mt19937_64& r) -> std::uint64_t { return 1 + r() % 8; });

  return cores[0].stats().instructions;
}

void run_config(const IsaConfig& cfg) {
  std::uint64_t executed = 0;
  for (std::uint64_t s = 0; s < 8; ++s) {
    executed += run_stream(cfg, 0xAB000000u + s, 1500);
  }
  EXPECT_GE(executed, 10'000u) << "stream generator under-delivers coverage";
}

TEST(AbEquivalence, FullSmallFloatConfig) { run_config(IsaConfig::full()); }

TEST(AbEquivalence, Rv32imfBaseline) { run_config(IsaConfig::rv32imf()); }

TEST(AbEquivalence, FullConfigFlen64) { run_config(IsaConfig::full(64)); }

TEST(AbEquivalence, FullConfigFlen16) { run_config(IsaConfig::full(16)); }

TEST(AbEquivalence, IntegerOnlyConfig) {
  run_config(IsaConfig({isa::Ext::I, isa::Ext::M, isa::Ext::Zicsr}, 32));
}

TEST(AbEquivalence, PositOnlyConfig) {
  // Without the IEEE smallFloat extensions the stream pool concentrates on
  // the posit scalar/vector ops and vfexsdotp.p16.p8, giving them the same
  // differential engine fuzz density the IEEE formats get from full().
  run_config(IsaConfig(
      {isa::Ext::I, isa::Ext::M, isa::Ext::Zicsr, isa::Ext::F,
       isa::Ext::Xposit},
      32));
}

TEST(AbEquivalence, FuzzPoolCoversPositAndExSdotp) {
  // The stream generator draws from every op full() supports: pin that the
  // PR 7 additions are actually in that pool, so the differential coverage
  // above cannot silently regress to the pre-posit op set.
  const IsaConfig cfg = IsaConfig::full();
  for (const Op op :
       {Op::FADD_P8, Op::FMADD_P16, Op::FSQRT_P8, Op::FCVT_P8_P16,
        Op::VFADD_P8, Op::VFMAC_P8, Op::VFDOTPEX_S_P8,
        Op::VFEXSDOTP_H_B, Op::VFEXSDOTP_R_H_B, Op::VFEXSDOTP_S_H,
        Op::VFEXSDOTP_S_AH, Op::VFEXSDOTP_P16_P8, Op::VFEXSDOTP_R_P16_P8}) {
    EXPECT_TRUE(cfg.supports(op)) << isa::mnemonic(op);
  }
}

TEST(AbEquivalence, FuzzPoolCoversDynamicVl) {
  // Same guard for the dynamic-VL additions: setvl (random ew/cap fields and
  // AVL values, including zero and oversize grants) and the VL-aware packed
  // memops must stay in the differential fuzz pool, so every engine's VL
  // masking, trace keying, and partial-width memory access get differential
  // coverage from the streams above.
  const IsaConfig cfg = IsaConfig::full();
  for (const Op op :
       {Op::SETVL, Op::VFLB, Op::VFLH, Op::VFSB, Op::VFSH}) {
    EXPECT_TRUE(cfg.supports(op)) << isa::mnemonic(op);
  }
}

/// Runs `prog` to a `Fault` on one core per simulator configuration, each
/// through run(), plus a jit-grs core driven by step(), which retires every
/// op on the cold tier. The cores come in kSimConfigs order, the stepped
/// jit core last.
template <typename Fault>
std::vector<sim::Core> run_until_fault(const asmb::Program& prog) {
  std::vector<sim::Core> cores;
  const auto load = [&](const SimConfig& c) {
    sim::Core core = make_core(c);
    core.load_program(prog);
    return core;
  };
  for (const SimConfig& c : kSimConfigs) {
    sim::Core core = load(c);
    EXPECT_THROW(core.run(), Fault) << c.name;
    cores.push_back(std::move(core));
  }
  sim::Core stepped = load(kJitGrs);
  EXPECT_THROW(
      for (int n = 0; n < 1000 && !stepped.halted(); ++n) stepped.step(),
      Fault);
  cores.push_back(std::move(stepped));
  return cores;
}

/// Every core retired to the first core's state, and the stepped jit core
/// got there without compiling a trace.
void expect_same_fault_state(std::vector<sim::Core>& cores,
                             const asmb::Program& prog) {
  for (std::size_t i = 1; i < cores.size(); ++i) {
    EXPECT_TRUE(same_state(cores[0], cores[i], prog))
        << (i < std::size(kSimConfigs) ? versus(i) : "stepped jit-grs");
  }
  EXPECT_EQ(cores.back().jit_stats().translations, 0u);
}

// Falling through the last text instruction (no ebreak) must raise the same
// fetch fault with the same fully-retired state on every configuration — an
// open trace must stop at the end of the text, not walk off the micro-ops.
TEST(EngineFaults, FallthroughOffTextEndMatchesAllEngines) {
  Assembler a;
  a.addi(asmb::reg::t0, asmb::reg::zero, 1);
  a.addi(asmb::reg::t1, asmb::reg::zero, 2);
  a.addi(asmb::reg::t2, asmb::reg::zero, 3);
  const asmb::Program prog = a.finish();
  auto cores = run_until_fault<sim::SimError>(prog);
  EXPECT_EQ(cores[0].stats().instructions, 3u);
  expect_same_fault_state(cores, prog);
}

// A memory fault mid-block (addi + out-of-bounds lw) must leave the same
// post-exception state on every configuration: the addi retired (pc,
// cycles, instret, register write), the load did not.
TEST(EngineFaults, MemoryFaultRetiresPrecedingOps) {
  Assembler a;
  a.li(asmb::reg::t0, 0x7ff00000);  // far outside the 8 MiB memory (lui)
  a.addi(asmb::reg::t1, asmb::reg::zero, 7);
  a.emit({.op = Op::LW, .rd = asmb::reg::t2, .rs1 = asmb::reg::t0});
  a.ebreak();
  const asmb::Program prog = a.finish();
  auto cores = run_until_fault<std::out_of_range>(prog);
  EXPECT_EQ(cores[0].x(asmb::reg::t1), 7u);  // the addi's write landed
  EXPECT_EQ(cores[0].stats().instructions, 2u);  // lui + addi
  expect_same_fault_state(cores, prog);
}

}  // namespace
}  // namespace sfrv::test
