// Differential out-of-bounds semantics: the reference interpreter, the JIT's
// cold tier, and its cached-base-pointer trace path share one bounds
// predicate (sim::mem_access_oob) and one exception (throw_mem_oob), so a
// faulting access must throw the same type with the same fully-retired state
// — and the same exception *message* — on every path: each simulator
// configuration of kSimConfigs through run(), and the jit's cold tier
// through step(). Covers the edges that predicate folds together: the first
// byte, the last byte, the 32-bit address-space wrap at UINT32_MAX, and a
// mid-vector fault where the first element of a VL-governed packed access is
// in bounds and a later one is not.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asmb/assembler.hpp"
#include "sim/core.hpp"
#include "sim/memory.hpp"
#include "sim_util.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using isa::Op;
namespace reg = asmb::reg;

/// One execution path: a simulator configuration and how it is driven.
/// run() compiles every jit block, so the fault happens inside a trace;
/// step() retires every op on the jit's cold tier.
struct Path {
  SimConfig config;
  bool step;
  [[nodiscard]] std::string name() const {
    return std::string(config.name) + (step ? " cold tier" : "");
  }
};

/// Every configuration through run(), then jit-grs through step().
std::vector<Path> paths() {
  std::vector<Path> out;
  for (const SimConfig& c : kSimConfigs) out.push_back({c, false});
  out.push_back({kJitGrs, true});
  return out;
}

constexpr std::uint32_t kMemSize = 8u << 20;  // MemConfig default

struct Outcome {
  bool threw = false;
  std::string message;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint32_t pc = 0;
  std::uint64_t f1 = 0;
  std::uint32_t last_byte = 0;  // memory()[kMemSize - 1] after the run
};

/// Run `body` on one path and capture whether/where it faulted plus the
/// retired state the fault left behind.
Outcome run_one(const std::function<void(Assembler&)>& body, const Path& p) {
  Assembler a;
  body(a);
  sim::Core core = make_core(p.config);
  core.load_program(a.finish());
  Outcome o;
  try {
    if (p.step) {
      for (int n = 0; n < 1'000'000 && !core.halted(); ++n) core.step();
    } else {
      core.run(1'000'000);
    }
  } catch (const std::out_of_range& ex) {
    o.threw = true;
    o.message = ex.what();
  }
  o.instructions = core.stats().instructions;
  o.cycles = core.stats().cycles;
  o.pc = core.pc();
  o.f1 = core.f_bits(1);
  std::uint8_t last = 0;
  core.memory().read_block(kMemSize - 1, &last, 1);
  o.last_byte = last;
  return o;
}

/// Run on every path and require identical outcomes; returns the first
/// path's outcome for the caller's own assertions.
Outcome run_differential(const std::function<void(Assembler&)>& body) {
  const std::vector<Path> all = paths();
  const Outcome ref = run_one(body, all[0]);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const Outcome o = run_one(body, all[i]);
    const std::string name = all[i].name();
    EXPECT_EQ(o.threw, ref.threw) << name;
    EXPECT_EQ(o.message, ref.message) << name;
    EXPECT_EQ(o.instructions, ref.instructions) << name;
    EXPECT_EQ(o.cycles, ref.cycles) << name;
    EXPECT_EQ(o.pc, ref.pc) << name;
    EXPECT_EQ(o.f1, ref.f1) << name;
    EXPECT_EQ(o.last_byte, ref.last_byte) << name;
  }
  return ref;
}

TEST(MemOob, FirstAndLastByteInBoundsOnePastFaults) {
  // Last byte: lbu at size-1 succeeds, lbu at size faults identically.
  const Outcome ok = run_differential([](Assembler& a) {
    a.li(reg::t0, static_cast<std::int32_t>(kMemSize - 1));
    a.emit({.op = Op::LBU, .rd = reg::t1, .rs1 = reg::t0});
    a.li(reg::t0, 0);  // first byte is equally legal
    a.emit({.op = Op::LBU, .rd = reg::t2, .rs1 = reg::t0});
    a.ebreak();
  });
  EXPECT_FALSE(ok.threw) << ok.message;

  const Outcome fault = run_differential([](Assembler& a) {
    a.li(reg::t0, static_cast<std::int32_t>(kMemSize));
    a.emit({.op = Op::LBU, .rd = reg::t1, .rs1 = reg::t0});
    a.ebreak();
  });
  EXPECT_TRUE(fault.threw);

  // A word load whose final byte is one past the end faults too.
  const Outcome straddle = run_differential([](Assembler& a) {
    a.li(reg::t0, static_cast<std::int32_t>(kMemSize - 3));
    a.lw(reg::t1, 0, reg::t0);
    a.ebreak();
  });
  EXPECT_TRUE(straddle.threw);
}

TEST(MemOob, WrapAtUint32MaxFaults) {
  // addr + n overflows past UINT32_MAX: the sum wraps to a small value and
  // must still be rejected, not treated as an in-bounds low address.
  const Outcome wrap = run_differential([](Assembler& a) {
    a.li(reg::t0, -4);  // 0xFFFFFFFC
    a.lw(reg::t1, 0, reg::t0);
    a.ebreak();
  });
  EXPECT_TRUE(wrap.threw);

  const Outcome wrap_store = run_differential([](Assembler& a) {
    a.li(reg::t0, -1);  // 0xFFFFFFFF: a single byte store wraps
    a.emit({.op = Op::SB, .rs1 = reg::t0, .rs2 = reg::t1});
    a.ebreak();
  });
  EXPECT_TRUE(wrap_store.threw);
}

TEST(MemOob, MidVectorFaultLeavesLoadTargetUntouched) {
  // vflh at size-2 under vl=2: element 0 is the last legal halfword,
  // element 1 is out of bounds. The packed load writes rd only after every
  // element succeeded, so f1 must keep its previous value — identically
  // across the interpreter and the JIT's inlined fast path.
  const Outcome o = run_differential([](Assembler& a) {
    a.li(reg::t1, 4);
    a.setvl(reg::zero, reg::t1, 1, 0);  // vl = 2
    a.li(reg::t0, static_cast<std::int32_t>(kMemSize - 2));
    a.vflh(1, 0, reg::t0);
    a.ebreak();
  });
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.f1, 0u);  // untouched
}

TEST(MemOob, MidVectorStoreFaultWritesLowerElementsOnly) {
  // vfsh at size-2 under vl=2: element 0 lands on the final halfword,
  // element 1 faults. Element-ordered store semantics: the last byte of
  // memory holds element 0's high byte on every path.
  const Outcome o = run_differential([](Assembler& a) {
    a.li(reg::t1, 4);
    a.setvl(reg::zero, reg::t1, 1, 0);  // vl = 2
    a.li(reg::t0, 0x5678);
    a.emit({.op = Op::FMV_H_X, .rd = 1, .rs1 = reg::t0});
    a.li(reg::t0, static_cast<std::int32_t>(kMemSize - 2));
    a.vfsh(1, 0, reg::t0);
    a.ebreak();
  });
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.last_byte, 0x56u);  // element 0's high byte landed
}

}  // namespace
}  // namespace sfrv::test
