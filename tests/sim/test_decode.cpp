// Decode tests: DecodedOp lane plans, timing classes, folded cycles,
// executor tokens, pre-bound handlers, and piecewise handler execution over
// a bare ExecContext.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/decode.hpp"

namespace sfrv::sim {
namespace {

using fp::FpFormat;
using isa::Inst;
using isa::IsaConfig;
using isa::Op;

DecodedOp dec(Inst i, IsaConfig cfg = IsaConfig::full(),
              fp::MathBackend backend = fp::MathBackend::Grs) {
  return decode_op(i, 0, cfg, Timing{}, MemConfig{}, backend);
}

TEST(Decode, VectorLanePlansFollowTableII) {
  // FLEN=32: binary8 packs 4 lanes, the 16-bit formats pack 2.
  auto u = dec({.op = Op::VFADD_B});
  EXPECT_EQ(u.fmt, FpFormat::F8);
  EXPECT_EQ(u.width, 8);
  EXPECT_EQ(u.lanes, 4);

  u = dec({.op = Op::VFADD_H});
  EXPECT_EQ(u.fmt, FpFormat::F16);
  EXPECT_EQ(u.width, 16);
  EXPECT_EQ(u.lanes, 2);

  u = dec({.op = Op::VFMAC_AH});
  EXPECT_EQ(u.fmt, FpFormat::F16Alt);
  EXPECT_EQ(u.lanes, 2);

  // FLEN=64 doubles every lane count.
  u = dec({.op = Op::VFADD_B}, IsaConfig::full(64));
  EXPECT_EQ(u.lanes, 8);
  u = dec({.op = Op::VFADD_H}, IsaConfig::full(64));
  EXPECT_EQ(u.lanes, 4);

  // Scalar ops carry a width but no lane plan.
  u = dec({.op = Op::FADD_H});
  EXPECT_EQ(u.width, 16);
  EXPECT_EQ(u.lanes, 0);
}

TEST(Decode, XfauxOpsBindExpandingPlans) {
  // Expanding dot product: packed smallFloat operands, f32 accumulator.
  auto u = dec({.op = Op::VFDOTPEX_S_H});
  EXPECT_EQ(u.fmt, FpFormat::F16);
  EXPECT_EQ(u.lanes, 2);
  EXPECT_FALSE(u.replicate);
  u = dec({.op = Op::VFDOTPEX_S_R_B});
  EXPECT_EQ(u.lanes, 4);
  EXPECT_TRUE(u.replicate);

  // Expanding scalar ops read the small width and write binary32.
  u = dec({.op = Op::FMACEX_S_B});
  EXPECT_EQ(u.width, 32);
  EXPECT_EQ(u.width2, 8);
}

TEST(Decode, ConversionWidthsArePreResolved) {
  auto u = dec({.op = Op::FCVT_H_S});
  EXPECT_EQ(u.width, 16);
  EXPECT_EQ(u.width2, 32);
  u = dec({.op = Op::FCVT_S_B});
  EXPECT_EQ(u.width, 32);
  EXPECT_EQ(u.width2, 8);
}

TEST(Decode, ReplicationVariants) {
  EXPECT_FALSE(dec({.op = Op::VFADD_B}).replicate);
  EXPECT_TRUE(dec({.op = Op::VFADD_R_B}).replicate);
  EXPECT_TRUE(dec({.op = Op::VFMAC_R_H}).replicate);
}

TEST(Decode, TimingClasses) {
  EXPECT_EQ(dec({.op = Op::LW}).tclass, TimingClass::Load);
  EXPECT_EQ(dec({.op = Op::FLH}).tclass, TimingClass::Load);
  EXPECT_EQ(dec({.op = Op::SW}).tclass, TimingClass::Store);
  EXPECT_EQ(dec({.op = Op::FSB}).tclass, TimingClass::Store);
  EXPECT_EQ(dec({.op = Op::JAL}).tclass, TimingClass::Jump);
  EXPECT_EQ(dec({.op = Op::BEQ}).tclass, TimingClass::Branch);
  EXPECT_EQ(dec({.op = Op::ADD}).tclass, TimingClass::None);
  EXPECT_EQ(dec({.op = Op::FADD_S}).tclass, TimingClass::None);
}

TEST(Decode, BaseCyclesPreResolveIterativeUnits) {
  // At the default L1 latencies these ops' folded cycles are their base
  // cycles.
  EXPECT_EQ(dec({.op = Op::ADD}).cycles, 1);
  EXPECT_EQ(dec({.op = Op::DIV}).cycles, 32);
  EXPECT_EQ(dec({.op = Op::FDIV_S}).cycles, 15);
  EXPECT_EQ(dec({.op = Op::FDIV_H}).cycles, 9);
  EXPECT_EQ(dec({.op = Op::FDIV_B}).cycles, 5);
  EXPECT_EQ(dec({.op = Op::FSQRT_S}).cycles, 15);
  EXPECT_EQ(dec({.op = Op::VFSQRT_B}).cycles, 5);
}

TEST(Decode, FoldsMemoryLatencyJumpPenaltyAndTargets) {
  MemConfig l3;
  l3.set_level(kMemL3);
  const Timing tim;
  const auto at = [&](Inst i, std::uint32_t pc) {
    return decode_op(i, pc, IsaConfig::full(), tim, l3);
  };
  EXPECT_EQ(at({.op = Op::LW}, 0).cycles, 100);
  EXPECT_EQ(at({.op = Op::FSW}, 0).cycles, 1);  // posted store
  const auto jal = at({.op = Op::JAL, .rd = 1, .imm = -8}, 0x100);
  EXPECT_EQ(jal.cycles, 1 + tim.jump_penalty);
  EXPECT_EQ(jal.top, TOp::Jal);
  EXPECT_EQ(jal.p0, 0xf8u);
  EXPECT_EQ(jal.p1, 0x104u);
  const auto bne = at({.op = Op::BNE, .rs1 = 5, .imm = 12}, 0x100);
  EXPECT_EQ(bne.top, TOp::Bne);
  EXPECT_EQ(bne.p0, 0x10cu);
  EXPECT_EQ(bne.p1, 0x104u);
  const auto auipc = at({.op = Op::AUIPC, .rd = 3, .imm = 0x2000}, 0x100);
  EXPECT_EQ(auipc.top, TOp::LoadImm);
  EXPECT_EQ(auipc.p0, 0x2100u);
  // A pure op writing x0 runs as Nop; a CSR op is stop-class and exits a
  // trace at its own pc.
  EXPECT_EQ(at({.op = Op::AUIPC, .imm = 0x2000}, 0x100).top, TOp::Nop);
  const auto csr = at({.op = Op::CSRRS, .rd = 5, .imm = 0xc00}, 0x100);
  EXPECT_EQ(csr.top, TOp::Exit);
  EXPECT_EQ(csr.p1, 0x100u);
  EXPECT_EQ(csr.cont, jit::token_label(TOp::Exit));
}

TEST(Decode, UnsupportedOpsBindFaultingHandler) {
  // Faults must fire at execution time (when the PC reaches the op), not at
  // load time -- matching the reference interpreter.
  const auto u = dec({.op = Op::FADD_H}, IsaConfig::rv32imf());
  ASSERT_NE(u.fn, nullptr);
  ExecContext ctx;
  EXPECT_THROW(u.fn(ctx, u), SimError);
}

TEST(Decode, VectorOpsUnsupportedAtNarrowFlen) {
  const auto u = dec({.op = Op::VFADD_H}, IsaConfig::full(16));
  ExecContext ctx;
  EXPECT_THROW(u.fn(ctx, u), SimError);
  // binary8 vectors still fit two lanes in FLEN=16.
  EXPECT_EQ(dec({.op = Op::VFADD_B}, IsaConfig::full(16)).lanes, 2);
}

TEST(Decode, HandlersExecutePiecewise) {
  // An integer handler driven directly, no Core involved.
  auto u = dec({.op = Op::ADDI, .rd = 5, .rs1 = 6, .imm = 42});
  ExecContext ctx;
  ctx.x[6] = 100;
  u.fn(ctx, u);
  EXPECT_EQ(ctx.x[5], 142u);
  EXPECT_EQ(ctx.pc, 4u);

  // A scalar FP handler: result must match the softfloat table directly.
  u = dec({.op = Op::FADD_H, .rd = 3, .rs1 = 1, .rs2 = 2, .rm = isa::kRmDyn});
  ctx.f[1] = 0x3c00;  // 1.0 (binary16)
  ctx.f[2] = 0x4000;  // 2.0
  u.fn(ctx, u);
  EXPECT_EQ(ctx.f[3] & 0xffff, 0x4200u);  // 3.0
  EXPECT_EQ(ctx.pc, 8u);

  // A packed handler with the full 4-lane binary8 plan.
  u = dec({.op = Op::VFADD_B, .rd = 4, .rs1 = 1, .rs2 = 2});
  ctx.f[1] = 0x3c3c3c3c;  // 1.0 in all four binary8 lanes
  ctx.f[2] = 0x3c3c3c3c;
  u.fn(ctx, u);
  EXPECT_EQ(ctx.f[4], 0x40404040u);  // 2.0 lanewise
}

TEST(Decode, WritesToX0AreDiscarded) {
  auto u = dec({.op = Op::ADDI, .rd = 0, .rs1 = 0, .imm = 7});
  ExecContext ctx;
  u.fn(ctx, u);
  EXPECT_EQ(ctx.x[0], 0u);
}

TEST(Decode, ProgramLoweringPreservesIndexing) {
  const std::vector<Inst> text = {
      {.op = Op::ADDI, .rd = 1, .rs1 = 0, .imm = 1},
      {.op = Op::FADD_S, .rd = 2, .rs1 = 1, .rs2 = 1, .rm = isa::kRmDyn},
      {.op = Op::EBREAK},
  };
  const auto uops =
      decode_program(text, 0x1000, IsaConfig::full(), Timing{}, MemConfig{});
  // One micro-op per instruction, then the stop-class sentinel.
  ASSERT_EQ(uops.size(), text.size() + 1);
  for (std::size_t k = 0; k < text.size(); ++k) {
    EXPECT_EQ(uops[k].op, text[k].op) << k;
    ASSERT_NE(uops[k].fn, nullptr) << k;
    EXPECT_EQ(uops[k].cont, jit::token_label(uops[k].top)) << k;
  }
  const DecodedOp& sentinel = uops.back();
  EXPECT_EQ(sentinel.top, TOp::Exit);
  EXPECT_EQ(sentinel.p1, 0x1000u + 4 * text.size());
  // Reaching it is a fetch past the end of the text.
  ExecContext ctx;
  ctx.pc = sentinel.p1;
  EXPECT_THROW(sentinel.fn(ctx, sentinel), SimError);
}

// A supported op the decoder had no handler for would run a faulting
// placeholder and end traces early. No op any shipped configuration
// supports may reach it: each binds a real handler, and only the CSR class
// is stop-class -- except setvl, which writes just vl and rd and decodes to
// the straight-line Setvl token.
TEST(Decode, EverySupportedOpBindsARealHandler) {
  // Under both backend tables: the fast one binds its own entry points.
  for (const auto backend : {fp::MathBackend::Grs, fp::MathBackend::Fast}) {
    for (const IsaConfig cfg :
         {IsaConfig::full(32), IsaConfig::full(64), IsaConfig::rv32imf()}) {
      int supported = 0;
      for (std::size_t k = 0; k < isa::kNumOps; ++k) {
        const auto op = static_cast<Op>(k);
        if (!cfg.supports(op)) continue;
        ++supported;
        const std::string name = std::string(isa::mnemonic(op)) + " (" +
                                 std::string(fp::backend_name(backend)) + ")";
        const DecodedOp u = dec({.op = op}, cfg, backend);
        const bool csr = isa::op_class(op) == isa::Cls::Csr;
        EXPECT_EQ(u.top == TOp::Exit, csr && op != Op::SETVL) << name;
        if (op == Op::SETVL) {
          EXPECT_EQ(u.top, TOp::Setvl);
        }
        // Run the handler on a bare context (no memory: accesses throw
        // std::out_of_range; CSR 0 is unimplemented).
        ExecContext ctx;
        try {
          u.fn(ctx, u);
        } catch (const SimError& e) {
          EXPECT_EQ(std::string(e.what()).find("unhandled"),
                    std::string::npos)
              << name << ": " << e.what();
        } catch (const std::out_of_range&) {
        }
      }
      EXPECT_GT(supported, 0) << cfg.flen;
    }
  }
}

}  // namespace
}  // namespace sfrv::sim
