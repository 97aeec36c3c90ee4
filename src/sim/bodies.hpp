// The straight-line op bodies: outside the reference interpreter, the one
// definition of each straight-line executor token (decode.hpp's TOp) --
// Nop and LoadImm, the 27 integer-ALU ops, the 14 scalar loads/stores,
// setvl, and the seven common FP shapes. decode.cpp expands every body into
// the token's cold-tier handler (the body plus `pc += 4`), and jit.cpp
// expands it into the token's label in the threaded trace executor, so both
// tiers run the same code.
//
// A body sees `c` (ExecContext&) and `u` (const DecodedOp&) and never
// writes pc. ALU and LoadImm bodies write x[rd] unguarded: decode lowers
// every such op with rd = x0 to Nop (the trace checker enforces it). Load
// and setvl bodies keep the set_x guard, because the op must still happen:
// a load can fault, and setvl writes vl. Memory bodies go through the
// context's cached backing store (ExecContext::load8 and friends), gated by
// the shared mem_access_oob(). The FP shapes call the bound softfloat
// pointer, so one body serves both math backends; the packed ones compute
// only the lanes active under the live vl and merge the destination tail
// back.
#pragma once

#include <climits>
#include <cstdint>

#include "sim/decode.hpp"

namespace sfrv::sim::bodies {

/// RV32M div: x / 0 = -1, INT32_MIN / -1 = INT32_MIN.
[[nodiscard]] constexpr std::uint32_t div32(std::uint32_t a,
                                            std::uint32_t b) {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  if (sb == 0) return ~0u;
  if (sa == INT32_MIN && sb == -1) return a;
  return static_cast<std::uint32_t>(sa / sb);
}

/// RV32M rem: x % 0 = x, INT32_MIN % -1 = 0.
[[nodiscard]] constexpr std::uint32_t rem32(std::uint32_t a,
                                            std::uint32_t b) {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  if (sb == 0) return a;
  if (sa == INT32_MIN && sb == -1) return 0;
  return static_cast<std::uint32_t>(sa % sb);
}

[[nodiscard]] constexpr std::int64_t sext64(std::uint32_t v) {
  return static_cast<std::int32_t>(v);
}

[[nodiscard]] constexpr std::uint32_t sext8(std::uint8_t v) {
  return static_cast<std::uint32_t>(
      static_cast<std::int32_t>(static_cast<std::int8_t>(v)));
}

[[nodiscard]] constexpr std::uint32_t sext16(std::uint16_t v) {
  return static_cast<std::uint32_t>(
      static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
}

[[nodiscard]] constexpr std::uint32_t sra32(std::uint32_t v, std::uint32_t sh) {
  return static_cast<std::uint32_t>(static_cast<std::int32_t>(v) >> (sh & 31));
}

[[nodiscard]] constexpr std::uint32_t slt32(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b) ? 1 : 0;
}

}  // namespace sfrv::sim::bodies

// EXPR sees `rs1`, `rs2` (register values) and `imm` (as unsigned).
#define SFRV_BODY_ALU(EXPR)                             \
  do {                                                  \
    const std::uint32_t rs1 = c.x[u.rs1];               \
    const std::uint32_t rs2 = c.x[u.rs2];               \
    const auto imm = static_cast<std::uint32_t>(u.imm); \
    (void)rs1;                                          \
    (void)rs2;                                          \
    (void)imm;                                          \
    c.x[u.rd] = (EXPR);                                 \
  } while (0)

#define SFRV_BODY_EA (c.x[u.rs1] + static_cast<std::uint32_t>(u.imm))

// Packed result merge: the low `bits` of r, the rest of rd undisturbed.
#define SFRV_BODY_MERGE(r, bits)                                    \
  do {                                                              \
    const std::uint64_t keep = width_mask(bits);                    \
    c.f[u.rd] = (((r) & keep) | (c.f[u.rd] & ~keep)) & c.flen_mask; \
  } while (0)

// The body list. S(name, body) for a body that cannot fault, M(name, body)
// for a memory body (it can throw std::out_of_range).
#define SFRV_STRAIGHT_BODIES(S, M)                                           \
  S(Nop, do {} while (0))                                                    \
  S(LoadImm, c.x[u.rd] = u.p0)                                               \
  S(Addi, SFRV_BODY_ALU(rs1 + imm))                                          \
  S(Slti, SFRV_BODY_ALU(static_cast<std::int32_t>(rs1) < u.imm ? 1 : 0))     \
  S(Sltiu, SFRV_BODY_ALU(rs1 < imm ? 1 : 0))                                 \
  S(Xori, SFRV_BODY_ALU(rs1 ^ imm))                                          \
  S(Ori, SFRV_BODY_ALU(rs1 | imm))                                           \
  S(Andi, SFRV_BODY_ALU(rs1 & imm))                                          \
  S(Slli, SFRV_BODY_ALU(rs1 << (imm & 31)))                                  \
  S(Srli, SFRV_BODY_ALU(rs1 >> (imm & 31)))                                  \
  S(Srai, SFRV_BODY_ALU(bodies::sra32(rs1, imm)))                            \
  S(Add, SFRV_BODY_ALU(rs1 + rs2))                                           \
  S(Sub, SFRV_BODY_ALU(rs1 - rs2))                                           \
  S(Sll, SFRV_BODY_ALU(rs1 << (rs2 & 31)))                                   \
  S(Slt, SFRV_BODY_ALU(bodies::slt32(rs1, rs2)))                             \
  S(Sltu, SFRV_BODY_ALU(rs1 < rs2 ? 1 : 0))                                  \
  S(Xor, SFRV_BODY_ALU(rs1 ^ rs2))                                           \
  S(Srl, SFRV_BODY_ALU(rs1 >> (rs2 & 31)))                                   \
  S(Sra, SFRV_BODY_ALU(bodies::sra32(rs1, rs2)))                             \
  S(Or, SFRV_BODY_ALU(rs1 | rs2))                                            \
  S(And, SFRV_BODY_ALU(rs1 & rs2))                                           \
  S(Mul, SFRV_BODY_ALU(rs1 * rs2))                                           \
  S(Mulh, SFRV_BODY_ALU(static_cast<std::uint32_t>(                          \
              (bodies::sext64(rs1) * bodies::sext64(rs2)) >> 32)))           \
  S(Mulhsu, SFRV_BODY_ALU(static_cast<std::uint32_t>(                        \
                (bodies::sext64(rs1) * static_cast<std::int64_t>(rs2)) >>    \
                32)))                                                        \
  S(Mulhu, SFRV_BODY_ALU(static_cast<std::uint32_t>(                         \
               (static_cast<std::uint64_t>(rs1) * rs2) >> 32)))              \
  S(Div, SFRV_BODY_ALU(bodies::div32(rs1, rs2)))                             \
  S(Divu, SFRV_BODY_ALU(rs2 == 0 ? ~0u : rs1 / rs2))                         \
  S(Rem, SFRV_BODY_ALU(bodies::rem32(rs1, rs2)))                             \
  S(Remu, SFRV_BODY_ALU(rs2 == 0 ? rs1 : rs1 % rs2))                         \
  M(Lb, c.set_x(u.rd, bodies::sext8(c.load8(SFRV_BODY_EA))))                \
  M(Lh, c.set_x(u.rd, bodies::sext16(c.load16(SFRV_BODY_EA))))              \
  M(Lw, c.set_x(u.rd, c.load32(SFRV_BODY_EA)))                               \
  M(Lbu, c.set_x(u.rd, c.load8(SFRV_BODY_EA)))                               \
  M(Lhu, c.set_x(u.rd, c.load16(SFRV_BODY_EA)))                              \
  M(Sb, c.store8(SFRV_BODY_EA, static_cast<std::uint8_t>(c.x[u.rs2])))       \
  M(Sh, c.store16(SFRV_BODY_EA, static_cast<std::uint16_t>(c.x[u.rs2])))     \
  M(Sw, c.store32(SFRV_BODY_EA, c.x[u.rs2]))                                 \
  M(Flw, c.write_fp(u.rd, 32, c.load32(SFRV_BODY_EA)))                       \
  M(Flh, c.write_fp(u.rd, 16, c.load16(SFRV_BODY_EA)))                       \
  M(Flb, c.write_fp(u.rd, 8, c.load8(SFRV_BODY_EA)))                         \
  M(Fsw, c.store32(SFRV_BODY_EA,                                             \
                   static_cast<std::uint32_t>(c.read_fp(u.rs2, 32))))        \
  M(Fsh, c.store16(SFRV_BODY_EA,                                             \
                   static_cast<std::uint16_t>(c.read_fp(u.rs2, 16))))        \
  M(Fsb, c.store8(SFRV_BODY_EA,                                              \
                  static_cast<std::uint8_t>(c.read_fp(u.rs2, 8))))           \
  /* vl = min(AVL in rs1, VLMAX, cap when nonzero); no x0 special case: */   \
  /* AVL 0 grants vl 0. Decode folds VLMAX into lanes, the cap into */       \
  /* width2. */                                                              \
  S(Setvl, do {                                                              \
    const std::uint32_t avl = c.x[u.rs1];                                    \
    std::uint32_t vl = avl < u.lanes ? avl : u.lanes;                        \
    if (u.width2 != 0 && vl > u.width2) vl = u.width2;                       \
    c.vl = vl;                                                               \
    c.set_x(u.rd, vl);                                                       \
  } while (0))                                                               \
  /* Scalar two-operand op (add/sub/mul/div, min/max, sign injection). */    \
  S(FpBin, do {                                                              \
    fp::Flags fl;                                                            \
    const fp::RoundingMode rm = c.resolve_rm(u.rm);                          \
    const std::uint64_t a = c.read_fp(u.rs1, u.width);                       \
    const std::uint64_t b = c.read_fp(u.rs2, u.width);                       \
    c.write_fp(u.rd, u.width, u.fp1.bin(a, b, rm, fl));                      \
    c.fflags |= fl.bits;                                                     \
  } while (0))                                                               \
  /* Scalar fused multiply-add rs1 * rs2 + rs3 (fmadd). */                   \
  S(FpFma, do {                                                              \
    fp::Flags fl;                                                            \
    const fp::RoundingMode rm = c.resolve_rm(u.rm);                          \
    const std::uint64_t a = c.read_fp(u.rs1, u.width);                       \
    const std::uint64_t b = c.read_fp(u.rs2, u.width);                       \
    const std::uint64_t d = c.read_fp(u.rs3, u.width);                       \
    c.write_fp(u.rd, u.width, u.fp1.tern(a, b, d, rm, fl));                  \
    c.fflags |= fl.bits;                                                     \
  } while (0))                                                               \
  /* Scalar FP <-> FP conversion: width is the destination width, width2 */  \
  /* the source width. */                                                    \
  S(FpCvt, do {                                                              \
    fp::Flags fl;                                                            \
    const std::uint64_t a = c.read_fp(u.rs1, u.width2);                      \
    c.write_fp(u.rd, u.width, u.fp1.cvt(a, c.resolve_rm(u.rm), fl));         \
    c.fflags |= fl.bits;                                                     \
  } while (0))                                                               \
  /* Packed lanewise binary op (.R variants broadcast lane 0 of rs2). */     \
  S(VecBin, do {                                                             \
    fp::Flags fl;                                                            \
    const int active = c.vl_active(u.lanes);                                 \
    const std::uint64_t r = u.fp1.vbin(c.f[u.rs1], c.f[u.rs2], active,       \
                                       u.replicate, c.frm_mode(), fl);       \
    SFRV_BODY_MERGE(r, active * u.width);                                    \
    c.fflags |= fl.bits;                                                     \
  } while (0))                                                               \
  /* Packed multiply-accumulate into rd. */                                  \
  S(VecMac, do {                                                             \
    fp::Flags fl;                                                            \
    const int active = c.vl_active(u.lanes);                                 \
    const std::uint64_t r =                                                  \
        u.fp1.vtern(c.f[u.rs1], c.f[u.rs2], c.f[u.rd], active, u.replicate,  \
                    c.frm_mode(), fl);                                       \
    SFRV_BODY_MERGE(r, active * u.width);                                    \
    c.fflags |= fl.bits;                                                     \
  } while (0))                                                               \
  /* Expanding dot product into a binary32 scalar accumulator: a full */     \
  /* scalar write, so no tail merge. */                                      \
  S(VecDotp, do {                                                            \
    fp::Flags fl;                                                            \
    const std::uint64_t acc = c.read_fp(u.rd, 32);                           \
    c.write_fp(u.rd, 32,                                                     \
               u.fp1.vdotp(c.f[u.rs1], c.f[u.rs2], acc,                      \
                           c.vl_active(u.lanes), u.replicate, c.frm_mode(),  \
                           fl));                                             \
    c.fflags |= fl.bits;                                                     \
  } while (0))                                                               \
  /* Widening sum-of-dot-products (ExSdotp): rd is a packed accumulator */   \
  /* in the one-step-wider format, so `active` narrow lanes feed the */      \
  /* ceil(active/2) wide lanes that are written back. */                     \
  S(VecExsdotp, do {                                                         \
    fp::Flags fl;                                                            \
    const int active = c.vl_active(u.lanes);                                 \
    const std::uint64_t r =                                                  \
        u.fp1.vdotp(c.f[u.rs1], c.f[u.rs2], c.f[u.rd], active, u.replicate,  \
                    c.frm_mode(), fl);                                       \
    SFRV_BODY_MERGE(r, (active + 1) / 2 * 2 * u.width);                      \
    c.fflags |= fl.bits;                                                     \
  } while (0))
