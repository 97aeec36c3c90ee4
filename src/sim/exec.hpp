// Execution context for the simulator's micro-op engine.
//
// ExecContext is the single home of a hart's architectural state (PC,
// register files, FP CSR fields) plus the per-step outcome bits the timing
// model consumes. Micro-op handlers (bound at decode time, see decode.hpp)
// are free functions over this struct, which makes the execute layer testable
// piecewise: a test can stack-allocate a context, point it at a Memory and a
// Stats block, and invoke any handler directly.
//
// The `mem` and `stats` pointers are environment references, not owned state;
// Core re-points them at its own members on construction and move so a
// context is never left aimed at a dead object.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/memory.hpp"
#include "sim/stats.hpp"
#include "softfloat/flags.hpp"

namespace sfrv::sim {

/// Raised on illegal instructions, unsupported extensions, or bad fetches.
class SimError : public std::runtime_error {
 public:
  SimError(const std::string& what, std::uint32_t pc)
      : std::runtime_error(what + " (pc=0x" + to_hex(pc) + ")"), pc_(pc) {}
  [[nodiscard]] std::uint32_t pc() const { return pc_; }

 private:
  static std::string to_hex(std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%x", v);
    return buf;
  }
  std::uint32_t pc_;
};

/// All-ones mask of the low `w` bits (w in [0, 64]).
constexpr std::uint64_t width_mask(int w) {
  return w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
}

constexpr std::uint64_t get_lane(std::uint64_t v, int lane, int w) {
  return (v >> (lane * w)) & width_mask(w);
}

constexpr std::uint64_t set_lane(std::uint64_t v, int lane, int w,
                                 std::uint64_t x) {
  const std::uint64_t m = width_mask(w) << (lane * w);
  return (v & ~m) | ((x << (lane * w)) & m);
}

struct ExecContext {
  std::uint32_t pc = 0;
  std::array<std::uint32_t, 32> x{};
  std::array<std::uint64_t, 32> f{};
  std::uint8_t fflags = 0;
  std::uint8_t frm = 0;
  bool halted = false;
  bool branch_taken = false;  ///< set by branch handlers for the timing model

  std::uint64_t flen_mask = width_mask(32);  ///< low-FLEN-bits mask for f regs

  /// Dynamic vector length (the `vl` CSR, granted by SETVL), counted in
  /// elements of the *narrowest* packed format (f8: FLEN/8 lanes). Vector
  /// ops on wider formats are clamped to their own lane count, so the reset
  /// value of FLEN/8 means "all lanes active" for every format — legacy
  /// programs that never execute SETVL are unaffected.
  std::uint32_t vl = 4;

  Stats* stats = nullptr;  ///< for the counter CSRs (cycle/instret)

  // The Core's Memory backing store (Memory::data()/size()). Both engine
  // tiers access simulated memory through it rather than through the
  // Memory object: the base pointer lives in a register across a trace,
  // where a Memory's own pointer would be re-loaded after every opaque
  // call. Every access is gated on the shared mem_access_oob() predicate
  // and throws the shared exception, exactly as Memory::check() does.
  std::uint8_t* mem_base = nullptr;
  std::uint32_t mem_size = 0;

  void set_x(unsigned i, std::uint32_t v) {
    if ((i & 31) != 0) x[i & 31] = v;
  }

  void check_mem(std::uint32_t addr, std::uint32_t n) const {
    if (mem_access_oob(addr, n, mem_size)) throw_mem_oob(addr);
  }
  [[nodiscard]] std::uint8_t load8(std::uint32_t a) const {
    check_mem(a, 1);
    return mem_base[a];
  }
  [[nodiscard]] std::uint16_t load16(std::uint32_t a) const {
    check_mem(a, 2);
    const std::uint8_t* p = mem_base + a;
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }
  [[nodiscard]] std::uint32_t load32(std::uint32_t a) const {
    check_mem(a, 4);
    const std::uint8_t* p = mem_base + a;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
  void store8(std::uint32_t a, std::uint8_t v) {
    check_mem(a, 1);
    mem_base[a] = v;
  }
  void store16(std::uint32_t a, std::uint16_t v) {
    check_mem(a, 2);
    std::uint8_t* p = mem_base + a;
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
  }
  void store32(std::uint32_t a, std::uint32_t v) {
    check_mem(a, 4);
    std::uint8_t* p = mem_base + a;
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
  }

  [[nodiscard]] std::uint64_t read_fp(unsigned reg, int width) const {
    return f[reg & 31] & width_mask(width);
  }

  /// NaN-box: fill bits above `width` with ones up to FLEN. (~width_mask
  /// rather than a left shift: a full 64-bit write must not shift by 64.)
  void write_fp(unsigned reg, int width, std::uint64_t bits) {
    const std::uint64_t boxed =
        (bits & width_mask(width)) | ~width_mask(width);
    f[reg & 31] = boxed & flen_mask;
  }

  /// Active lanes of a `lanes`-wide vector op under the current vl.
  [[nodiscard]] int vl_active(int lanes) const {
    return vl < static_cast<std::uint32_t>(lanes) ? static_cast<int>(vl)
                                                  : lanes;
  }

  [[nodiscard]] fp::RoundingMode frm_mode() const {
    return static_cast<fp::RoundingMode>(frm <= 4 ? frm : 0);
  }

  /// Resolve an instruction rm field: 0-4 are static modes, others (DYN and
  /// reserved values) fall back to fcsr.frm.
  [[nodiscard]] fp::RoundingMode resolve_rm(std::uint8_t rm_field) const {
    if (rm_field <= 4) return static_cast<fp::RoundingMode>(rm_field);
    return frm_mode();
  }
};

struct DecodedOp;

/// A micro-op handler: executes one instruction, advances pc, and records
/// architectural side effects. Bound once at decode time.
using ExecFn = void (*)(ExecContext&, const DecodedOp&);

}  // namespace sfrv::sim
