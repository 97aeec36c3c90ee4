// Per-instruction energy model.
//
// Substitution note: the paper characterizes a post-layout smallFloat unit in
// UMC 65 nm at 350 MHz. Here, per-class energy constants play that role. The
// constants are calibrated so that the paper's L1 headline numbers hold (~30 %
// saving for float16, ~50 % for float8 over float); everything else (latency
// trends of Fig. 3, the mixed-precision outcome of Fig. 6) follows from the
// model without further fitting. Ratios between classes track the published
// PULP/FPnew 65 nm data: narrower FP datapaths cost proportionally less, SIMD
// ops cost slightly less than (lanes x scalar) but far more than one scalar op,
// and memory access energy grows steeply with the memory level.
#pragma once

#include "isa/isa.hpp"
#include "sim/memory.hpp"
#include "sim/stats.hpp"

namespace sfrv::energy {

/// Component-wise decomposition of a run's energy (all values in pJ).
/// The eval report layer records these alongside the total so regressions
/// can be attributed to a component (compute vs. memory vs. idle).
struct EnergyBreakdown {
  double base = 0;     ///< per-instruction pipeline overhead
  double leakage = 0;  ///< per-cycle static/clock-tree energy
  double unit = 0;     ///< functional-unit increments
  double memory = 0;   ///< data-memory access energy

  [[nodiscard]] double total() const { return base + leakage + unit + memory; }
};

struct EnergyModel {
  // Core pipeline overhead charged to every instruction (fetch, decode,
  // register file) [pJ].
  double base_per_instr = 4.0;
  // Static/clock-tree energy per cycle [pJ].
  double leakage_per_cycle = 1.5;

  // Functional-unit increments [pJ].
  double int_alu = 1.2;
  double int_mul = 2.8;
  double int_div = 12.0;

  double fp32_op = 5.2;   // add/mul/cmp/cvt class, binary32
  double fp16_op = 3.1;   // binary16 / binary16alt scalar
  double fp8_op = 2.1;    // binary8 scalar
  double fma_factor = 1.6;       // fused ops switch more logic
  double divsqrt_factor = 3.0;   // iterative unit occupancy
  // A k-lane SIMD op costs k * scalar * simd_factor.
  double simd_factor = 1.10;
  // Expanding (Xfaux) ops: smallFloat lanes + an f32 accumulate path.
  double expanding_extra = 2.0;

  // Memory access energy per 32-bit (or narrower) access [pJ], by level.
  double mem_l1 = 6.5;
  double mem_l2 = 28.0;
  double mem_l3 = 130.0;

  /// Energy of one instance of `op` (excluding base/leakage/memory).
  [[nodiscard]] double unit_energy(isa::Op op) const;

  /// Memory energy per access at an explicit hierarchy level. Keyed off
  /// MemConfig::level, never the latency: a custom load latency must not
  /// shift the energy bucket (the old `int latency` overload silently
  /// billed any latency in (1, 10] at L2, and billed stores at the load
  /// level even when they retire through the 1-cycle store buffer).
  [[nodiscard]] double mem_energy(sim::MemLevelId level) const {
    switch (level) {
      case sim::MemLevelId::L1: return mem_l1;
      case sim::MemLevelId::L2: return mem_l2;
      case sim::MemLevelId::L3: return mem_l3;
    }
    __builtin_unreachable();
  }

  /// Per-store energy: a posted store (store_latency == 1) drains through
  /// the store buffer into the nearest level and pays the L1 write energy
  /// regardless of where loads are configured to hit; only an explicitly
  /// slow store path pays the full level energy.
  [[nodiscard]] double store_energy(const sim::MemConfig& mem) const {
    return mem.store_latency <= 1 ? mem_l1 : mem_energy(mem.level);
  }

  /// Total energy [pJ] for a finished run (= breakdown().total()).
  [[nodiscard]] double total_pj(const sim::Stats& stats,
                                const sim::MemConfig& mem) const;

  /// Component-wise energy for a finished run.
  [[nodiscard]] EnergyBreakdown breakdown(const sim::Stats& stats,
                                          const sim::MemConfig& mem) const;
};

}  // namespace sfrv::energy
