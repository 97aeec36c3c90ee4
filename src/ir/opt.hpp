// Post-lowering loop optimizer for the kernel compiler.
//
// The paper-sized kernels are glue-bound (docs/dispatch.md): the packed
// SmallFloat operations of a lowered inner loop are buried under scalar
// address generation and loop control. This layer attacks exactly that glue,
// the way real toolchains do for the MiniFloat-NN/ExSdotp class of kernels:
//
//  * unrolling     - innermost lowered loops are unrolled by a factor N with
//                    a single fused back-edge (one pointer bump per stream
//                    and one induction update per N bodies); when the trip
//                    count is not statically divisible by N a step-1 epilogue
//                    loop identical to the O0 body covers the remainder.
//  * pointer
//    strength
//    reduction     - the AutoVec code generator's per-iteration indexed
//                    addressing (slli + add per access) is rewritten into
//                    pointer bumps, the ManualVec addressing discipline.
//  * dead glue
//    elimination   - a post pass over the finished instruction stream:
//                    forwards dominated loads (load/load and store/load at
//                    the same address) into register copies, merges redundant
//                    addi chains, deletes dead pure register writes, and
//                    compacts the text with branch retargeting.
//
// Invariant: every transformation preserves the per-element FP operation
// order, so outputs, fflags, and array contents are bit-identical to O0
// under every engine x backend pair (tests/kernels/test_opt.cpp enforces
// this; the golden-digest matrix pins one unrolled configuration).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asmb/program.hpp"

namespace sfrv::ir {

/// Optimization pipeline configuration. The named levels are the only
/// spellings the CLI accepts; custom combinations are for programmatic use
/// (benches, tests).
struct OptConfig {
  /// Innermost-loop unroll factor; must be a power of two in [1, 8].
  int unroll_factor = 1;
  /// Rewrite AutoVec per-iteration indexed addressing into pointer bumps.
  bool ptr_strength_reduction = false;
  /// Run the dead-glue elimination post pass over the lowered text.
  bool dead_glue_elim = false;
  /// Dynamic-VL strip mining (manual codegen modes only). 0 keeps the
  /// legacy fixed-lane lowering (byte-identical to every pre-VL program);
  /// nonzero emits a VL-agnostic strip-mined inner loop — per-iteration
  /// `setvl` requesting min(remaining, vl_cap) elements, VL-governed
  /// loads/stores, granted-VL pointer bumps, and no scalar epilogue (the
  /// final short strip IS the tail). Any value in [1, 63] is a legitimate
  /// sweep point; sub-lane grants merge tail-undisturbed.
  int vl_cap = 0;

  [[nodiscard]] static constexpr OptConfig O0() { return {1, false, false, 0}; }
  [[nodiscard]] static constexpr OptConfig O1() { return {1, true, true, 0}; }
  [[nodiscard]] static constexpr OptConfig O2() { return {4, true, true, 0}; }

  friend constexpr bool operator==(const OptConfig&, const OptConfig&) = default;
};

/// Throws std::runtime_error when the configuration is malformed (unroll
/// factor not a power of two in [1, 8]).
void validate(const OptConfig& cfg);

/// Stable level name: "O0" | "O1" | "O2", or "custom" for any other
/// combination. Used by the eval report JSON and the CLI.
[[nodiscard]] std::string_view opt_name(const OptConfig& cfg);

/// Parse a level name ("O0" | "O1" | "O2"); throws std::runtime_error on an
/// unknown one.
[[nodiscard]] OptConfig opt_from_name(std::string_view name);

/// Outcome of the dead-glue pass (for the bench/doc glue accounting).
struct GlueStats {
  int loads_forwarded = 0;   ///< loads rewritten into register copies
  int addis_merged = 0;      ///< addi-chain links folded away
  int insts_deleted = 0;     ///< instructions removed by DCE / forwarding
  [[nodiscard]] bool any() const {
    return loads_forwarded + addis_merged + insts_deleted > 0;
  }
};

/// Dead-glue elimination over a *finished* program (branch immediates
/// resolved). `inner_ranges` entries are remapped to the compacted text.
/// `mem_array` optionally carries per-text-index provenance: the array id
/// each load/store touches (-1 / missing = unknown, conservatively aliased
/// with everything). Distinct ids are guaranteed-disjoint memory objects,
/// which is what lets a store to one array keep forwarding entries of
/// another alive. When provided it is compacted in lock-step with the text
/// (entries of deleted instructions removed, forwarded loads losing their
/// provenance), so it stays index-accurate for ir::Verifier.
///
/// The pass is conservative and sound: it bails out (no-op) on programs
/// containing position-dependent or indirect control flow (jal/jalr/auipc)
/// or any opcode outside the kernel compiler's emission set, never deletes
/// stores, branches, CSR accesses, or fflags-setting FP operations, and
/// treats every register as live at program exit unless
/// `regs_dead_at_exit` is set (lowered kernels: results live in memory).
GlueStats dead_glue_elim(
    asmb::Program& prog,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& inner_ranges,
    std::vector<int>* mem_array = nullptr, bool regs_dead_at_exit = false);

}  // namespace sfrv::ir
