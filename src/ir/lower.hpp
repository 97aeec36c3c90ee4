// Lowering of kernel IR to smallFloat RISC-V programs.
//
// Three code generators, mirroring the paper's compiler story:
//  * Scalar      - optimized scalar code (pointer-incremented innermost
//                  loops, fused multiply-adds, LICM of invariant loads).
//  * AutoVec     - models the extended GCC auto-vectorizer: packed-SIMD main
//                  loops, but with the inefficiencies the paper reports --
//                  per-iteration indexed addressing instead of pointer
//                  bumping, runtime prologue guards and scalar epilogue loops
//                  for variable trip counts, and widening reductions done as
//                  unpack + fcvt + scalar fadd (Fig. 5 left).
//  * ManualVec   - intrinsics-quality code: pointer bumping, no guards when
//                  the trip count is statically divisible, and Xfaux
//                  expanding operations (vfdotpex/fmacex) for widening
//                  reductions (Fig. 5 right).
//  * ManualVecExs- ManualVec plus the ExSdotp unit: widening reductions whose
//                  accumulator is the one-step-wider format keep a *packed*
//                  wide accumulator in the loop (vfexsdotp: two chained wide
//                  FMAs per wide lane) and fold it with one horizontal sum in
//                  the epilogue. Accumulation order differs from ManualVec,
//                  so outputs are a distinct (pinned) measurement, not a
//                  bit-compatible re-lowering.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "asmb/program.hpp"
#include "ir/kernel.hpp"
#include "ir/opt.hpp"

namespace sfrv::ir {

enum class CodegenMode { Scalar, AutoVec, ManualVec, ManualVecExs };

[[nodiscard]] constexpr std::string_view mode_name(CodegenMode m) {
  switch (m) {
    case CodegenMode::Scalar: return "scalar";
    case CodegenMode::AutoVec: return "auto-vec";
    case CodegenMode::ManualVec: return "manual-vec";
    case CodegenMode::ManualVecExs: return "manual-vec-exsdotp";
  }
  return "?";
}

/// Manual (intrinsics-style) generators: pointer bumping, Xfaux/ExSdotp
/// expanding operations. ManualVec and ManualVecExs differ only in how
/// widening reductions accumulate.
[[nodiscard]] constexpr bool is_manual_mode(CodegenMode m) {
  return m == CodegenMode::ManualVec || m == CodegenMode::ManualVecExs;
}

struct LoweredKernel {
  asmb::Program program;
  /// Absolute address of each array's storage.
  std::unordered_map<std::string, std::uint32_t> array_addr;
  /// Text ranges [begin, end) of innermost-loop code (for ideal-speedup
  /// attribution). Sorted, non-overlapping, and 4-aligned relative to the
  /// text base; unrolled bodies and their epilogue loops are tracked as one
  /// range, and the dead-glue pass remaps them through its compaction.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> inner_ranges;
  /// The optimization pipeline this kernel was lowered under (provenance).
  OptConfig opt{};
  /// Outcome of the dead-glue pass (zeroes when it did not run).
  GlueStats glue{};
  /// Alias provenance, one entry per text instruction: the id of the memory
  /// object (array index, or arrays-count for the constant pool) a memory
  /// access touches, -1 for non-memory instructions or unknown provenance.
  /// Consumed by the dead-glue pass's alias rules (which compact it in sync
  /// with the text) and checked by ir::Verifier.
  std::vector<int> mem_array;
};

/// The initial data-segment bytes of a kernel's arrays, one image per array
/// id: `elems() * width_bytes(type)` bytes, little-endian elements.
using ArrayImages = std::vector<std::vector<std::uint8_t>>;

/// Quantize `array_init` (per array id) to each array's element type,
/// round-to-nearest-even, into the images lowering places in the data
/// segment. Missing or empty entries give zero images. Throws
/// std::invalid_argument naming the kernel and the array when a non-empty
/// entry does not hold exactly one value per element, before reading any.
[[nodiscard]] ArrayImages encode_init(
    const Kernel& kernel, const std::vector<std::vector<double>>& array_init);

/// Lower `kernel` with the given mode over encoded array images. Every
/// lowering of a kernel (each mode, VL point and opt level) shares its
/// images, so a caller that lowers one kernel many times encodes it once.
/// `opt` selects the post-lowering loop optimizer pipeline (ir/opt.hpp);
/// every level produces bit-identical outputs and fflags, only the glue
/// instruction count and cycle totals change. Throws std::invalid_argument
/// unless `images` holds one image of its array's size per array.
[[nodiscard]] LoweredKernel lower_encoded(const Kernel& kernel,
                                          CodegenMode mode,
                                          const ArrayImages& images,
                                          const OptConfig& opt = {});

/// `lower_encoded(kernel, mode, encode_init(kernel, array_init), opt)`.
/// Defaults to O0, as every caller does.
[[nodiscard]] LoweredKernel lower(
    const Kernel& kernel, CodegenMode mode,
    const std::vector<std::vector<double>>& array_init,
    const OptConfig& opt = {});

}  // namespace sfrv::ir
