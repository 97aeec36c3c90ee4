// Simulator-side structural verifier: the JIT trace checker.
//
// check_trace recomposes a compiled trace back against the source
// predecoded micro-op stream, independently of the translator that built
// it: it decompiles each TraceSlot and checks token legality per source op
// (including the Nop lowering of rd=x0 ALU ops and fences, and the
// handler-shape token of every FP op), folded control-flow constants
// (absolute branch/jal targets, link values, auipc results), that each
// embedded micro-op equals its source exactly, per-slot fixed cycles, the
// Exit-slot shape, and the precomputed aggregate accounting (n,
// sum_cycles, load/store counts, deduplicated op counts, taken_extra).
//
// Diagnostics carry the text index of the offending instruction; the Core
// hook stamps the pass name ("translation"). See docs/verification.md.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/decode.hpp"
#include "sim/jit.hpp"
#include "util/verify.hpp"

namespace sfrv::sim {

/// Check the compiled trace `t` against the micro-op stream and the
/// timing/memory configuration it was translated under. Empty result =
/// well-formed.
[[nodiscard]] std::vector<verify::Diag> check_trace(
    const jit::Trace& t, const std::vector<DecodedOp>& uops,
    const Timing& timing, const MemConfig& mem, std::uint32_t text_base);

/// Hook form: run the checker and throw verify::VerifyError attributed to
/// `pass` when diagnostics fire.
void verify_trace_or_throw(const jit::Trace& t,
                           const std::vector<DecodedOp>& uops,
                           const Timing& timing, const MemConfig& mem,
                           std::uint32_t text_base,
                           std::string_view pass = "translation");

}  // namespace sfrv::sim
