// Simulator-side structural verifier: the JIT trace checker.
//
// check_trace recomposes a compiled trace -- a range of the decoded
// micro-op program plus aggregated accounting -- independently of the
// decoder and translator that built it. Over every op of the range it
// checks the executor token against its own restatement of the op->token
// rules (including the Nop lowering of rd=x0 ALU ops, lui/auipc, and
// fences, and the handler-shape token of every FP op), that the
// continuation is that token's executor label, the folded constants
// (absolute branch/jal targets, link values, lui/auipc values), and the
// folded fixed cycles against the timing model. It checks the trace shape
// (a terminator only last; an open trace ends right before a stop-class op
// or the sentinel, whose folded exit pc is its own), and the precomputed
// aggregate accounting (sum_cycles, load/store counts, deduplicated op
// counts, taken_extra).
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

/// Check the compiled trace `t` against the decoded program `uops` (a
/// decode_program result, sentinel included) and the timing/memory
/// configuration it was decoded under. Empty result = well-formed.
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
