// The evaluation report: one record per (benchmark, TypeConfig, CodegenMode)
// cell of a campaign, plus the tuner-driven mixed-precision case study.
//
// The JSON form is schema-versioned (`kReportSchema`) and fully
// deterministic: cells are stored in matrix-expansion order, per-class
// instruction counts in opcode-class enum order, and doubles serialize with
// shortest-round-trip formatting. Two runs of the same campaign — at any
// thread count — produce byte-identical documents, which is what makes
// `BENCH_eval.json` usable for trend tracking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "energy/model.hpp"
#include "eval/json.hpp"
#include "ir/lower.hpp"
#include "ir/type.hpp"

namespace sfrv::eval {

/// Bump on any structural change to the JSON layout.
/// v2: records the simulator engine the campaign executed through.
/// v3: records the softfloat math backend (`backend`: "grs" | "fast") the
///     campaign's FP entry points were bound from.
/// v4: records the post-lowering optimization level (`opt`: "O0"|"O1"|"O2")
///     every cell was lowered under. Unlike engine/backend, cycle and
///     instruction metrics legitimately depend on it; QoR metrics (sqnr_db,
///     accuracy) must not (outputs are bit-identical across levels).
/// v5: adds "jit" to the recorded engines and an *optional* `wall_ms` field
///     (campaign wall-clock milliseconds, host-dependent). `wall_ms` is
///     serialized only when explicitly measured (`--wall-clock`), so default
///     reports stay byte-deterministic across runs and thread counts.
/// v6: posit and ExSdotp axes. Scalar types gain "posit8"/"posit16" (the
///     default campaign appends both uniform TypeConfigs after "mixed"),
///     modes gain "manual-vec-exsdotp" (ManualVec with packed one-step-wider
///     ExSdotp accumulation), and the tuner domain widens to the six-type
///     grid — slot pairs the promotion lattice cannot order (the two 16-bit
///     IEEE formats against each other, posit/IEEE mixes outside float) are
///     recorded as skipped trials with qor = -1 / cost = 0 instead of being
///     simulated.
/// v7: dynamic vector length. The campaign matrix gains a VL axis (`vls`,
///     innermost after mode; the default {0} keeps the legacy fixed-lane
///     lowering) and every cell records its `vl` (the strip-mining `setvl`
///     cap, 0 = legacy). The suite gains the NN tier (conv2d,
///     fully_connected, nn_train). Results must be bit-identical across
///     engines, backends, and thread counts at every VL point; across
///     *different* VL points cycles and outputs legitimately differ (the
///     element-to-lane mapping changes with the granted VL).
/// v8: content-addressed cell store. Adds an *optional* `cache` telemetry
///     block ({hits, misses, cold_ms, warm_ms}) recording cell-store reuse
///     and warm-vs-cold campaign wall time. Like `wall_ms` it is serialized
///     only when wall-clock measurement was requested, so default reports
///     stay byte-deterministic — and byte-identity across cold and warm runs
///     of the same spec, in one process or several sharing a `--cache-dir`,
///     is exactly the cache-correctness contract (CI-enforced). The schema
///     version is part of every cell-store key, so a schema bump invalidates
///     all cached cells.
inline constexpr std::string_view kReportSchema = "sfrv-eval-report/v8";

/// One matrix cell: a benchmark executed at a type configuration under one
/// code generator, with its performance, breakdown, energy, and QoR.
struct CellResult {
  std::string benchmark;
  std::string type_config;  ///< display name, e.g. "float16" or "mixed"
  ir::ScalarType data = ir::ScalarType::F32;
  ir::ScalarType acc = ir::ScalarType::F32;
  ir::CodegenMode mode = ir::CodegenMode::Scalar;
  /// Dynamic-VL cap the cell was lowered under (OptConfig::vl_cap);
  /// 0 = legacy fixed-lane lowering.
  int vl = 0;

  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  /// Nonzero per-class instruction counts, in Cls enum order.
  std::vector<std::pair<std::string, std::uint64_t>> class_counts;

  energy::EnergyBreakdown energy{};

  double sqnr_db = 0;    ///< vs. the double-precision golden outputs
  double accuracy = -1;  ///< classification accuracy; negative when N/A
};

/// One configuration the precision tuner evaluated.
struct TunerTrial {
  ir::ScalarType data = ir::ScalarType::F32;
  ir::ScalarType acc = ir::ScalarType::F32;
  double qor = 0;   ///< classification accuracy
  double cost = 0;  ///< simulated cycles
  bool feasible = false;
};

/// The Fig. 6 case study: greedy precision tuning of the SVM against
/// simulated cycles under a strict accuracy constraint.
struct TunerStudy {
  std::string benchmark;
  std::string objective;  ///< what `cost` measures ("cycles")
  double qor_threshold = 0;
  bool found = false;
  TunerTrial best{};
  std::vector<TunerTrial> explored;  ///< in evaluation order
};

/// Cell-store reuse telemetry for one campaign run. With a store,
/// `hits`/`misses` count one request per matrix cell and per tuner grid
/// point (the 22 lattice-ordered pairs); a grid point that a matrix cell
/// serves is a hit with no lookup of its own. Without a store both stay 0.
/// The wall times compare a cold (store-populating) pass against a warm
/// (fully cached) rerun, both planning from scratch, when both were
/// measured. Host-dependent and run-order-dependent, so the block is
/// serialized only when wall-clock measurement was requested.
struct CacheTelemetry {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Simulations the run made: one per distinct (benchmark, program) among
  /// the misses (every cell is a miss without a store), so misses minus
  /// this is the cells that received a copy of an identical program's
  /// result. In memory only: never serialized.
  std::uint64_t simulated = 0;
  double cold_ms = -1;  ///< cold-pass campaign wall time; -1 = not measured
  double warm_ms = -1;  ///< warm-rerun campaign wall time; -1 = not measured
};

struct EvalReport {
  std::string suite;   ///< campaign name ("table3", "smoke")
  /// Simulator engine the cells executed through (a sim::kEngines name).
  /// Recorded for provenance; every metric in the report must be
  /// engine-independent (the conformance suites enforce it), so two
  /// reports that differ only here are the same measurement.
  std::string engine = "jit";
  /// Softfloat math backend ("grs", "fast"). Same provenance-only contract
  /// as `engine`: the backends are bit- and fflags-identical.
  std::string backend = "grs";
  /// Post-lowering optimization level ("O0", "O1", "O2") the cells were
  /// lowered under. Cycle/instruction/energy metrics depend on it (that is
  /// the optimizer's point); QoR metrics must not — the differential suite
  /// and CI's normalized report diff enforce output bit-identity.
  std::string opt = "O0";
  int mem_load_latency = 1;
  int mem_store_latency = 1;
  /// Run wall-clock milliseconds, fixture build included (sfrv-eval starts
  /// the clock before expanding the matrix). Host-dependent, so it is only
  /// serialized when >= 0 (sfrv-eval --wall-clock); the default -1 keeps
  /// reports byte-identical across machines, runs, and thread counts.
  double wall_ms = -1;
  /// Cell-store telemetry. Populated in memory whenever a store was used;
  /// serialized only when `has_cache` (same opt-in as `wall_ms`).
  bool has_cache = false;
  CacheTelemetry cache{};
  std::vector<std::string> benchmarks;    ///< suite order
  std::vector<std::string> type_configs;  ///< campaign order
  std::vector<std::string> modes;         ///< campaign order
  std::vector<int> vls = {0};             ///< VL-sweep axis (0 = legacy)
  /// benchmark-major, then type config, then mode (matrix-expansion order).
  std::vector<CellResult> cells;
  bool has_tuner = false;
  TunerStudy tuner{};

  /// Cell lookup by coordinates; nullptr when the cell is not present.
  /// `vl` selects a point of the VL-sweep axis (0 = legacy lowering).
  [[nodiscard]] const CellResult* find_cell(std::string_view benchmark,
                                            std::string_view type_config,
                                            ir::CodegenMode mode,
                                            int vl = 0) const;
};

[[nodiscard]] Json to_json(const EvalReport& report);

/// Single-cell codec, exposed for the cell store's on-disk entries.
/// Round-trips exactly: dumping a parsed cell reproduces the original bytes
/// (doubles use shortest-round-trip form), which is what lets a cached cell
/// serialize bit-for-bit like a recomputed one.
[[nodiscard]] Json cell_to_json(const CellResult& c);
[[nodiscard]] CellResult cell_from_json(const Json& j);

/// Human-readable report mirroring the paper's Table III, Fig. 5 and Fig. 6.
[[nodiscard]] std::string render_markdown(const EvalReport& report);

/// Name <-> enum helpers shared by the JSON codec and the CLI.
[[nodiscard]] ir::ScalarType scalar_type_from_name(std::string_view name);
[[nodiscard]] ir::CodegenMode mode_from_name(std::string_view name);

}  // namespace sfrv::eval
