// Campaign runner, split into three layers:
//
//  * planner   — expand_matrix / plan_campaign turn a CampaignSpec into
//                planned cells: the built kernel, its lowered program, and a
//                content-addressed CellKey (kernel digest × TypeConfig ×
//                mode × engine × backend × opt × vl × mem × schema). Each
//                (benchmark, TypeConfig) kernel is built and its reference
//                hashed once per call, and each distinct (element type,
//                init values) array image is encoded once per call and
//                shared by every kernel that has it; every cell lowers
//                against those. The planner is per call: nothing it builds
//                outlives the run.
//  * store     — run_campaign consults an optional CellStore before
//                simulating; hits are served in O(1) and only misses reach
//                the executor (eval/cellstore.hpp).
//  * executor  — cache-miss cells run on worker threads that share one
//                atomic next-index cursor (eval/executor.hpp), streaming
//                each completed matrix cell through an optional callback.
//                Misses whose lowered programs are byte-identical (same
//                benchmark, text, data and golden reference) are simulated
//                once per pass; the others get copies of that result.
//
// The Fig. 6 tuner study rides the same pass: its grid points are planned
// with the matrix as extra cells, and every cell is served, simulated or
// copied once. A point that a matrix cell covers lowers to that cell's
// program, so the grouping above simulates it with that cell.
//
// Determinism contract: a campaign's report is a pure function of its spec.
// Cells are executed in any order (each one builds its own kernel, Core and
// ExecContext), but results land in matrix-expansion order, and every
// aggregate is computed serially afterwards — so `-j1` and `-jN`, cold and
// warm runs all produce byte-identical JSON.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/cellstore.hpp"
#include "eval/report.hpp"
#include "kernels/suite.hpp"
#include "sim/core.hpp"
#include "sim/memory.hpp"

namespace sfrv::eval {

/// Problem sizing: Full runs the paper-sized suite (`kernels::benchmark_suite`),
/// Smoke a reduced-size clone of it for CI and unit tests.
enum class SuiteScale { Full, Smoke };

/// A suite entry: the benchmark plus an optional QoR hook for workloads whose
/// quality metric is not SQNR alone (the SVM reports classification accuracy).
struct EvalBenchmark {
  kernels::Benchmark bench;
  std::function<double(const kernels::KernelSpec&, const kernels::RunResult&)>
      accuracy;  ///< null when accuracy is not applicable
};

/// Table III order (SVM, GEMM, ATAX, SYRK, SYR2K, FDTD2D) at either scale.
[[nodiscard]] const std::vector<EvalBenchmark>& eval_suite(SuiteScale scale);

/// A named variable-to-type assignment.
struct TypeConfigSpec {
  std::string name;
  kernels::TypeConfig tc;
};

/// The paper's evaluated configurations: float (baseline), float16,
/// float16alt, float8, and the tuned mixed scheme (float16 data / float acc).
[[nodiscard]] std::vector<TypeConfigSpec> default_type_configs();

struct CampaignSpec {
  std::string name = "table3";
  SuiteScale scale = SuiteScale::Full;
  /// Benchmarks to run, expanded in the order listed here; empty means the
  /// whole suite in Table III order.
  std::vector<std::string> benchmarks;
  std::vector<TypeConfigSpec> type_configs = default_type_configs();
  std::vector<ir::CodegenMode> modes = {ir::CodegenMode::Scalar,
                                        ir::CodegenMode::AutoVec,
                                        ir::CodegenMode::ManualVec,
                                        ir::CodegenMode::ManualVecExs};
  sim::MemConfig mem{};
  /// Simulator engine every cell (and the tuner study) executes through.
  /// The report records it; results must not depend on it — CI runs the
  /// smoke campaign under all engines and diffs the reports.
  sim::Engine engine = sim::Engine::Jit;
  /// Softfloat math backend every cell binds its FP entry points from.
  /// Same contract as the engine: recorded for provenance, results must not
  /// depend on it (CI diffs the smoke reports across backends too).
  fp::MathBackend backend = fp::MathBackend::Grs;
  /// Post-lowering optimization level every cell (and the tuner study) is
  /// lowered under. Cycle metrics depend on it; QoR metrics must not (CI
  /// diffs the QoR rows of the smoke report across levels).
  ir::OptConfig opt = ir::OptConfig::O0();
  /// VL-sweep axis (innermost after mode). Each point overrides
  /// `opt.vl_cap` for its cells; 0 keeps the legacy fixed-lane lowering.
  /// Cells at the same VL point must be bit-identical across engines,
  /// backends and thread counts; different points legitimately differ.
  std::vector<int> vls = {0};
  /// Append the tuner-driven mixed-precision case study (Fig. 6).
  bool tuner_study = true;

  /// The paper evaluation: full sizes, all benchmarks/configs/modes + tuner.
  [[nodiscard]] static CampaignSpec table3();
  /// Reduced problem sizes for CI; same matrix shape.
  [[nodiscard]] static CampaignSpec smoke();
  /// The NN inference/training tier: conv2d / fully_connected / nn_train
  /// under ExSdotp codegen, uniform float16 vs. the f8×f16 MiniFloat-NN
  /// training shape, swept over a VL axis {0, 1, 2, 4}.
  [[nodiscard]] static CampaignSpec nn(SuiteScale scale = SuiteScale::Full);

  /// Whether this campaign will run the tuner case study: it rides on the
  /// SVM, so a benchmark filter that excludes "svm" also skips the study.
  [[nodiscard]] bool runs_tuner() const;
};

/// One cell of the expanded matrix. `benchmark` points into `eval_suite`.
struct CellSpec {
  const EvalBenchmark* benchmark = nullptr;
  TypeConfigSpec type_config;
  ir::CodegenMode mode = ir::CodegenMode::Scalar;
  int vl = 0;  ///< strip-mining `setvl` cap; 0 = legacy fixed-lane lowering
};

/// Expand the campaign matrix, benchmark-major then type config then mode
/// then VL. Throws on a benchmark name not present in the suite.
[[nodiscard]] std::vector<CellSpec> expand_matrix(const CampaignSpec& spec);

/// A planner output cell: the matrix coordinates plus everything needed to
/// either serve it from the store or simulate it — the built kernel, its
/// lowered program, the effective optimizer config (campaign opt with the
/// cell's vl_cap applied), and the content address. The kernel is shared by
/// the cells of one planning call that have the same benchmark and
/// TypeConfig; every cell has its own lowering.
struct PlannedCell {
  CellSpec cell;
  std::shared_ptr<const kernels::KernelSpec> spec;
  std::shared_ptr<const ir::LoweredKernel> lowered;
  ir::OptConfig opt{};
  CellKey key;
};

/// The planner: expand the matrix and build/lower/digest every cell (no
/// simulation). Cheap relative to execution — this is the part a warm run
/// still pays, every run and every process anew.
[[nodiscard]] std::vector<PlannedCell> plan_campaign(const CampaignSpec& spec);

/// Execute one cell on its own, without a store: plan it as the campaign
/// does, simulate, and measure. Its result serializes like the campaign's
/// cell at the same coordinates, under any engine and backend.
[[nodiscard]] CellResult run_cell(
    const CellSpec& cell, const sim::MemConfig& mem,
    sim::Engine engine = sim::Engine::Jit,
    fp::MathBackend backend = fp::MathBackend::Grs,
    const ir::OptConfig& opt = ir::OptConfig::O0());

/// Completed-cell stream: invoked (serialized, from worker threads) as each
/// matrix cell lands, in arbitrary completion order — store hits first, then
/// misses as the executor retires them. `index` is the matrix-expansion
/// position and `total` the matrix size; `cached` tells hits from computed
/// cells. Tuner grid points are not streamed.
using CellCallback = std::function<void(
    std::size_t index, std::size_t total, const CellResult& cell, bool cached)>;

/// Run the whole campaign with `jobs` worker threads (clamped to >= 1): the
/// matrix plus, when `spec.runs_tuner()`, every tuner grid point, in one
/// executor pass. With a `store`, cells present in it are served instead of
/// simulated and computed cells are inserted; `report.cache.{hits,misses}`
/// record one lookup per matrix cell and per grid point (serialization of
/// that block stays opt-in via `report.has_cache`). Without a store both
/// stay 0. Misses that lower to the same program — a grid point and the
/// matrix cell that covers it among them — are simulated once; every one of
/// them is still computed (`cached` false), inserted under its own key and
/// streamed once, and `report.cache.simulated` counts the simulations.
/// `on_cell` streams partial results.
[[nodiscard]] EvalReport run_campaign(const CampaignSpec& spec, int jobs = 1,
                                      CellStore* store = nullptr,
                                      const CellCallback& on_cell = nullptr);

/// The Fig. 6 case study on its own: precision tuning of the SVM slots
/// ({data, acc} over all six scalar types, narrowest first) with QoR =
/// simulated classification accuracy and cost = simulated cycles, under the
/// strict constraint of matching the float configuration's accuracy.
/// Exhaustive over the 36-config grid: the 22 lattice-ordered pairs are
/// planned and served or simulated, one at a time, exactly as run_campaign
/// treats them; unordered pairs are recorded as skipped trials. The study
/// equals the `tuner` block of a campaign over the same scale, memory,
/// engine, backend and opt.
///
/// With a `store` every grid point is a content-addressed cell, so points
/// that a campaign already put there (e.g. the "mixed" f16/f32 ManualVec
/// SVM) are served instead of re-simulated, and vice versa. `tally`
/// (optional) accumulates the lookup hits/misses and the simulations.
[[nodiscard]] TunerStudy run_tuner_study(
    SuiteScale scale, const sim::MemConfig& mem,
    sim::Engine engine = sim::Engine::Jit,
    fp::MathBackend backend = fp::MathBackend::Grs,
    const ir::OptConfig& opt = ir::OptConfig::O0(), CellStore* store = nullptr,
    CacheTelemetry* tally = nullptr);

}  // namespace sfrv::eval
