#include "eval/campaign.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "eval/executor.hpp"
#include "kernels/qor.hpp"
#include "kernels/runner.hpp"
#include "kernels/svm.hpp"
#include "tuner/tuner.hpp"

namespace sfrv::eval {

namespace {

using kernels::KernelSpec;
using kernels::RunResult;
using kernels::TypeConfig;

/// Accuracy hook for an SVM benchmark instance.
std::function<double(const KernelSpec&, const RunResult&)> svm_accuracy_hook(
    const kernels::SvmModel& model, const kernels::SvmDataset& test) {
  return [samples = test.samples, classes = model.classes,
          labels = test.labels](const KernelSpec&, const RunResult& r) {
    const auto rows =
        kernels::reshape_scores(r.outputs.at("scores"), samples, classes);
    return kernels::classification_accuracy(rows, labels);
  };
}

/// Reduced-size SVM for the smoke suite: same inference code path as the
/// paper fixture, but a small synthetic problem (6 gestures, 32 features)
/// that trains and runs in milliseconds.
const kernels::SvmFixture& smoke_svm() {
  static const kernels::SvmFixture fixture = [] {
    auto data = kernels::make_gesture_data(6, 32, 12, 5, 1.2, 7);
    kernels::SvmModel model = kernels::train_svm(data.train, 6);
    return kernels::SvmFixture(std::move(data.train), std::move(model),
                               std::move(data.test));
  }();
  return fixture;
}

std::vector<EvalBenchmark> make_full_suite() {
  std::vector<EvalBenchmark> out;
  for (const auto& b : kernels::benchmark_suite()) {
    EvalBenchmark eb{b, nullptr};
    if (b.name == "svm") {
      const auto& f = kernels::svm_fixture();
      eb.accuracy = svm_accuracy_hook(f.model, f.test);
    }
    out.push_back(std::move(eb));
  }
  return out;
}

std::vector<EvalBenchmark> make_smoke_suite() {
  using kernels::Benchmark;
  std::vector<EvalBenchmark> out;
  out.push_back({Benchmark{"svm",
                           [](TypeConfig tc) {
                             return kernels::make_svm(tc, smoke_svm());
                           }},
                 svm_accuracy_hook(smoke_svm().model, smoke_svm().test)});
  out.push_back({Benchmark{"gemm",
                           [](TypeConfig tc) {
                             return kernels::make_gemm(tc, 8, 8, 8);
                           }},
                 nullptr});
  out.push_back({Benchmark{"atax",
                           [](TypeConfig tc) {
                             return kernels::make_atax(tc, 8, 10);
                           }},
                 nullptr});
  out.push_back({Benchmark{"syrk",
                           [](TypeConfig tc) {
                             return kernels::make_syrk(tc, 8, 8);
                           }},
                 nullptr});
  out.push_back({Benchmark{"syr2k",
                           [](TypeConfig tc) {
                             return kernels::make_syr2k(tc, 8, 8);
                           }},
                 nullptr});
  out.push_back({Benchmark{"fdtd2d",
                           [](TypeConfig tc) {
                             return kernels::make_fdtd2d(tc, 2, 8, 8);
                           }},
                 nullptr});
  out.push_back({Benchmark{"conv2d",
                           [](TypeConfig tc) {
                             return kernels::make_conv2d(tc, 6, 6, 3);
                           }},
                 nullptr});
  out.push_back({Benchmark{"fully_connected",
                           [](TypeConfig tc) {
                             return kernels::make_fully_connected(tc, 6, 10);
                           }},
                 nullptr});
  out.push_back({Benchmark{"nn_train",
                           [](TypeConfig tc) {
                             return kernels::make_nn_train(tc, 5, 6);
                           }},
                 nullptr});
  return out;
}

std::vector<double> golden_concat(const KernelSpec& spec) {
  std::vector<double> all;
  for (const auto& g : spec.golden) all.insert(all.end(), g.begin(), g.end());
  return all;
}

}  // namespace

const std::vector<EvalBenchmark>& eval_suite(SuiteScale scale) {
  // Per-branch statics: smoke-only runs (CI, unit tests) must not pay for
  // training the full-size SVM fixture.
  if (scale == SuiteScale::Full) {
    static const std::vector<EvalBenchmark> full = make_full_suite();
    return full;
  }
  static const std::vector<EvalBenchmark> smoke = make_smoke_suite();
  return smoke;
}

std::vector<TypeConfigSpec> default_type_configs() {
  using ir::ScalarType;
  // Appended after the paper's five so pre-posit report rows keep their
  // matrix-expansion positions.
  return {
      {"float", TypeConfig::uniform(ScalarType::F32)},
      {"float16", TypeConfig::uniform(ScalarType::F16)},
      {"float16alt", TypeConfig::uniform(ScalarType::F16Alt)},
      {"float8", TypeConfig::uniform(ScalarType::F8)},
      {"mixed", {ScalarType::F16, ScalarType::F32}},
      {"posit8", TypeConfig::uniform(ScalarType::P8)},
      {"posit16", TypeConfig::uniform(ScalarType::P16)},
  };
}

CampaignSpec CampaignSpec::table3() {
  CampaignSpec spec;
  spec.name = "table3";
  spec.scale = SuiteScale::Full;
  return spec;
}

CampaignSpec CampaignSpec::smoke() {
  CampaignSpec spec;
  spec.name = "smoke";
  spec.scale = SuiteScale::Smoke;
  return spec;
}

CampaignSpec CampaignSpec::nn(SuiteScale scale) {
  using ir::ScalarType;
  CampaignSpec spec;
  spec.name = "nn";
  spec.scale = scale;
  spec.benchmarks = {"conv2d", "fully_connected", "nn_train"};
  // Uniform float16 is the baseline; "minifloat-nn" is the paper's training
  // shape (f8 weights/activations, f16 packed ExSdotp accumulator). Both run
  // under the ExSdotp generator — uniform f16 has no wider packed format at
  // FLEN=32 and falls back to same-type MACs, which is the fair baseline.
  spec.type_configs = {
      {"float16", TypeConfig::uniform(ScalarType::F16)},
      {"minifloat-nn", {ScalarType::F8, ScalarType::F16}},
  };
  spec.modes = {ir::CodegenMode::ManualVecExs};
  spec.vls = {0, 1, 2, 4};
  spec.tuner_study = false;
  return spec;
}

bool CampaignSpec::runs_tuner() const {
  return tuner_study &&
         (benchmarks.empty() ||
          std::find(benchmarks.begin(), benchmarks.end(), "svm") !=
              benchmarks.end());
}

std::vector<CellSpec> expand_matrix(const CampaignSpec& spec) {
  const auto& suite = eval_suite(spec.scale);
  std::vector<const EvalBenchmark*> selected;
  if (spec.benchmarks.empty()) {
    for (const auto& b : suite) selected.push_back(&b);
  } else {
    for (const auto& name : spec.benchmarks) {
      const auto it = std::find_if(
          suite.begin(), suite.end(),
          [&](const EvalBenchmark& b) { return b.bench.name == name; });
      if (it == suite.end()) {
        throw std::runtime_error("unknown benchmark: " + name);
      }
      selected.push_back(&*it);
    }
  }
  std::vector<CellSpec> cells;
  cells.reserve(selected.size() * spec.type_configs.size() *
                spec.modes.size() * spec.vls.size());
  for (const EvalBenchmark* b : selected) {
    for (const auto& tc : spec.type_configs) {
      for (const auto mode : spec.modes) {
        for (const int vl : spec.vls) {
          cells.push_back({b, tc, mode, vl});
        }
      }
    }
  }
  return cells;
}

// ---- planner ----------------------------------------------------------------

namespace {

/// The array images of one planning call, shared by content: arrays with
/// the same element type and byte-equal init values get one image, encoded
/// on first request and copied into every kernel that asks for it, whatever
/// benchmark or TypeConfig the kernel has. Entries point at init values of
/// kernels the call keeps alive, and go when the call returns.
class ImagePool {
 public:
  ir::ArrayImages images(const KernelSpec& spec) {
    const ir::Kernel& kernel = spec.kernel;
    ir::ArrayImages out(kernel.arrays.size());
    for (std::size_t ai = 0; ai < kernel.arrays.size(); ++ai) {
      if (ai >= spec.init.size()) {
        out[ai] = ir::encode_array(kernel, ai, {});
        continue;
      }
      const std::vector<double>& init = spec.init[ai];
      const ir::ArrayDecl& arr = kernel.arrays[ai];
      const auto elems = static_cast<std::size_t>(arr.elems());
      if (init.empty() || init.size() != elems) {
        // A zero image, or the diagnostic for an init of the wrong length.
        out[ai] = ir::encode_array(kernel, ai, init);
        continue;
      }
      std::vector<Entry>& same_shape = entries_[{arr.type, elems}];
      auto it = std::find_if(
          same_shape.begin(), same_shape.end(), [&](const Entry& e) {
            return std::memcmp(e.init->data(), init.data(),
                               elems * sizeof(double)) == 0;
          });
      if (it == same_shape.end()) {
        same_shape.push_back({&init, ir::encode_array(kernel, ai, init)});
        it = std::prev(same_shape.end());
      }
      out[ai] = it->image;
    }
    return out;
  }

 private:
  struct Entry {
    const std::vector<double>* init;
    std::vector<std::uint8_t> image;
  };
  /// Keyed by element type and count; entries are told apart by content.
  std::map<std::pair<ir::ScalarType, std::size_t>, std::vector<Entry>>
      entries_;
};

/// What one planning call keeps per (benchmark, TypeConfig) kernel: its
/// inputs and golden reference do not depend on mode or VL, so every cell of
/// the kernel lowers from the same encoded images and resumes the same
/// digest state.
struct KernelPlan {
  KernelPlan(std::shared_ptr<const KernelSpec> built, ImagePool& pool)
      : spec(std::move(built)), images(pool.images(*spec)), digest(*spec) {}

  std::shared_ptr<const KernelSpec> spec;
  ir::ArrayImages images;
  kernels::KernelDigest digest;
};

/// The planner proper. It runs once per call and keeps nothing afterwards:
/// each (benchmark, TypeConfig) kernel is built and reference-hashed once,
/// and each distinct array image is encoded once (ImagePool). Then every
/// cell is lowered from its kernel's images under the campaign opt, with the
/// cell's VL point as `vl_cap` (each point is a distinct lowering of the
/// same kernel), and given its content address.
std::vector<PlannedCell> plan_cells(const CampaignSpec& spec,
                                    const std::vector<CellSpec>& cells) {
  std::map<std::tuple<const EvalBenchmark*, ir::ScalarType, ir::ScalarType>,
           KernelPlan>
      kernels;
  ImagePool pool;
  std::vector<PlannedCell> planned;
  planned.reserve(cells.size());
  for (const CellSpec& cell : cells) {
    const TypeConfig& tc = cell.type_config.tc;
    const std::tuple key{cell.benchmark, tc.data, tc.acc};
    auto it = kernels.find(key);
    if (it == kernels.end()) {
      it = kernels
               .try_emplace(key,
                            std::make_shared<const KernelSpec>(
                                cell.benchmark->bench.make(tc)),
                            pool)
               .first;
    }
    KernelPlan& kernel = it->second;
    PlannedCell p;
    p.cell = cell;
    p.spec = kernel.spec;
    p.opt = spec.opt;
    p.opt.vl_cap = cell.vl;
    p.lowered = std::make_shared<const ir::LoweredKernel>(ir::lower_encoded(
        kernel.spec->kernel, cell.mode, kernel.images, p.opt));
    p.key.kernel_digest = kernel.digest(*p.lowered);
    p.key.data = tc.data;
    p.key.acc = tc.acc;
    p.key.mode = cell.mode;
    p.key.vl = cell.vl;
    p.key.engine = spec.engine;
    p.key.backend = spec.backend;
    p.key.opt = p.opt;
    p.key.mem_load_latency = spec.mem.load_latency;
    p.key.mem_store_latency = spec.mem.store_latency;
    p.key.mem_level = static_cast<int>(spec.mem.level);
    p.key.mem_size = spec.mem.size;
    planned.push_back(std::move(p));
  }
  return planned;
}

/// Presentation fields are spec-derived, not measurement-derived: they are
/// (re)stamped on every serve, which is what lets differently-labelled specs
/// (the tuner grid vs. the campaign's "mixed" column) share content cells.
void stamp_presentation(CellResult& c, const CellSpec& cell) {
  c.benchmark = cell.benchmark->bench.name;
  c.type_config = cell.type_config.name;
  c.data = cell.type_config.tc.data;
  c.acc = cell.type_config.tc.acc;
  c.mode = cell.mode;
  c.vl = cell.vl;
}

/// The execute layer: simulate a planned cell and measure everything the
/// report wants. This is exactly the work a store hit skips.
CellResult run_planned_cell(const PlannedCell& p, const CampaignSpec& spec) {
  const KernelSpec& kernel = *p.spec;
  const RunResult r = kernels::run_lowered(kernel, *p.lowered, spec.mem,
                                           isa::IsaConfig::full(), spec.engine,
                                           spec.backend);

  CellResult c;
  stamp_presentation(c, p.cell);
  c.cycles = r.stats.cycles;
  c.instructions = r.stats.instructions;
  c.loads = r.stats.load_count;
  c.stores = r.stats.store_count;

  std::array<std::uint64_t, 64> by_cls{};
  for (std::size_t i = 0; i < isa::kNumOps; ++i) {
    by_cls[static_cast<std::size_t>(isa::op_class(static_cast<isa::Op>(i)))] +=
        r.stats.op_count[i];
  }
  for (std::size_t ci = 0; ci < by_cls.size(); ++ci) {
    if (by_cls[ci] == 0) continue;
    c.class_counts.emplace_back(
        std::string(isa::cls_name(static_cast<isa::Cls>(ci))), by_cls[ci]);
  }

  c.energy = energy::EnergyModel{}.breakdown(r.stats, spec.mem);
  c.sqnr_db = kernels::sqnr_db(golden_concat(kernel),
                               r.concat_outputs(kernel.output_arrays));
  if (p.cell.benchmark->accuracy) {
    c.accuracy = p.cell.benchmark->accuracy(kernel, r);
  }
  return c;
}

/// Whether two cells whose digests match lower to the same program: the
/// text and data images and the golden reference the digest hashes.
bool same_program(const PlannedCell& a, const PlannedCell& b) {
  return a.lowered->program.text_words == b.lowered->program.text_words &&
         a.lowered->program.data == b.lowered->program.data &&
         a.spec->golden == b.spec->golden;
}

/// Serve or simulate every planned cell on one run_sharded pass of `jobs`
/// workers. This is the one place that looks up, inserts and tallies store
/// cells. With a store, every cell is looked up first (serially, so hits
/// land before any simulation starts), only the misses reach the workers,
/// and each computed cell is inserted. Without a store every cell is a miss
/// and nothing but `simulated` is tallied. Misses with the same benchmark
/// and digest (their keys may still differ in mode, VL or types, or be the
/// same key requested twice) are simulated once: the other cells of the
/// group get copies of that result, each under its own presentation and its
/// own store key. `landed` (optional) sees each cell as it lands: its index,
/// the result, and whether the store served it; calls are serialized.
std::vector<CellResult> serve_or_simulate(
    const CampaignSpec& spec, const std::vector<PlannedCell>& planned,
    int jobs, CellStore* store, CacheTelemetry* tally,
    const std::function<void(std::size_t, const CellResult&, bool)>& landed) {
  std::vector<CellResult> results(planned.size());
  std::mutex landed_mu;
  auto land = [&](std::size_t i, const CellResult& c, bool served) {
    if (!landed) return;
    const std::lock_guard<std::mutex> lock(landed_mu);
    landed(i, c, served);
  };

  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    std::optional<CellResult> hit;
    if (store != nullptr) hit = store->lookup(planned[i].key);
    if (hit) {
      stamp_presentation(*hit, planned[i].cell);
      results[i] = std::move(*hit);
      land(i, results[i], true);
    } else {
      misses.push_back(i);
    }
  }
  // Each group lists planned indices, the one cell it simulates first. A
  // digest collision that same_program catches gets a group of its own.
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::pair<const EvalBenchmark*, std::uint64_t>, std::size_t>
      first_group;
  for (const std::size_t i : misses) {
    const auto [it, fresh] = first_group.try_emplace(
        {planned[i].cell.benchmark, planned[i].key.kernel_digest},
        groups.size());
    if (!fresh && same_program(planned[groups[it->second].front()],
                               planned[i])) {
      groups[it->second].push_back(i);
    } else {
      groups.push_back({i});
    }
  }
  if (tally != nullptr) {
    if (store != nullptr) {
      tally->hits += planned.size() - misses.size();
      tally->misses += misses.size();
    }
    tally->simulated += groups.size();
  }

  run_sharded(groups.size(), std::max(1, jobs), [&](std::size_t g) {
    const CellResult simulated =
        run_planned_cell(planned[groups[g].front()], spec);
    for (const std::size_t i : groups[g]) {
      CellResult c = simulated;
      stamp_presentation(c, planned[i].cell);
      if (store != nullptr) store->insert(planned[i].key, c);
      land(i, c, false);
      results[i] = std::move(c);
    }
  });
  return results;
}

// ---- tuner study (Fig. 6) ---------------------------------------------------

/// The slot domain: narrowest first, posits after their equally-wide IEEE
/// formats.
constexpr std::array<ir::ScalarType, 6> kTunerDomain = {
    ir::ScalarType::F8,  ir::ScalarType::P8,  ir::ScalarType::F16Alt,
    ir::ScalarType::F16, ir::ScalarType::P16, ir::ScalarType::F32};

/// The grid points the study simulates: every {data, acc} pair of the SVM
/// that the promotion lattice orders, in the order the tuner visits them.
/// A point vectorizes whenever its data type packs (the paper's tuned
/// deployment; float data has no lanes at FLEN=32 and runs the scalar
/// pipeline) and runs at the spec's `vl_cap`. Unordered pairs — the two
/// 16-bit IEEE formats against each other, or posit/IEEE mixes outside
/// float — have no defined source-level typing and are not grid points.
std::vector<CellSpec> tuner_grid(const CampaignSpec& spec) {
  const auto& suite = eval_suite(spec.scale);
  const auto svm = std::find_if(
      suite.begin(), suite.end(),
      [](const EvalBenchmark& b) { return b.bench.name == "svm"; });
  if (svm == suite.end() || !svm->accuracy) {
    throw std::runtime_error("tuner study requires the svm benchmark");
  }
  std::vector<CellSpec> grid;
  for (const ir::ScalarType acc : kTunerDomain) {
    for (const ir::ScalarType data : kTunerDomain) {
      if (!ir::comparable(data, acc)) continue;
      CellSpec cell;
      cell.benchmark = &*svm;
      cell.type_config = {std::string(ir::type_name(data)) + "/" +
                              std::string(ir::type_name(acc)),
                          {data, acc}};
      cell.mode = ir::lanes32(data) >= 2 ? ir::CodegenMode::ManualVec
                                         : ir::CodegenMode::Scalar;
      cell.vl = spec.opt.vl_cap;
      grid.push_back(std::move(cell));
    }
  }
  return grid;
}

/// Tune the SVM's {data, acc} slots from the grid's outcomes (`outcome[i]`
/// is the cell of `grid[i]`): QoR = simulated classification accuracy, cost
/// = simulated cycles, under the strict constraint of matching the float
/// configuration's accuracy. Exhaustive over the 6x6 grid, because the case
/// study wants the *cheapest* feasible assignment, and greedy promotion
/// legitimately stops at the first feasible one it reaches — which can be
/// a scalar-fallback combination slower than the float baseline. Pairs off
/// the grid are recorded as skipped trials (qor below any threshold, zero
/// cost).
TunerStudy tune(const std::vector<CellSpec>& grid,
                std::span<const CellResult> outcome) {
  auto find = [&](const tuner::TypeVector& t) -> const CellResult* {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const TypeConfig& tc = grid[i].type_config.tc;
      if (tc.data == t[0] && tc.acc == t[1]) return &outcome[i];
    }
    return nullptr;
  };
  const std::vector<ir::ScalarType> domain(kTunerDomain.begin(),
                                           kTunerDomain.end());
  tuner::Problem problem;
  problem.slot_names = {"data", "acc"};
  problem.slot_domains = {domain, domain};
  problem.qor = [&](const tuner::TypeVector& t) {
    const CellResult* c = find(t);
    return c != nullptr ? c->accuracy : -1.0;
  };
  problem.cost = [&](const tuner::TypeVector& t) {
    const CellResult* c = find(t);
    return c != nullptr ? static_cast<double>(c->cycles) : 0.0;
  };
  problem.qor_threshold =
      problem.qor({ir::ScalarType::F32, ir::ScalarType::F32});
  const tuner::Result result = tuner::tune_exhaustive(problem);

  TunerStudy study;
  study.benchmark = "svm";
  study.objective = "cycles";
  study.qor_threshold = problem.qor_threshold;
  study.found = result.found;
  auto to_trial = [](const tuner::Evaluation& e) {
    TunerTrial t;
    t.data = e.types[0];
    t.acc = e.types[1];
    t.qor = e.qor;
    t.cost = e.cost;
    t.feasible = e.feasible;
    return t;
  };
  study.best = to_trial(result.best);
  study.explored.reserve(result.explored.size());
  for (const auto& e : result.explored) study.explored.push_back(to_trial(e));
  return study;
}

}  // namespace

std::vector<PlannedCell> plan_campaign(const CampaignSpec& spec) {
  return plan_cells(spec, expand_matrix(spec));
}

CellResult run_cell(const CellSpec& cell, const sim::MemConfig& mem,
                    sim::Engine engine, fp::MathBackend backend,
                    const ir::OptConfig& opt) {
  CampaignSpec spec;
  spec.mem = mem;
  spec.engine = engine;
  spec.backend = backend;
  spec.opt = opt;
  return run_planned_cell(plan_cells(spec, {cell}).front(), spec);
}

EvalReport run_campaign(const CampaignSpec& spec, int jobs, CellStore* store,
                        const CellCallback& on_cell) {
  std::vector<CellSpec> cells = expand_matrix(spec);
  const std::size_t total = cells.size();

  // The tuner grid rides the matrix pass: its points are appended to the
  // matrix, and one that a matrix cell covers (same benchmark, types, mode
  // and VL) lowers to the same program, so the pass simulates it once.
  std::vector<CellSpec> grid;
  if (spec.runs_tuner()) {
    grid = tuner_grid(spec);
    cells.insert(cells.end(), grid.begin(), grid.end());
  }

  CacheTelemetry tally;
  std::vector<CellResult> results = serve_or_simulate(
      spec, plan_cells(spec, cells), jobs, store, &tally,
      [&](std::size_t i, const CellResult& c, bool served) {
        if (on_cell && i < total) on_cell(i, total, c, served);
      });

  EvalReport report;
  report.suite = spec.name;
  report.engine = std::string(sim::engine_name(spec.engine));
  report.backend = std::string(fp::backend_name(spec.backend));
  report.opt = std::string(ir::opt_name(spec.opt));
  report.mem_load_latency = spec.mem.load_latency;
  report.mem_store_latency = spec.mem.store_latency;
  for (std::size_t i = 0; i < total; ++i) {
    const std::string& name = cells[i].benchmark->bench.name;
    if (report.benchmarks.empty() || report.benchmarks.back() != name) {
      report.benchmarks.push_back(name);
    }
  }
  for (const auto& tc : spec.type_configs) {
    report.type_configs.push_back(tc.name);
  }
  for (const auto m : spec.modes) {
    report.modes.emplace_back(ir::mode_name(m));
  }
  report.vls = spec.vls;
  if (spec.runs_tuner()) {
    report.has_tuner = true;
    report.tuner = tune(grid, std::span(results).subspan(total));
  }
  results.resize(total);
  report.cells = std::move(results);
  // Telemetry is always populated in memory; `has_cache` (serialization)
  // stays opt-in so default reports keep their byte-determinism.
  report.cache = tally;
  return report;
}

TunerStudy run_tuner_study(SuiteScale scale, const sim::MemConfig& mem,
                           sim::Engine engine, fp::MathBackend backend,
                           const ir::OptConfig& opt, CellStore* store,
                           CacheTelemetry* tally) {
  CampaignSpec spec;
  spec.scale = scale;
  spec.mem = mem;
  spec.engine = engine;
  spec.backend = backend;
  spec.opt = opt;
  const std::vector<CellSpec> grid = tuner_grid(spec);
  return tune(grid, serve_or_simulate(spec, plan_cells(spec, grid), 1, store,
                                      tally, nullptr));
}

}  // namespace sfrv::eval
