#include "eval/campaign.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

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
struct SmokeSvm {
  kernels::SvmModel model;
  kernels::SvmDataset test;
};

const SmokeSvm& smoke_svm() {
  static const SmokeSvm fixture = [] {
    SmokeSvm s;
    auto data = kernels::make_gesture_data(6, 32, 12, 5, 1.2, 7);
    s.model = kernels::train_svm(data.train, 6);
    s.test = std::move(data.test);
    return s;
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
                             const auto& f = smoke_svm();
                             return kernels::make_svm(tc, f.model, f.test);
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

/// Immutable planned kernel instance shared through the process-wide plan
/// cache: the built KernelSpec, one lowering of it, and the content digest.
struct PlannedKernel {
  std::shared_ptr<const KernelSpec> spec;
  std::shared_ptr<const ir::LoweredKernel> lowered;
  std::uint64_t digest = 0;
};

/// Process-wide plan cache. Sound because it only caches benchmarks of the
/// two static eval_suite() vectors, whose make() functions are deterministic
/// and fixture-backed — so (scale, benchmark name, TypeConfig, mode, opt)
/// fully determines the kernel and its lowering. This is what makes a warm
/// rerun in the same process planning-free: repeated specs re-use both the
/// kernel build (golden reference included) and the lowering.
class PlanCache {
 public:
  PlannedKernel get(SuiteScale scale, const EvalBenchmark& bench,
                    const kernels::TypeConfig& tc, ir::CodegenMode mode,
                    const ir::OptConfig& opt) {
    const Key key{scale == SuiteScale::Full,
                  bench.bench.name,
                  static_cast<int>(tc.data),
                  static_cast<int>(tc.acc),
                  static_cast<int>(mode),
                  opt.unroll_factor,
                  opt.ptr_strength_reduction,
                  opt.dead_glue_elim,
                  opt.vl_cap};
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) return it->second;
    }
    // Build outside the lock: planning two different cells concurrently must
    // not serialize, and a duplicate build is idempotent (first insert wins).
    PlannedKernel p;
    auto spec_ptr = spec_for(scale, bench, tc);
    p.spec = spec_ptr;
    p.lowered = std::make_shared<const ir::LoweredKernel>(
        ir::lower(spec_ptr->kernel, mode, spec_ptr->init, opt));
    p.digest = kernels::lowered_digest(*p.spec, *p.lowered);
    const std::lock_guard<std::mutex> lock(mu_);
    return map_.emplace(key, std::move(p)).first->second;
  }

 private:
  using Key = std::tuple<bool, std::string, int, int, int, int, bool, bool, int>;

  /// Kernel builds are shared across modes/VL points of the same
  /// (benchmark, TypeConfig) — the spec (inputs, golden) is mode-independent.
  std::shared_ptr<const KernelSpec> spec_for(SuiteScale scale,
                                             const EvalBenchmark& bench,
                                             const kernels::TypeConfig& tc) {
    const SpecKey key{scale == SuiteScale::Full, bench.bench.name,
                      static_cast<int>(tc.data), static_cast<int>(tc.acc)};
    {
      const std::lock_guard<std::mutex> lock(spec_mu_);
      const auto it = specs_.find(key);
      if (it != specs_.end()) return it->second;
    }
    auto built = std::make_shared<const KernelSpec>(bench.bench.make(tc));
    const std::lock_guard<std::mutex> lock(spec_mu_);
    return specs_.emplace(key, std::move(built)).first->second;
  }

  using SpecKey = std::tuple<bool, std::string, int, int>;
  std::mutex mu_;
  std::map<Key, PlannedKernel> map_;
  std::mutex spec_mu_;
  std::map<SpecKey, std::shared_ptr<const KernelSpec>> specs_;
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

/// Assemble one PlannedCell: memoized build+lower, then the content address.
PlannedCell plan_one(SuiteScale scale, const CellSpec& cell,
                     const sim::MemConfig& mem, sim::Engine engine,
                     fp::MathBackend backend, const ir::OptConfig& opt) {
  // The cell's VL-sweep point overrides the campaign-level vl_cap: each
  // point is a distinct lowering of the same kernel.
  ir::OptConfig cell_opt = opt;
  cell_opt.vl_cap = cell.vl;
  const PlannedKernel pk = plan_cache().get(scale, *cell.benchmark,
                                            cell.type_config.tc, cell.mode,
                                            cell_opt);
  PlannedCell p;
  p.cell = cell;
  p.spec = pk.spec;
  p.lowered = pk.lowered;
  p.opt = cell_opt;
  p.key.kernel_digest = pk.digest;
  p.key.data = cell.type_config.tc.data;
  p.key.acc = cell.type_config.tc.acc;
  p.key.mode = cell.mode;
  p.key.vl = cell.vl;
  p.key.engine = engine;
  p.key.backend = backend;
  p.key.opt = cell_opt;
  p.key.mem_load_latency = mem.load_latency;
  p.key.mem_store_latency = mem.store_latency;
  p.key.mem_level = static_cast<int>(mem.level);
  p.key.mem_size = mem.size;
  return p;
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
CellResult run_planned_cell(const PlannedCell& p, const sim::MemConfig& mem,
                            sim::Engine engine, fp::MathBackend backend) {
  const KernelSpec& spec = *p.spec;
  const RunResult r = kernels::run_lowered(spec, *p.lowered, mem,
                                           isa::IsaConfig::full(), engine,
                                           backend);

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

  c.energy = energy::EnergyModel{}.breakdown(r.stats, mem);
  c.sqnr_db = kernels::sqnr_db(golden_concat(spec),
                               r.concat_outputs(spec.output_arrays));
  if (p.cell.benchmark->accuracy) {
    c.accuracy = p.cell.benchmark->accuracy(spec, r);
  }
  return c;
}

}  // namespace

std::vector<PlannedCell> plan_campaign(const CampaignSpec& spec) {
  const auto cells = expand_matrix(spec);
  std::vector<PlannedCell> planned;
  planned.reserve(cells.size());
  for (const auto& cell : cells) {
    planned.push_back(plan_one(spec.scale, cell, spec.mem, spec.engine,
                               spec.backend, spec.opt));
  }
  return planned;
}

CellResult run_cell(const CellSpec& cell, const sim::MemConfig& mem,
                    sim::Engine engine, fp::MathBackend backend,
                    const ir::OptConfig& opt) {
  // Ad-hoc entry point (unit tests, one-off cells): builds and lowers
  // directly, bypassing the plan cache — its memo key assumes suite-resident
  // benchmarks, which this caller does not guarantee.
  ir::OptConfig cell_opt = opt;
  cell_opt.vl_cap = cell.vl;
  PlannedCell p;
  p.cell = cell;
  p.spec = std::make_shared<const KernelSpec>(
      cell.benchmark->bench.make(cell.type_config.tc));
  p.lowered = std::make_shared<const ir::LoweredKernel>(
      ir::lower(p.spec->kernel, cell.mode, p.spec->init, cell_opt));
  p.opt = cell_opt;
  return run_planned_cell(p, mem, engine, backend);
}

EvalReport run_campaign(const CampaignSpec& spec, int jobs, CellStore* store,
                        const CellCallback& on_cell) {
  const auto planned = plan_campaign(spec);
  const std::size_t total = planned.size();

  std::vector<CellResult> results(total);
  CacheTelemetry tally;
  std::mutex cb_mu;
  auto emit = [&](std::size_t i, const CellResult& c, bool cached) {
    if (!on_cell) return;
    // Serialized: workers land cells concurrently, but callers see a clean
    // stream and need no locking of their own.
    const std::lock_guard<std::mutex> lock(cb_mu);
    on_cell(i, total, c, cached);
  };

  // Store layer: partition into hits and misses up front (lookups are O(1)
  // and serial), so hits stream before any simulation starts and only the
  // misses ever reach the executor.
  std::vector<std::size_t> misses;
  if (store != nullptr) {
    for (std::size_t i = 0; i < total; ++i) {
      if (auto hit = store->lookup(planned[i].key)) {
        stamp_presentation(*hit, planned[i].cell);
        results[i] = std::move(*hit);
        ++tally.hits;
        emit(i, results[i], true);
      } else {
        misses.push_back(i);
      }
    }
    tally.misses = misses.size();
  } else {
    misses.resize(total);
    for (std::size_t i = 0; i < total; ++i) misses[i] = i;
  }

  // Executor layer: cache-miss cells on the worker threads.
  run_sharded(misses.size(), std::max(1, jobs), [&](std::size_t mi) {
    const std::size_t i = misses[mi];
    CellResult c = run_planned_cell(planned[i], spec.mem, spec.engine,
                                    spec.backend);
    if (store != nullptr) store->insert(planned[i].key, c);
    emit(i, c, false);
    results[i] = std::move(c);
  });

  EvalReport report;
  report.suite = spec.name;
  report.engine = std::string(sim::engine_name(spec.engine));
  report.backend = std::string(fp::backend_name(spec.backend));
  report.opt = std::string(ir::opt_name(spec.opt));
  report.mem_load_latency = spec.mem.load_latency;
  report.mem_store_latency = spec.mem.store_latency;
  for (const auto& p : planned) {
    if (report.benchmarks.empty() ||
        report.benchmarks.back() != p.cell.benchmark->bench.name) {
      report.benchmarks.push_back(p.cell.benchmark->bench.name);
    }
  }
  for (const auto& tc : spec.type_configs) {
    report.type_configs.push_back(tc.name);
  }
  for (const auto m : spec.modes) {
    report.modes.emplace_back(ir::mode_name(m));
  }
  report.vls = spec.vls;
  report.cells = std::move(results);
  if (spec.runs_tuner()) {
    report.has_tuner = true;
    report.tuner = run_tuner_study(spec.scale, spec.mem, spec.engine,
                                   spec.backend, spec.opt, store, &tally);
  }
  // Telemetry is always populated in memory; `has_cache` (serialization)
  // stays opt-in so default reports keep their byte-determinism.
  report.cache = tally;
  return report;
}

TunerStudy run_tuner_study(SuiteScale scale, const sim::MemConfig& mem,
                           sim::Engine engine, fp::MathBackend backend,
                           const ir::OptConfig& opt, CellStore* store,
                           CacheTelemetry* tally) {
  const auto& suite = eval_suite(scale);
  const auto it = std::find_if(
      suite.begin(), suite.end(),
      [](const EvalBenchmark& b) { return b.bench.name == "svm"; });
  if (it == suite.end() || !it->accuracy) {
    throw std::runtime_error("tuner study requires the svm benchmark");
  }
  const EvalBenchmark& svm = *it;

  using ir::ScalarType;
  // Narrowest first, posits after their equally-wide IEEE formats.
  const std::vector<ScalarType> domain = {ScalarType::F8,  ScalarType::P8,
                                          ScalarType::F16Alt, ScalarType::F16,
                                          ScalarType::P16, ScalarType::F32};

  // Each configuration is simulated once; the tuner's qor/cost callbacks
  // both read the memoized outcome.
  struct Outcome {
    double qor = 0;
    double cost = 0;
  };
  std::map<std::pair<int, int>, Outcome> memo;
  auto evaluate = [&](const tuner::TypeVector& types) -> Outcome {
    // Slot pairs the promotion lattice cannot order — the two 16-bit IEEE
    // formats against each other, or posit/IEEE mixes outside float — have
    // no defined source-level typing: record them as skipped (qor below any
    // threshold, zero cost) instead of simulating.
    if (!ir::comparable(types[0], types[1])) return {-1.0, 0.0};
    const auto key = std::make_pair(static_cast<int>(types[0]),
                                    static_cast<int>(types[1]));
    const auto found = memo.find(key);
    if (found != memo.end()) return found->second;
    const TypeConfig tc{types[0], types[1]};
    // Vectorize whenever the data type packs (the paper's tuned deployment);
    // float data has no lanes at FLEN=32 and runs the scalar pipeline.
    const auto mode = ir::lanes32(tc.data) >= 2 ? ir::CodegenMode::ManualVec
                                                : ir::CodegenMode::Scalar;
    // Each grid point is a content-addressed cell like any campaign cell:
    // points that coincide with matrix cells (e.g. the "mixed" SVM) are
    // served from the store instead of re-simulated, and what the tuner
    // computes becomes servable to later campaigns.
    CellSpec cell;
    cell.benchmark = &svm;
    cell.type_config = {std::string(ir::type_name(tc.data)) + "/" +
                            std::string(ir::type_name(tc.acc)),
                        tc};
    cell.mode = mode;
    cell.vl = opt.vl_cap;  // plan_one re-applies it; keep key.vl == opt.vl_cap
    const PlannedCell p = plan_one(scale, cell, mem, engine, backend, opt);
    CellResult c;
    if (store != nullptr) {
      if (auto hit = store->lookup(p.key)) {
        c = std::move(*hit);
        if (tally != nullptr) ++tally->hits;
      } else {
        c = run_planned_cell(p, mem, engine, backend);
        store->insert(p.key, c);
        if (tally != nullptr) ++tally->misses;
      }
    } else {
      c = run_planned_cell(p, mem, engine, backend);
    }
    const Outcome out{c.accuracy, static_cast<double>(c.cycles)};
    memo.emplace(key, out);
    return out;
  };

  tuner::Problem problem;
  problem.slot_names = {"data", "acc"};
  problem.slot_domains = {domain, domain};
  problem.qor = [&](const tuner::TypeVector& t) { return evaluate(t).qor; };
  problem.cost = [&](const tuner::TypeVector& t) { return evaluate(t).cost; };
  problem.qor_threshold =
      evaluate({ScalarType::F32, ScalarType::F32}).qor;  // strict: float QoR

  // Exhaustive over the 6x6 grid (lattice-ordered pairs simulated and
  // memoized, unordered pairs recorded as skipped): the case study wants the
  // *cheapest* feasible assignment, and greedy promotion legitimately stops
  // at the first feasible one it reaches — which can be a scalar-fallback
  // combination slower than the float baseline.
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

}  // namespace sfrv::eval
