// Traced replay of a workload's campaign. The same cells are built, lowered,
// digested, looked up, simulated and measured through the public call of
// each layer, with a span around every call; the cells run on
// eval::run_sharded with the workload's job count and the tuner study runs
// through eval::run_tuner_study, as in run_campaign. All spans are recorded
// here, outside the library, kept in memory per thread, and written out when
// the run ends. The replay must reproduce the campaign's report byte for
// byte; run.py checks its digests against the untraced runs.
#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <tuple>

#include "eval/executor.hpp"
#include "kernels/qor.hpp"
#include "kernels/runner.hpp"
#include "softfloat/runtime.hpp"
#include "workloads.hpp"

namespace e2ebench {

using namespace sfrv;

namespace {

// ---- spans ------------------------------------------------------------------

struct SpanRec {
  const char* layer;
  int parent;  ///< index into the same thread's records; -1 at the root
  double t0;
  double t1;
};

struct ThreadLog {
  int thread = 0;
  std::vector<SpanRec> spans;
  std::vector<int> open;  ///< stack of open span indices
};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu

ThreadLog& thread_log() {
  thread_local ThreadLog* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    mine = g_logs.back().get();
    mine->thread = static_cast<int>(g_logs.size()) - 1;
    mine->spans.reserve(1 << 14);
  }
  return *mine;
}

/// Times one layer call on the calling thread.
class Span {
 public:
  explicit Span(const char* layer) : log_(thread_log()) {
    index_ = static_cast<int>(log_.spans.size());
    log_.spans.push_back(
        {layer, log_.open.empty() ? -1 : log_.open.back(), now_s(), 0.0});
    log_.open.push_back(index_);
  }
  ~Span() {
    log_.spans[static_cast<std::size_t>(index_)].t1 = now_s();
    log_.open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] double elapsed() const {
    return now_s() - log_.spans[static_cast<std::size_t>(index_)].t0;
  }

 private:
  ThreadLog& log_;
  int index_ = 0;
};

/// Self time (span minus its children) per layer, in seconds.
std::map<std::string, double> self_times() {
  std::map<std::string, double> self;
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    std::vector<double> child(log->spans.size(), 0.0);
    for (const SpanRec& s : log->spans) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
      }
    }
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRec& s = log->spans[i];
      self[s.layer] += (s.t1 - s.t0) - child[i];
    }
  }
  return self;
}

std::vector<double> durations(std::string_view layer) {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    for (const SpanRec& s : log->spans) {
      if (layer == s.layer) out.push_back(s.t1 - s.t0);
    }
  }
  return out;
}

/// One JSON line per span: layer, thread, parent, start and end (seconds
/// from the first span).
void write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  double epoch = INFINITY;
  for (const auto& log : g_logs) {
    for (const SpanRec& s : log->spans) epoch = std::min(epoch, s.t0);
  }
  for (const auto& log : g_logs) {
    for (const SpanRec& s : log->spans) {
      out << eval::Json(eval::JsonObject{
                            {"layer", eval::Json(s.layer)},
                            {"thread", eval::Json(log->thread)},
                            {"parent", eval::Json(s.parent)},
                            {"t0", eval::Json(s.t0 - epoch)},
                            {"t1", eval::Json(s.t1 - epoch)},
                        })
                 .dump()
          << "\n";
    }
  }
}

// ---- the replay -------------------------------------------------------------

/// Per-cell counters read from the simulator after the run.
struct CellCounters {
  std::uint64_t instructions = 0;
  std::uint64_t packed_ops = 0;
  std::uint64_t scalar_fp_ops = 0;
  sim::jit::JitStats jit{};
};

/// The content address run_campaign's planner gives a cell.
eval::CellKey cell_key(const eval::CellSpec& cell, const eval::CampaignSpec& s,
                       const ir::OptConfig& opt, std::uint64_t kernel_digest) {
  eval::CellKey k;
  k.kernel_digest = kernel_digest;
  k.data = cell.type_config.tc.data;
  k.acc = cell.type_config.tc.acc;
  k.mode = cell.mode;
  k.vl = cell.vl;
  k.engine = s.engine;
  k.backend = s.backend;
  k.opt = opt;
  k.mem_load_latency = s.mem.load_latency;
  k.mem_store_latency = s.mem.store_latency;
  k.mem_level = static_cast<int>(s.mem.level);
  k.mem_size = s.mem.size;
  return k;
}

/// Presentation fields come from the requesting spec, as on a store hit in
/// run_campaign.
void stamp(eval::CellResult& c, const eval::CellSpec& cell) {
  c.benchmark = cell.benchmark->bench.name;
  c.type_config = cell.type_config.name;
  c.data = cell.type_config.tc.data;
  c.acc = cell.type_config.tc.acc;
  c.mode = cell.mode;
  c.vl = cell.vl;
}

/// Steps 4-8 of one cell: Core, load, run, readback, energy and QoR.
eval::CellResult simulate(const eval::PlannedCell& p,
                          const eval::CampaignSpec& s, CellCounters& k) {
  const kernels::KernelSpec& ks = *p.spec;
  std::optional<sim::Core> core;
  {
    Span span("sim.core_init");
    core.emplace(isa::IsaConfig::full(), s.mem);
    core->set_engine(s.engine);
    core->set_backend(s.backend);
  }
  {
    Span span("sim.load");
    core->load_program(p.lowered->program);
  }
  {
    Span span("sim.run");
    if (core->run() != sim::Core::RunResult::Halted) {
      throw std::runtime_error("kernel did not halt: " + ks.kernel.name);
    }
  }
  kernels::RunResult r;
  {
    Span span("sim.readback");
    r.stats = core->stats();
    r.text_base = p.lowered->program.text_base;
    r.fflags = core->fflags();
    for (const auto& name : ks.output_arrays) {
      const auto& arr = ks.kernel.arrays[static_cast<std::size_t>(
          ks.kernel.array_index(name))];
      const std::uint32_t addr = p.lowered->array_addr.at(name);
      const int esize = ir::width_bytes(arr.type);
      std::vector<double> vals(static_cast<std::size_t>(arr.elems()));
      for (int e = 0; e < arr.elems(); ++e) {
        std::uint64_t bits = 0;
        core->memory().read_block(addr + static_cast<std::uint32_t>(e * esize),
                                  &bits, static_cast<std::size_t>(esize));
        vals[static_cast<std::size_t>(e)] =
            fp::rt_to_double(ir::fp_format(arr.type), bits);
      }
      r.outputs[name] = std::move(vals);
    }
  }
  k.jit = core->jit_stats();
  {
    Span span("sim.core_free");
    core.reset();
  }

  k.instructions = r.stats.instructions;
  std::array<std::uint64_t, 64> by_cls{};
  for (std::size_t i = 0; i < isa::kNumOps; ++i) {
    const auto op = static_cast<isa::Op>(i);
    const std::uint64_t n = r.stats.op_count[i];
    by_cls[static_cast<std::size_t>(isa::op_class(op))] += n;
    // Cls lists the FP compute classes from FpAdd on (loads/stores before).
    if (isa::is_vector(op)) {
      k.packed_ops += n;
    } else if (isa::op_class(op) >= isa::Cls::FpAdd) {
      k.scalar_fp_ops += n;
    }
  }

  Span span("energy.qor");
  eval::CellResult c;
  stamp(c, p.cell);
  c.cycles = r.stats.cycles;
  c.instructions = r.stats.instructions;
  c.loads = r.stats.load_count;
  c.stores = r.stats.store_count;
  for (std::size_t ci = 0; ci < by_cls.size(); ++ci) {
    if (by_cls[ci] == 0) continue;
    c.class_counts.emplace_back(
        std::string(isa::cls_name(static_cast<isa::Cls>(ci))), by_cls[ci]);
  }
  c.energy = energy::EnergyModel{}.breakdown(r.stats, s.mem);
  std::vector<double> golden;
  for (const auto& g : ks.golden) golden.insert(golden.end(), g.begin(), g.end());
  c.sqnr_db = kernels::sqnr_db(golden, r.concat_outputs(ks.output_arrays));
  if (p.cell.benchmark->accuracy) c.accuracy = p.cell.benchmark->accuracy(ks, r);
  return c;
}

/// The report exactly as run_campaign assembles it.
eval::EvalReport assemble(const eval::CampaignSpec& s,
                          const std::vector<eval::PlannedCell>& planned,
                          std::vector<eval::CellResult> cells) {
  eval::EvalReport report;
  report.suite = s.name;
  report.engine = std::string(sim::engine_name(s.engine));
  report.backend = std::string(fp::backend_name(s.backend));
  report.opt = std::string(ir::opt_name(s.opt));
  report.mem_load_latency = s.mem.load_latency;
  report.mem_store_latency = s.mem.store_latency;
  for (const auto& p : planned) {
    if (report.benchmarks.empty() ||
        report.benchmarks.back() != p.cell.benchmark->bench.name) {
      report.benchmarks.push_back(p.cell.benchmark->bench.name);
    }
  }
  for (const auto& tc : s.type_configs) report.type_configs.push_back(tc.name);
  for (const auto m : s.modes) report.modes.emplace_back(ir::mode_name(m));
  report.vls = s.vls;
  report.cells = std::move(cells);
  return report;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1);
  return v[std::min(i, v.size() - 1)];
}

}  // namespace

eval::JsonObject run_traced(const Workload& w, std::uint64_t seed,
                            const std::string& store_dir,
                            const std::string& spans_path) {
  const eval::CampaignSpec& s = w.spec;
  std::unique_ptr<eval::CellStore> store;
  if (w.warm) store = std::make_unique<eval::CellStore>(store_dir);
  {
    Span span("kernels.fixture");
    (void)eval::eval_suite(s.scale);
  }
  // Untimed: the replay plans through its own memo below, so fill the
  // process-wide plan cache the way run_campaign's planner does. The tuner
  // study then reuses the same kernel builds and lowerings as in the
  // campaign it decomposes.
  (void)eval::plan_campaign(s);

  std::uint64_t builds = 0;
  std::uint64_t lowerings = 0;
  std::uint64_t text_insts = 0;
  std::vector<eval::PlannedCell> planned;
  std::vector<eval::CellResult> results;
  std::vector<CellCounters> counters;
  std::vector<std::size_t> misses;
  eval::CacheTelemetry tuner_tally;
  eval::TunerStudy tuner;
  double exec_wall = 0;
  double campaign_wall = 0;
  std::string json;
  std::string md;
  {
    Span campaign("campaign");
    {
      // Steps 1-3, memoized like the planner: one kernel build per
      // (benchmark, TypeConfig), one lowering and digest per cell.
      Span plan("eval.plan");
      using BuildKey = std::tuple<std::string, int, int>;
      std::map<BuildKey, std::shared_ptr<const kernels::KernelSpec>> built;
      for (const eval::CellSpec& cell : eval::expand_matrix(s)) {
        ir::OptConfig opt = s.opt;
        opt.vl_cap = cell.vl;
        auto& ks = built[{cell.benchmark->bench.name,
                          static_cast<int>(cell.type_config.tc.data),
                          static_cast<int>(cell.type_config.tc.acc)}];
        if (!ks) {
          Span span("kernels.build");
          ks = std::make_shared<const kernels::KernelSpec>(
              cell.benchmark->bench.make(cell.type_config.tc));
          ++builds;
        }
        std::shared_ptr<const ir::LoweredKernel> lowered;
        {
          Span span("ir.lower");
          lowered = std::make_shared<const ir::LoweredKernel>(
              ir::lower(ks->kernel, cell.mode, ks->init, opt));
        }
        ++lowerings;
        text_insts += lowered->program.text_words.size();
        std::uint64_t kernel_digest = 0;
        {
          Span span("eval.digest");
          kernel_digest = kernels::lowered_digest(*ks, *lowered);
        }
        planned.push_back({cell, ks, lowered, opt,
                           cell_key(cell, s, opt, kernel_digest)});
      }
    }

    results.resize(planned.size());
    counters.resize(planned.size());
    for (std::size_t i = 0; i < planned.size(); ++i) {
      std::optional<eval::CellResult> hit;
      if (store) {
        Span span("eval.store_lookup");
        hit = store->lookup(planned[i].key);
      }
      if (hit) {
        stamp(*hit, planned[i].cell);
        results[i] = std::move(*hit);
      } else {
        misses.push_back(i);
      }
    }
    // The seed orders the cells on the executor; results land by index.
    std::mt19937_64 rng(seed);
    std::shuffle(misses.begin(), misses.end(), rng);
    const double exec_t0 = now_s();
    eval::run_sharded(misses.size(), w.jobs, [&](std::size_t mi) {
      const std::size_t i = misses[mi];
      Span span("eval.cell");
      results[i] = simulate(planned[i], s, counters[i]);
      if (store) store->insert(planned[i].key, results[i]);
    });
    exec_wall = now_s() - exec_t0;

    if (s.runs_tuner()) {
      Span span("tuner.study");
      tuner = eval::run_tuner_study(s.scale, s.mem, s.engine, s.backend, s.opt,
                                    store.get(), &tuner_tally);
    }
    {
      Span span("eval.report");
      eval::EvalReport report = assemble(s, planned, std::move(results));
      if (s.runs_tuner()) {
        report.has_tuner = true;
        report.tuner = tuner;
      }
      json = eval::to_json(report).dump(2) + "\n";
      md = eval::render_markdown(report);
      results = std::move(report.cells);
    }
    campaign_wall = campaign.elapsed();
  }

  // ---- per-layer metrics ----------------------------------------------------
  const auto self = self_times();
  auto ms = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second * 1e3;
  };
  CellCounters total;
  for (const std::size_t i : misses) {
    const CellCounters& k = counters[i];
    total.instructions += k.instructions;
    total.packed_ops += k.packed_ops;
    total.scalar_fp_ops += k.scalar_fp_ops;
    total.jit.translations += k.jit.translations;
    total.jit.vl_invalidations += k.jit.vl_invalidations;
    total.jit.interp_entries += k.jit.interp_entries;
    total.jit.translate_ns += k.jit.translate_ns;
    total.jit.lookups += k.jit.lookups;
    total.jit.hits += k.jit.hits;
  }
  std::uint64_t skipped = 0;
  for (const auto& t : tuner.explored) {
    if (!ir::comparable(t.data, t.acc)) ++skipped;
  }
  // Without a store every comparable grid point is simulated once.
  const std::uint64_t tuner_simulated =
      store ? tuner_tally.misses : tuner.explored.size() - skipped;
  const eval::CellStore::Stats st =
      store ? store->stats() : eval::CellStore::Stats{};

  const std::vector<double> cell_s = durations("eval.cell");
  double busy = 0;
  for (const double d : cell_s) busy += d;
  // Thread time the campaign had: serial phases on one thread, the
  // executor phase on `jobs` threads (at jobs = 1, the campaign wall).
  const double capacity = campaign_wall + (w.jobs - 1) * exec_wall;
  double attributed = 0;
  for (const auto& [layer, secs] : self) {
    if (layer != "campaign" && layer != "eval.cell" &&
        layer != "kernels.fixture") {
      attributed += secs;
    }
  }
  const double run_s = ms("sim.run") * 1e-3;

  eval::JsonObject m = {
      {"kernels.fixture_ms", eval::Json(ms("kernels.fixture"))},
      {"kernels.builds", eval::Json(builds)},
      {"kernels.build_ms", eval::Json(ms("kernels.build"))},
      {"ir.lowerings", eval::Json(lowerings)},
      {"ir.lower_ms", eval::Json(ms("ir.lower"))},
      {"ir.text_insts", eval::Json(text_insts)},
      {"eval.digest_ms", eval::Json(ms("eval.digest"))},
      {"eval.plan_ms", eval::Json(ms("eval.plan"))},
      {"eval.store_lookups", eval::Json(st.hits + st.misses)},
      {"eval.store_hits", eval::Json(st.hits)},
      {"eval.store_disk_hits", eval::Json(st.disk_hits)},
      {"eval.store_lookup_ms", eval::Json(ms("eval.store_lookup"))},
      {"sim.core_init_ms", eval::Json(ms("sim.core_init"))},
      {"sim.core_free_ms", eval::Json(ms("sim.core_free"))},
      {"sim.load_ms", eval::Json(ms("sim.load"))},
      {"sim.run_ms", eval::Json(ms("sim.run"))},
      {"sim.instructions", eval::Json(total.instructions)},
      {"sim.mips",
       eval::Json(run_s > 0 ? static_cast<double>(total.instructions) / run_s /
                                  1e6
                            : 0.0)},
      {"sim.readback_ms", eval::Json(ms("sim.readback"))},
      {"sim.jit.translations", eval::Json(total.jit.translations)},
      {"sim.jit.hit_rate", eval::Json(total.jit.hit_rate())},
      {"sim.jit.vl_invalidations", eval::Json(total.jit.vl_invalidations)},
      {"sim.jit.interp_entries", eval::Json(total.jit.interp_entries)},
      {"sim.jit.translate_ms",
       eval::Json(static_cast<double>(total.jit.translate_ns) * 1e-6)},
      {"softfloat.packed_ops", eval::Json(total.packed_ops)},
      {"softfloat.scalar_fp_ops", eval::Json(total.scalar_fp_ops)},
      {"eval.exec_ms", eval::Json(exec_wall * 1e3)},
      {"eval.exec_busy_ms", eval::Json(busy * 1e3)},
      {"eval.parallel_eff",
       eval::Json(exec_wall > 0 ? busy / (w.jobs * exec_wall) : 0.0)},
      {"eval.cell_p50_ms", eval::Json(quantile(cell_s, 0.50) * 1e3)},
      {"eval.cell_p95_ms", eval::Json(quantile(cell_s, 0.95) * 1e3)},
      {"eval.cell_max_ms", eval::Json(quantile(cell_s, 1.0) * 1e3)},
      {"tuner.study_ms", eval::Json(ms("tuner.study"))},
      {"tuner.points_simulated", eval::Json(tuner_simulated)},
      {"tuner.points_served", eval::Json(tuner_tally.hits)},
      {"tuner.points_skipped", eval::Json(skipped)},
      {"energy.qor_ms", eval::Json(ms("energy.qor"))},
      {"eval.report_ms", eval::Json(ms("eval.report"))},
      {"eval.report_bytes",
       eval::Json(static_cast<std::uint64_t>(json.size() + md.size()))},
      {"trace.coverage", eval::Json(capacity > 0 ? attributed / capacity : 0.0)},
  };
  if (!spans_path.empty()) write_spans(spans_path);

  eval::EvalReport shell;  // summarize() reads only cells and cache counts
  shell.cells = std::move(results);
  shell.cache.hits = st.hits;
  shell.cache.misses = st.misses;
  eval::JsonObject out = summarize(shell, json, md);
  out.emplace_back("campaign_s", eval::Json(campaign_wall));
  out.emplace_back("layers", eval::Json(std::move(m)));
  return out;
}

}  // namespace e2ebench
