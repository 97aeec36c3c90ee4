// sfrv-e2ebench: the measuring program of the repo benchmark. run.py drives
// it; every mode prints one JSON object on stdout.
//
//   sfrv-e2ebench info
//   sfrv-e2ebench rep    --workload W [--smoke] [--store DIR]
//   sfrv-e2ebench oracle --workload W [--smoke] --seed N
//   sfrv-e2ebench trace  --workload W [--smoke] --seed N [--store DIR]
//                        [--spans FILE]
//
// `rep` is one timed repetition of the workload's campaign. The first `rep`
// of a run, over an empty DIR for a warm workload, fills the store and is
// the reference every other run must reproduce. Run each `rep` and `trace`
// in a new process: that is the state a user's sfrv-eval run starts from
// (empty plan cache, no fast-backend LUT planes, no SVM fixture).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "eval/campaign.hpp"
#include "kernels/runner.hpp"
#include "util/verify.hpp"
#include "workloads.hpp"

namespace {

using namespace sfrv;
using e2ebench::Workload;

/// Cells the oracle re-simulates per run.
constexpr std::size_t kOracleSample = 16;

int usage() {
  std::fprintf(stderr,
               "usage: sfrv-e2ebench info\n"
               "       sfrv-e2ebench rep|oracle|trace --workload W "
               "[--smoke] [--seed N] [--store DIR] [--spans FILE]\n");
  return 2;
}

/// Timed figures from an assert-enabled or sanitizer build say nothing
/// about the optimized program, so this program refuses to produce them.
const char* build_refusal() {
#if !defined(NDEBUG)
  return "assertions are enabled";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  if (std::strstr(E2EBENCH_FLAGS, "-fsanitize") != nullptr) {
    return "built with a sanitizer";
  }
  return nullptr;
#endif
}

void print(eval::JsonObject obj) {
  std::printf("%s\n", eval::Json(std::move(obj)).dump().c_str());
}

eval::JsonObject build_info() {
  return {
      {"nproc", eval::Json(std::thread::hardware_concurrency())},
      {"compiler", eval::Json(E2EBENCH_COMPILER)},
      {"build_type", eval::Json(E2EBENCH_BUILD_TYPE)},
      {"flags", eval::Json(E2EBENCH_FLAGS)},
  };
}

/// One cold-or-warm campaign exactly as sfrv-eval runs it, timed from the
/// run_campaign call to the report bytes in memory.
eval::JsonObject run_rep(const Workload& w, const std::string& store_dir) {
  std::unique_ptr<eval::CellStore> store;
  if (w.warm) store = std::make_unique<eval::CellStore>(store_dir);
  const double t0 = e2ebench::now_s();
  (void)eval::eval_suite(w.spec.scale);
  const double t1 = e2ebench::now_s();
  std::uint64_t computed_instructions = 0;  // the callback is serialized
  const eval::EvalReport report = eval::run_campaign(
      w.spec, w.jobs, store.get(),
      [&](std::size_t, std::size_t, const eval::CellResult& c, bool cached) {
        if (!cached) computed_instructions += c.instructions;
      });
  const std::string json = eval::to_json(report).dump(2) + "\n";
  const std::string md = eval::render_markdown(report);
  const double t2 = e2ebench::now_s();

  eval::JsonObject out = e2ebench::summarize(report, json, md);
  out.emplace_back("setup_s", eval::Json(t1 - t0));
  out.emplace_back("campaign_s", eval::Json(t2 - t1));
  out.emplace_back("peak_rss_mb", eval::Json(e2ebench::peak_rss_mb()));
  out.emplace_back("computed_instructions", eval::Json(computed_instructions));
  return out;
}

bool same_run(const kernels::RunResult& a, const kernels::RunResult& b) {
  if (a.stats.cycles != b.stats.cycles ||
      a.stats.instructions != b.stats.instructions ||
      a.stats.load_count != b.stats.load_count ||
      a.stats.store_count != b.stats.store_count ||
      a.stats.op_count != b.stats.op_count ||
      a.stats.pc_cycles != b.stats.pc_cycles || a.fflags != b.fflags ||
      a.outputs.size() != b.outputs.size()) {
    return false;
  }
  for (const auto& [name, va] : a.outputs) {
    const auto it = b.outputs.find(name);
    if (it == b.outputs.end() || it->second.size() != va.size() ||
        std::memcmp(va.data(), it->second.data(),
                    va.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Re-simulate a seed-chosen sample of the workload's cells under the
/// repo's oracles (Reference engine, grs backend). Each sampled cell must
/// match the measured configuration bit for bit (cycles, instructions,
/// per-op and per-pc counts, fflags, outputs); its oracle CellResult digest
/// is what run.py compares against the reference report.
eval::JsonObject run_oracle(const Workload& w, std::uint64_t seed) {
  const auto cells = eval::expand_matrix(w.spec);
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(std::min(order.size(), kOracleSample));

  eval::JsonArray sample;
  for (const std::size_t i : order) {
    const eval::CellSpec& cell = cells[i];
    std::string cell_digest;
    bool ok = false;
    try {
      ir::OptConfig opt = w.spec.opt;
      opt.vl_cap = cell.vl;
      const kernels::KernelSpec ks =
          cell.benchmark->bench.make(cell.type_config.tc);
      const ir::LoweredKernel lowered =
          ir::lower(ks.kernel, cell.mode, ks.init, opt);
      const auto measured =
          kernels::run_lowered(ks, lowered, w.spec.mem, isa::IsaConfig::full(),
                               w.spec.engine, w.spec.backend);
      const auto oracle = kernels::run_lowered(
          ks, lowered, w.spec.mem, isa::IsaConfig::full(),
          sim::Engine::Reference, fp::MathBackend::Grs);
      const eval::CellResult ref =
          eval::run_cell(cell, w.spec.mem, sim::Engine::Reference,
                         fp::MathBackend::Grs, w.spec.opt);
      cell_digest = e2ebench::digest(eval::cell_to_json(ref).dump());
      ok = same_run(measured, oracle);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "oracle: cell %zu threw: %s\n", i, e.what());
    }
    sample.emplace_back(eval::JsonObject{
        {"index", eval::Json(static_cast<std::uint64_t>(i))},
        {"digest", eval::Json(cell_digest)},
        {"ok", eval::Json(ok)},
    });
  }
  return {{"sample", eval::Json(std::move(sample))}};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string store_dir;
  std::string spans_path;
  std::uint64_t seed = 1;
  bool smoke = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--store" && has_value) {
      store_dir = argv[++i];
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage();
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }

  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "sfrv-e2ebench: refusing to measure: %s\n", why);
    return 3;
  }
  // The verifier re-checks every lowering and trace; it is a test aid, not
  // part of what a campaign costs, and SFRV_VERIFY must not switch it on.
  verify::set_enabled(false);

  try {
    if (mode == "info") {
      print(build_info());
      return 0;
    }
    const Workload w = e2ebench::make_workload(workload, smoke);
    if (w.warm && store_dir.empty() && mode != "oracle") {
      std::fprintf(stderr, "sfrv-e2ebench: %s needs --store DIR\n",
                   w.name.c_str());
      return 2;
    }
    if (mode == "rep") {
      print(run_rep(w, store_dir));
    } else if (mode == "oracle") {
      print(run_oracle(w, seed));
    } else if (mode == "trace") {
      print(e2ebench::run_traced(w, seed, store_dir, spans_path));
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfrv-e2ebench: %s\n", e.what());
    return 1;
  }
  return 0;
}
