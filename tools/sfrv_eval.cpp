// sfrv-eval: end-to-end evaluation campaign driver.
//
// Expands a (benchmark × TypeConfig × CodegenMode) matrix, runs every cell
// through the simulator on worker threads, and writes a schema-versioned
// JSON report plus a generated Markdown report mirroring the paper's
// Table III / Fig. 5 / Fig. 6 artifacts.
//
//   sfrv-eval --suite table3 --out report          # full paper-sized run
//   sfrv-eval --suite smoke --out eval-ci -j 2     # CI-sized run
//   sfrv-eval --suite smoke --cache-dir .cells     # reuse cells across runs
//
// The JSON output is deterministic: identical across thread counts, across
// runs, and across cold/warm cell-store passes — including separate
// processes sharing one --cache-dir — so it can be checked in
// (BENCH_eval.json) and diffed.
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/campaign.hpp"
#include "sim/core.hpp"
#include "sim/jit.hpp"
#include "util/verify.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--suite table3|smoke|nn|nn-smoke] [--out PREFIX] [-j N]\n"
      "          [--benchmarks a,b,...] [--vls a,b,...] [--mem l1|l2|l3]\n"
      "          [--engine %s]\n"
      "          [--backend grs|fast] [--opt O0|O1|O2]\n"
      "          [--jit-threshold N] [--verify] [--wall-clock] [--no-tuner]\n"
      "          [--cache-dir DIR] [--cache-bench]\n"
      "          [--list benchmarks|suites|engines|backends|opts]\n"
      "\n"
      "  --suite       campaign to run (default: table3). nn is the NN\n"
      "                inference/training tier with a VL sweep; nn-smoke is\n"
      "                its reduced-size clone for CI\n"
      "  --out         output prefix; writes PREFIX.json and PREFIX.md\n"
      "                (default: report)\n"
      "  -j, --jobs    worker threads (default: 1)\n"
      "  --benchmarks  comma-separated subset of the suite (default: all)\n"
      "  --vls         comma-separated VL-sweep axis; each point overrides\n"
      "                the strip-mining setvl cap (0 = legacy fixed-lane\n"
      "                lowering). Default: the suite's axis\n"
      "  --mem         memory level: l1=1, l2=10, l3=100 cycles load latency\n"
      "                (default: l1)\n"
      "  --engine      simulator engine; results are engine-independent, only\n"
      "                wall-clock changes (default: $SFRV_ENGINE or predecoded)\n"
      "  --backend     softfloat math backend; bit- and fflags-identical, only\n"
      "                wall-clock changes (default: $SFRV_BACKEND or grs)\n"
      "  --opt         post-lowering optimization level; outputs and QoR are\n"
      "                bit-identical, cycle metrics improve\n"
      "                (default: $SFRV_OPT or O0)\n"
      "  --jit-threshold  jit engine hotness threshold: blocks interpret until\n"
      "                entered more than N times, then compile; 0 compiles on\n"
      "                first entry. Wall-clock only (default: 8)\n"
      "  --verify      enable per-pass pipeline verification (equivalent to\n"
      "                SFRV_VERIFY=1): statically check every lowered kernel\n"
      "                and compiled trace, and abort with a pass-attributed\n"
      "                diagnostic on the first violation\n"
      "  --wall-clock  record the run's wall time, fixture build included, as\n"
      "                `wall_ms` in the JSON report (host-dependent; off by\n"
      "                default so reports stay byte-deterministic)\n"
      "  --no-tuner    skip the Fig. 6 precision-tuning case study\n"
      "  --cache-dir   persist the cell store under DIR (one JSON entry per\n"
      "                content address, atomic-rename writes); later runs and\n"
      "                concurrent processes on the same DIR reuse any cell\n"
      "                whose address matches\n"
      "  --cache-bench run the campaign twice in-process (cold, then warm from\n"
      "                the store), verify the reports are byte-identical, and\n"
      "                record {hits, misses, cold_ms, warm_ms} in the JSON\n"
      "                report (implies --wall-clock)\n"
      "  --list        print the known names of a kind, one per line, and exit\n",
      argv0, sfrv::sim::engine_names().c_str());
  return 2;
}

int run_list(const std::string& kind) {
  using namespace sfrv;
  if (kind == "benchmarks") {
    // The smoke suite carries every benchmark name (the full suite at full
    // problem sizes would train the paper SVM fixture just to print names).
    for (const auto& b : eval::eval_suite(eval::SuiteScale::Smoke)) {
      std::printf("%s\n", b.bench.name.c_str());
    }
  } else if (kind == "suites") {
    std::printf("table3\nsmoke\nnn\nnn-smoke\n");
  } else if (kind == "engines") {
    for (const auto& e : sim::kEngines) {
      std::printf("%.*s\n", static_cast<int>(e.name.size()), e.name.data());
    }
  } else if (kind == "backends") {
    std::printf("grs\nfast\n");
  } else if (kind == "opts") {
    std::printf("O0\nO1\nO2\n");
  } else {
    std::fprintf(stderr,
                 "unknown list kind: %s (expected "
                 "benchmarks|suites|engines|backends|opts)\n",
                 kind.c_str());
    return 2;
  }
  return 0;
}

void print_cache_line(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t lookups = hits + misses;
  const double rate =
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(hits) /
                         static_cast<double>(lookups);
  std::printf("cache: %llu hits, %llu misses (hit rate: %.1f%%)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), rate);
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  return static_cast<bool>(out);
}

/// Full-string integer parse: rejects partial parses like "2abc" (std::atoi
/// silently accepted them) and out-of-range values.
bool parse_int(const char* s, int& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (v < INT_MIN || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

/// Split the comma-separated value of `flag` into `out`. An empty list or an
/// empty item ("", ",", "a,,b", "a,") is a usage error, never a request for
/// the default: prints a diagnostic naming the flag and returns false.
bool split_csv(const char* flag, const std::string& arg,
               std::vector<std::string>& out) {
  out.clear();
  std::size_t start = 0;
  for (;;) {
    const auto comma = arg.find(',', start);
    const auto end = comma == std::string::npos ? arg.size() : comma;
    if (end == start) {
      std::fprintf(stderr, "%s: empty item in list '%s'\n", flag,
                   arg.c_str());
      return false;
    }
    out.push_back(arg.substr(start, end - start));
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfrv;

  std::string suite = "table3";
  std::string out_prefix = "report";
  std::optional<std::string> benchmarks;
  std::optional<std::string> vls;
  std::string mem_level = "l1";
  std::string engine;
  std::string backend;
  std::string opt;
  std::string cache_dir;
  std::string list_kind;
  int jobs = 1;
  int jit_threshold = -1;  // -1: keep the process default
  bool wall_clock = false;
  bool cache_bench = false;
  bool tuner = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--suite") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      suite = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      out_prefix = v;
    } else if (arg == "-j" || arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (!parse_int(v, jobs) || jobs < 1) {
        std::fprintf(stderr, "invalid job count: %s\n", v);
        return 2;
      }
    } else if (arg == "--benchmarks") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      benchmarks = v;
    } else if (arg == "--vls") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      vls = v;
    } else if (arg == "--mem") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      mem_level = v;
    } else if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      engine = v;
    } else if (arg == "--backend") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      backend = v;
    } else if (arg == "--opt") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt = v;
    } else if (arg == "--jit-threshold") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (!parse_int(v, jit_threshold) || jit_threshold < 0) {
        std::fprintf(stderr, "invalid jit threshold: %s\n", v);
        return 2;
      }
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cache_dir = v;
    } else if (arg == "--cache-bench") {
      cache_bench = true;
      wall_clock = true;
    } else if (arg == "--list") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      list_kind = v;
    } else if (arg == "--verify") {
      sfrv::verify::set_enabled(true);
    } else if (arg == "--wall-clock") {
      wall_clock = true;
    } else if (arg == "--no-tuner") {
      tuner = false;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (!list_kind.empty()) return run_list(list_kind);

  eval::CampaignSpec spec;
  if (suite == "table3") {
    spec = eval::CampaignSpec::table3();
  } else if (suite == "smoke") {
    spec = eval::CampaignSpec::smoke();
  } else if (suite == "nn") {
    spec = eval::CampaignSpec::nn(eval::SuiteScale::Full);
  } else if (suite == "nn-smoke") {
    spec = eval::CampaignSpec::nn(eval::SuiteScale::Smoke);
    spec.name = "nn-smoke";
  } else {
    std::fprintf(stderr, "unknown suite: %s\n", suite.c_str());
    return usage(argv[0]);
  }
  if (benchmarks && !split_csv("--benchmarks", *benchmarks, spec.benchmarks)) {
    return 2;
  }
  if (vls) {
    std::vector<std::string> toks;
    if (!split_csv("--vls", *vls, toks)) return 2;
    spec.vls.clear();
    for (const auto& tok : toks) {
      int vl = 0;
      if (!parse_int(tok.c_str(), vl) || vl < 0 || vl > 63) {
        std::fprintf(stderr, "invalid VL point: %s (expected 0..63)\n",
                     tok.c_str());
        return 2;
      }
      spec.vls.push_back(vl);
    }
  }
  spec.tuner_study = tuner && spec.tuner_study;
  if (!engine.empty()) {
    try {
      spec.engine = sim::engine_from_name(engine);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s (expected %s)\n", e.what(),
                   sim::engine_names().c_str());
      return usage(argv[0]);
    }
  }
  if (jit_threshold >= 0) {
    sim::jit::set_default_threshold(static_cast<std::uint32_t>(jit_threshold));
  }
  if (!backend.empty()) {
    try {
      spec.backend = fp::backend_from_name(backend);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (!opt.empty()) {
    try {
      spec.opt = ir::opt_from_name(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (mem_level == "l1") {
    spec.mem.set_level(sim::kMemL1);
  } else if (mem_level == "l2") {
    spec.mem.set_level(sim::kMemL2);
  } else if (mem_level == "l3") {
    spec.mem.set_level(sim::kMemL3);
  } else {
    std::fprintf(stderr, "unknown memory level: %s\n", mem_level.c_str());
    return usage(argv[0]);
  }

  const std::string json_path = out_prefix + ".json";
  const std::string md_path = out_prefix + ".md";

  try {
    // The clock starts before expand_matrix: expanding a full-size suite
    // trains the SVM fixture, which wall_ms and cold_ms must include.
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n_cells = eval::expand_matrix(spec).size();
    std::printf("sfrv-eval: suite %s, engine %s, backend %s, opt %s, "
                "%zu cells, %d job(s)%s\n",
                spec.name.c_str(),
                std::string(sim::engine_name(spec.engine)).c_str(),
                std::string(fp::backend_name(spec.backend)).c_str(),
                std::string(ir::opt_name(spec.opt)).c_str(), n_cells,
                jobs, spec.runs_tuner() ? ", tuner study" : "");
    std::unique_ptr<eval::CellStore> store;
    if (!cache_dir.empty() || cache_bench) {
      store = std::make_unique<eval::CellStore>(cache_dir);
    }
    eval::EvalReport report = eval::run_campaign(spec, jobs, store.get());
    const auto t1 = std::chrono::steady_clock::now();
    const double cold_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (cache_bench) {
      const eval::EvalReport warm = eval::run_campaign(spec, jobs, store.get());
      const double warm_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t1)
                                 .count();
      // The cache-correctness contract, checked in-process: a fully cached
      // rerun must serialize bit-for-bit like the cold pass (telemetry is
      // not attached yet, so the dumps are directly comparable).
      if (eval::to_json(report).dump(2) != eval::to_json(warm).dump(2) ||
          eval::render_markdown(report) != eval::render_markdown(warm)) {
        std::fprintf(stderr,
                     "sfrv-eval: cache determinism violation: warm report "
                     "differs from cold\n");
        return 1;
      }
      report.has_cache = true;
      report.cache.hits = warm.cache.hits;  // warm pass: every lookup hits
      report.cache.misses = warm.cache.misses;
      report.cache.cold_ms = cold_ms;
      report.cache.warm_ms = warm_ms;
      std::printf("cache bench: cold %.1f ms, warm %.1f ms (%.1fx)\n", cold_ms,
                  warm_ms, warm_ms > 0 ? cold_ms / warm_ms : 0.0);
      print_cache_line(report.cache.hits, report.cache.misses);
    } else if (store != nullptr) {
      if (wall_clock) report.has_cache = true;
      print_cache_line(report.cache.hits, report.cache.misses);
    }
    if (wall_clock) report.wall_ms = cold_ms;

    if (!write_file(json_path, eval::to_json(report).dump(2) + "\n") ||
        !write_file(md_path, eval::render_markdown(report))) {
      std::fprintf(stderr, "failed to write %s / %s\n", json_path.c_str(),
                   md_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu cells) and %s\n", json_path.c_str(),
                report.cells.size(), md_path.c_str());
    if (report.has_tuner && report.tuner.found) {
      std::printf("tuned assignment: data=%s acc=%s (accuracy %.1f%%)\n",
                  std::string(ir::type_name(report.tuner.best.data)).c_str(),
                  std::string(ir::type_name(report.tuner.best.acc)).c_str(),
                  100 * report.tuner.best.qor);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfrv-eval: %s\n", e.what());
    return 1;
  }
  return 0;
}
