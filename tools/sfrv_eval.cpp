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
#include <algorithm>
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
#include <utility>
#include <vector>

#include "eval/campaign.hpp"
#include "sim/core.hpp"
#include "util/verify.hpp"

namespace {

/// The largest -j: run_sharded starts one thread per job (at most one per
/// group of cells), and a wide --vls list makes thousands of groups, so an
/// uncapped -j could ask for thousands of threads.
constexpr int kMaxJobs = 256;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--suite table3|smoke|nn|nn-smoke] [--out PREFIX] [-j N]\n"
      "          [--benchmarks a,b,...] [--vls a,b,...] [--mem l1|l2|l3]\n"
      "          [--engine %s]\n"
      "          [--backend grs|fast] [--opt O0|O1|O2]\n"
      "          [--verify] [--no-tuner] [--cache-dir DIR]\n"
      "          [--list benchmarks|suites|engines|backends|opts]\n"
      "\n"
      "  --suite       campaign to run (default: table3). nn is the NN\n"
      "                inference/training tier with a VL sweep; nn-smoke is\n"
      "                its reduced-size clone for CI\n"
      "  --out         output prefix; writes PREFIX.json and PREFIX.md\n"
      "                (default: report)\n"
      "  -j, --jobs    worker threads, 1 to %d (default: 1)\n"
      "  --benchmarks  comma-separated subset of the suite (default: all)\n"
      "  --vls         comma-separated VL-sweep axis; each point overrides\n"
      "                the strip-mining setvl cap (0 = legacy fixed-lane\n"
      "                lowering). Default: the suite's axis\n"
      "  --mem         memory level: l1=1, l2=10, l3=100 cycles load latency\n"
      "                (default: l1)\n"
      "  --engine      simulator engine; results are engine-independent, only\n"
      "                wall-clock changes (default: jit)\n"
      "  --backend     softfloat math backend; bit- and fflags-identical, only\n"
      "                wall-clock changes (default: grs)\n"
      "  --opt         post-lowering optimization level; outputs and QoR are\n"
      "                bit-identical, cycle metrics improve\n"
      "                (default: O0)\n"
      "  --verify      enable per-pass pipeline verification (equivalent to\n"
      "                SFRV_VERIFY=1): statically check every lowered kernel\n"
      "                and compiled trace, and abort with a pass-attributed\n"
      "                diagnostic on the first violation\n"
      "  --no-tuner    skip the Fig. 6 precision-tuning case study\n"
      "  --cache-dir   keep a cell store under DIR (one JSON entry per content\n"
      "                address, atomic-rename writes); later runs and\n"
      "                concurrent processes on the same DIR reuse any cell\n"
      "                whose address matches (default: no store)\n"
      "  --list        print the known names of a kind, one per line, and exit\n",
      argv0, sfrv::sim::engine_names().c_str(), kMaxJobs);
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
/// the default, and so is a repeated item ("a,a"), which would run or print
/// the same column twice: prints a diagnostic naming the flag and returns
/// false.
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
    std::string item = arg.substr(start, end - start);
    if (std::find(out.begin(), out.end(), item) != out.end()) {
      std::fprintf(stderr, "%s: repeated item '%s' in list '%s'\n", flag,
                   item.c_str(), arg.c_str());
      return false;
    }
    out.push_back(std::move(item));
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
      if (jobs > kMaxJobs) {
        std::fprintf(stderr, "job count %s exceeds the maximum of %d\n", v,
                     kMaxJobs);
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
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (*v == '\0') {
        std::fprintf(stderr, "--cache-dir: empty directory name\n");
        return 2;
      }
      cache_dir = v;
    } else if (arg == "--list") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      list_kind = v;
    } else if (arg == "--verify") {
      sfrv::verify::set_enabled(true);
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
      // Distinct spellings of one point ("2,02") are repeats too.
      if (std::find(spec.vls.begin(), spec.vls.end(), vl) != spec.vls.end()) {
        std::fprintf(stderr, "--vls: repeated item '%s' in list '%s'\n",
                     tok.c_str(), vls->c_str());
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
    // trains the SVM fixture, which the printed wall time includes.
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
    if (!cache_dir.empty()) {
      store = std::make_unique<eval::CellStore>(cache_dir);
    }
    const eval::EvalReport report = eval::run_campaign(spec, jobs, store.get());
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (store != nullptr) {
      print_cache_line(report.cache.hits, report.cache.misses);
    }

    if (!write_file(json_path, eval::to_json(report).dump(2) + "\n") ||
        !write_file(md_path, eval::render_markdown(report))) {
      std::fprintf(stderr, "failed to write %s / %s\n", json_path.c_str(),
                   md_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu cells, %llu simulated) and %s, wall %.1f ms\n",
                json_path.c_str(), report.cells.size(),
                static_cast<unsigned long long>(report.cache.simulated),
                md_path.c_str(), wall_ms);
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
