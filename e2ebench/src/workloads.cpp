#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "util/fnv.hpp"

namespace e2ebench {

using namespace sfrv;

namespace {

/// Every workload runs jit + fast at L1 with the verifier off: results are
/// bit-identical across engines and backends, and this is the configuration
/// the ROADMAP baseline measures. Setting them here, not through defaults,
/// keeps SFRV_ENGINE / SFRV_BACKEND / SFRV_OPT out of the measurement.
eval::CampaignSpec pinned(eval::CampaignSpec spec, bool smoke) {
  spec.scale = smoke ? eval::SuiteScale::Smoke : eval::SuiteScale::Full;
  spec.engine = sim::Engine::Jit;
  spec.backend = fp::MathBackend::Fast;
  spec.mem = sim::MemConfig{};
  spec.mem.set_level(sim::kMemL1);
  return spec;
}

}  // namespace

Workload make_workload(std::string_view name, bool smoke) {
  using ir::CodegenMode;
  using ir::ScalarType;
  Workload w;
  w.name = std::string(name);
  if (name == "table3-cold" || name == "table3-warm") {
    // The paper's headline campaign: 252 cells plus the 36-point tuner study.
    // One job: on a shared host, worker threads that wait for a core made
    // campaign_s spread by 30-55% between runs; one thread does not wait.
    eval::CampaignSpec spec = eval::CampaignSpec::table3();
    spec.opt = ir::OptConfig::O0();
    spec.vls = {0};
    spec.tuner_study = true;
    w.spec = pinned(std::move(spec), smoke);
    w.jobs = 1;
    w.warm = name == "table3-warm";
    return w;
  }
  if (name == "simd-vl-sweep") {
    // Packed-only smallFloat SIMD over every benchmark: 9 x 5 x 3 x 3 = 405
    // cells at O2, one job, no tuner.
    eval::CampaignSpec spec;
    spec.name = "simd-vl-sweep";
    spec.benchmarks.clear();
    spec.type_configs = {
        {"float16", kernels::TypeConfig::uniform(ScalarType::F16)},
        {"float16alt", kernels::TypeConfig::uniform(ScalarType::F16Alt)},
        {"float8", kernels::TypeConfig::uniform(ScalarType::F8)},
        {"mixed", {ScalarType::F16, ScalarType::F32}},
        {"minifloat-nn", {ScalarType::F8, ScalarType::F16}},
    };
    spec.modes = {CodegenMode::AutoVec, CodegenMode::ManualVec,
                  CodegenMode::ManualVecExs};
    spec.vls = {0, 2, 4};
    spec.opt = ir::OptConfig::O2();
    spec.tuner_study = false;
    w.spec = pinned(std::move(spec), smoke);
    w.jobs = 1;
    return w;
  }
  throw std::runtime_error("unknown workload: " + w.name +
                           " (expected table3-cold|table3-warm|simd-vl-sweep)");
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string digest(std::string_view bytes) {
  util::Fnv1a h;
  h.bytes(bytes.data(), bytes.size());
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h.value()));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

eval::JsonObject summarize(const eval::EvalReport& report,
                           const std::string& json, const std::string& md) {
  eval::JsonArray cells;
  std::uint64_t cycles = 0;
  double energy_pj = 0;
  for (const auto& c : report.cells) {
    cells.emplace_back(digest(eval::cell_to_json(c).dump()));
    cycles += c.cycles;
    energy_pj += c.energy.total();
  }
  return {
      {"json_digest", eval::Json(digest(json))},
      {"md_digest", eval::Json(digest(md))},
      {"cells", eval::Json(std::move(cells))},
      {"sim_cycles", eval::Json(cycles)},
      {"sim_energy_uj", eval::Json(energy_pj * 1e-6)},
      {"store_hits", eval::Json(report.cache.hits)},
      {"store_misses", eval::Json(report.cache.misses)},
  };
}

}  // namespace e2ebench
