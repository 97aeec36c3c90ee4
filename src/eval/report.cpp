#include "eval/report.hpp"

#include <stdexcept>

namespace sfrv::eval {

namespace {

Json breakdown_to_json(const energy::EnergyBreakdown& e) {
  return Json(JsonObject{{"total_pj", Json(e.total())},
                         {"base_pj", Json(e.base)},
                         {"leakage_pj", Json(e.leakage)},
                         {"unit_pj", Json(e.unit)},
                         {"memory_pj", Json(e.memory)}});
}

energy::EnergyBreakdown breakdown_from_json(const Json& j) {
  energy::EnergyBreakdown e;
  e.base = j.at("base_pj").as_double();
  e.leakage = j.at("leakage_pj").as_double();
  e.unit = j.at("unit_pj").as_double();
  e.memory = j.at("memory_pj").as_double();
  return e;
}

}  // namespace

Json cell_to_json(const CellResult& c) {
  JsonObject counts;
  counts.reserve(c.class_counts.size());
  for (const auto& [cls, n] : c.class_counts) counts.emplace_back(cls, Json(n));
  JsonObject obj{
      {"benchmark", Json(c.benchmark)},
      {"type_config", Json(c.type_config)},
      {"data", Json(ir::type_name(c.data))},
      {"acc", Json(ir::type_name(c.acc))},
      {"mode", Json(ir::mode_name(c.mode))},
      {"vl", Json(c.vl)},
      {"cycles", Json(c.cycles)},
      {"instructions", Json(c.instructions)},
      {"loads", Json(c.loads)},
      {"stores", Json(c.stores)},
      {"class_counts", Json(std::move(counts))},
      {"energy", breakdown_to_json(c.energy)},
      {"sqnr_db", Json(c.sqnr_db)},
  };
  if (c.accuracy >= 0) obj.emplace_back("accuracy", Json(c.accuracy));
  return Json(std::move(obj));
}

CellResult cell_from_json(const Json& j) {
  CellResult c;
  c.benchmark = j.at("benchmark").as_string();
  c.type_config = j.at("type_config").as_string();
  c.data = scalar_type_from_name(j.at("data").as_string());
  c.acc = scalar_type_from_name(j.at("acc").as_string());
  c.mode = mode_from_name(j.at("mode").as_string());
  c.vl = static_cast<int>(j.at("vl").as_int());
  c.cycles = j.at("cycles").as_uint();
  c.instructions = j.at("instructions").as_uint();
  c.loads = j.at("loads").as_uint();
  c.stores = j.at("stores").as_uint();
  for (const auto& [cls, n] : j.at("class_counts").object()) {
    c.class_counts.emplace_back(cls, n.as_uint());
  }
  c.energy = breakdown_from_json(j.at("energy"));
  c.sqnr_db = j.at("sqnr_db").as_double();
  if (const Json* acc = j.find("accuracy")) c.accuracy = acc->as_double();
  return c;
}

namespace {

Json trial_to_json(const TunerTrial& t) {
  return Json(JsonObject{{"data", Json(ir::type_name(t.data))},
                         {"acc", Json(ir::type_name(t.acc))},
                         {"qor", Json(t.qor)},
                         {"cost", Json(t.cost)},
                         {"feasible", Json(t.feasible)}});
}

Json strings_to_json(const std::vector<std::string>& v) {
  JsonArray arr;
  arr.reserve(v.size());
  for (const auto& s : v) arr.emplace_back(s);
  return Json(std::move(arr));
}

Json ints_to_json(const std::vector<int>& v) {
  JsonArray arr;
  arr.reserve(v.size());
  for (const int x : v) arr.emplace_back(x);
  return Json(std::move(arr));
}

}  // namespace

ir::ScalarType scalar_type_from_name(std::string_view name) {
  for (const auto t : {ir::ScalarType::F32, ir::ScalarType::F16,
                       ir::ScalarType::F16Alt, ir::ScalarType::F8,
                       ir::ScalarType::P8, ir::ScalarType::P16}) {
    if (name == ir::type_name(t)) return t;
  }
  throw std::runtime_error("unknown scalar type name: " + std::string(name));
}

ir::CodegenMode mode_from_name(std::string_view name) {
  for (const auto m : {ir::CodegenMode::Scalar, ir::CodegenMode::AutoVec,
                       ir::CodegenMode::ManualVec,
                       ir::CodegenMode::ManualVecExs}) {
    if (name == ir::mode_name(m)) return m;
  }
  throw std::runtime_error("unknown codegen mode name: " + std::string(name));
}

const CellResult* EvalReport::find_cell(std::string_view benchmark,
                                        std::string_view type_config,
                                        ir::CodegenMode mode, int vl) const {
  for (const auto& c : cells) {
    if (c.benchmark == benchmark && c.type_config == type_config &&
        c.mode == mode && c.vl == vl) {
      return &c;
    }
  }
  return nullptr;
}

Json to_json(const EvalReport& report) {
  JsonArray cells;
  cells.reserve(report.cells.size());
  for (const auto& c : report.cells) cells.push_back(cell_to_json(c));

  JsonObject obj{
      {"schema", Json(kReportSchema)},
      {"suite", Json(report.suite)},
      {"engine", Json(report.engine)},
      {"backend", Json(report.backend)},
      {"opt", Json(report.opt)},
      {"mem", Json(JsonObject{{"load_latency", Json(report.mem_load_latency)},
                              {"store_latency", Json(report.mem_store_latency)}})},
      {"benchmarks", strings_to_json(report.benchmarks)},
      {"type_configs", strings_to_json(report.type_configs)},
      {"modes", strings_to_json(report.modes)},
      {"vls", ints_to_json(report.vls)},
      {"cells", Json(std::move(cells))},
  };
  // Host-dependent, opt-in: keeping it out of default reports preserves the
  // byte-determinism contract (see EvalReport::wall_ms).
  if (report.wall_ms >= 0) {
    obj.emplace_back("wall_ms", Json(report.wall_ms));
  }
  // Same opt-in: cache telemetry depends on run order (a warm rerun hits
  // where the cold pass missed), so it must stay out of the byte-compared
  // default reports.
  if (report.has_cache) {
    JsonObject cache{{"hits", Json(report.cache.hits)},
                     {"misses", Json(report.cache.misses)}};
    if (report.cache.cold_ms >= 0) {
      cache.emplace_back("cold_ms", Json(report.cache.cold_ms));
    }
    if (report.cache.warm_ms >= 0) {
      cache.emplace_back("warm_ms", Json(report.cache.warm_ms));
    }
    obj.emplace_back("cache", Json(std::move(cache)));
  }
  if (report.has_tuner) {
    JsonArray explored;
    explored.reserve(report.tuner.explored.size());
    for (const auto& t : report.tuner.explored) {
      explored.push_back(trial_to_json(t));
    }
    obj.emplace_back(
        "tuner",
        Json(JsonObject{{"benchmark", Json(report.tuner.benchmark)},
                        {"objective", Json(report.tuner.objective)},
                        {"qor_threshold", Json(report.tuner.qor_threshold)},
                        {"found", Json(report.tuner.found)},
                        {"best", trial_to_json(report.tuner.best)},
                        {"explored", Json(std::move(explored))}}));
  }
  return Json(std::move(obj));
}

}  // namespace sfrv::eval
