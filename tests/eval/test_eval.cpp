// Eval-layer tests: JSON model, matrix expansion, deterministic parallel
// aggregation (byte-identical reports at -j1 and -jN), report round-trip,
// single cells against their campaign cells, and the tuner case study.
// Campaign-level tests run the Smoke suite so the whole file stays in
// ctest-friendly time.
#include "eval/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "eval/json.hpp"
#include "eval/report.hpp"

namespace sfrv::eval {
namespace {

// ---- Json ------------------------------------------------------------------

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(std::int64_t{-42}).dump(), "-42");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");

  const Json v = Json::parse("  [1, 2.25, \"x\", true, null]  ");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.array().size(), 5u);
  EXPECT_EQ(v.array()[0].as_int(), 1);
  EXPECT_EQ(v.array()[1].as_double(), 2.25);
  EXPECT_EQ(v.array()[2].as_string(), "x");
  EXPECT_TRUE(v.array()[3].as_bool());
  EXPECT_TRUE(v.array()[4].is_null());
}

TEST(Json, StringEscapes) {
  const std::string raw = "a\"b\\c\nd\te\x01";
  const std::string dumped = Json(raw).dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  EXPECT_EQ(Json::parse(dumped).as_string(), raw);
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Json v(JsonObject{{"z", Json(1)}, {"a", Json(2)}});
  EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2}");
  EXPECT_EQ(v.at("z").as_int(), 1);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
}

TEST(Json, DoubleShortestRoundTrip) {
  for (const double d : {0.1, 1.0 / 3.0, 1e-30, 123456789.123456789}) {
    const Json parsed = Json::parse(Json(d).dump());
    EXPECT_EQ(parsed.as_double(), d);
  }
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("42 garbage"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  // Nesting is bounded: a hostile document is an ordinary parse error, not
  // a stack overflow. Documents within the bound still parse.
  EXPECT_THROW((void)Json::parse(std::string(200'000, '[')),
               std::runtime_error);
  EXPECT_THROW((void)Json::parse(std::string(1'000, '[') +
                                 std::string(1'000, ']')),
               std::runtime_error);
  EXPECT_NO_THROW((void)Json::parse(std::string(100, '[') +
                                    std::string(100, ']')));
}

TEST(Json, NonFiniteDoublesRejectedAtSerialization) {
  EXPECT_THROW((void)Json(std::numeric_limits<double>::infinity()).dump(),
               std::runtime_error);
}

// ---- matrix expansion ------------------------------------------------------

TEST(ExpandMatrix, FullCrossProductInOrder) {
  const CampaignSpec spec = CampaignSpec::smoke();
  const auto cells = expand_matrix(spec);
  const auto& suite = eval_suite(SuiteScale::Smoke);
  ASSERT_EQ(cells.size(),
            suite.size() * spec.type_configs.size() * spec.modes.size());
  // Benchmark-major, then type config, then mode.
  std::size_t i = 0;
  for (const auto& b : suite) {
    for (const auto& tc : spec.type_configs) {
      for (const auto mode : spec.modes) {
        EXPECT_EQ(cells[i].benchmark, &b);
        EXPECT_EQ(cells[i].type_config.name, tc.name);
        EXPECT_EQ(cells[i].mode, mode);
        ++i;
      }
    }
  }
}

TEST(ExpandMatrix, BenchmarkFilterAndUnknownName) {
  CampaignSpec spec = CampaignSpec::smoke();
  spec.benchmarks = {"gemm", "fdtd2d"};
  const auto cells = expand_matrix(spec);
  EXPECT_EQ(cells.size(), 2 * spec.type_configs.size() * spec.modes.size());
  EXPECT_EQ(cells.front().benchmark->bench.name, "gemm");
  EXPECT_EQ(cells.back().benchmark->bench.name, "fdtd2d");

  spec.benchmarks = {"nope"};
  EXPECT_THROW((void)expand_matrix(spec), std::runtime_error);
}

TEST(ExpandMatrix, CoversAcceptanceMatrix) {
  // The acceptance criterion: the paper's 6 benchmarks plus the NN tier
  // (conv2d, fully_connected, nn_train) x 4 modes (scalar, auto-vec,
  // manual-vec, manual-vec-exsdotp) x >= 7 type configs (the paper's five
  // plus posit8/posit16).
  const CampaignSpec spec = CampaignSpec::table3();
  EXPECT_EQ(eval_suite(spec.scale).size(), 9u);
  EXPECT_EQ(spec.modes.size(), 4u);
  EXPECT_GE(spec.type_configs.size(), 7u);
}

TEST(ExpandMatrix, VlAxisIsInnermost) {
  CampaignSpec spec = CampaignSpec::smoke();
  spec.benchmarks = {"gemm"};
  spec.modes = {ir::CodegenMode::ManualVec};
  spec.vls = {0, 2, 4};
  const auto cells = expand_matrix(spec);
  ASSERT_EQ(cells.size(), spec.type_configs.size() * spec.vls.size());
  std::size_t i = 0;
  for (const auto& tc : spec.type_configs) {
    for (const int vl : spec.vls) {
      EXPECT_EQ(cells[i].type_config.name, tc.name);
      EXPECT_EQ(cells[i].vl, vl);
      ++i;
    }
  }
}

TEST(ExpandMatrix, NnPresetShape) {
  const CampaignSpec spec = CampaignSpec::nn(SuiteScale::Smoke);
  EXPECT_EQ(spec.name, "nn");
  EXPECT_FALSE(spec.tuner_study);
  const auto cells = expand_matrix(spec);
  // 3 NN benchmarks x {float16, minifloat-nn} x manual-vec-exsdotp x 4 VLs.
  EXPECT_EQ(cells.size(), 3u * 2u * 1u * 4u);
  for (const auto& c : cells) {
    EXPECT_EQ(c.mode, ir::CodegenMode::ManualVecExs);
  }
}

// ---- campaign determinism and round-trip -----------------------------------

/// Small-but-representative campaign: two benchmarks (one with an accuracy
/// hook), the full type-config and mode matrix.
CampaignSpec small_spec(bool tuner = false) {
  CampaignSpec spec = CampaignSpec::smoke();
  spec.benchmarks = {"svm", "atax"};
  spec.tuner_study = tuner;
  return spec;
}

TEST(Campaign, ParallelAggregationIsDeterministic) {
  const EvalReport serial = run_campaign(small_spec(), 1);
  const EvalReport parallel = run_campaign(small_spec(), 4);
  EXPECT_EQ(to_json(serial).dump(2), to_json(parallel).dump(2));
}

TEST(Campaign, ReportIsEngineInvariant) {
  // The same campaign through both engines must produce byte-identical
  // JSON apart from the recorded engine name — the report measures the
  // simulated machine, not the simulator.
  std::vector<std::string> dumps;
  for (const auto e : {sim::Engine::Reference, sim::Engine::Jit}) {
    CampaignSpec spec = small_spec();
    spec.engine = e;
    EvalReport report = run_campaign(spec, 2);
    EXPECT_EQ(report.engine, sim::engine_name(e));
    report.engine.clear();  // normalize the one intentional difference
    dumps.push_back(to_json(report).dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(Campaign, ReportIsBackendInvariant) {
  // The math backends are bit- and fflags-identical by contract, so the
  // report -- cycles, instruction mix, SQNR, accuracy -- must be
  // byte-identical apart from the recorded backend name.
  std::vector<std::string> dumps;
  for (const auto b : {fp::MathBackend::Grs, fp::MathBackend::Fast}) {
    CampaignSpec spec = small_spec();
    spec.backend = b;
    EvalReport report = run_campaign(spec, 2);
    EXPECT_EQ(report.backend, fp::backend_name(b));
    report.backend.clear();  // normalize the one intentional difference
    dumps.push_back(to_json(report).dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(Campaign, CellMetricsAreConsistent) {
  const EvalReport report = run_campaign(small_spec(), 2);
  ASSERT_FALSE(report.cells.empty());
  for (const auto& c : report.cells) {
    EXPECT_GT(c.cycles, 0u) << c.benchmark;
    EXPECT_GT(c.instructions, 0u) << c.benchmark;
    EXPECT_GE(c.cycles, c.instructions) << c.benchmark;
    // Class counts decompose the instruction total.
    std::uint64_t sum = 0;
    for (const auto& [cls, n] : c.class_counts) sum += n;
    EXPECT_EQ(sum, c.instructions) << c.benchmark;
    EXPECT_GT(c.energy.total(), 0.0) << c.benchmark;
    if (c.benchmark == "svm") {
      EXPECT_GE(c.accuracy, 0.0);
      EXPECT_LE(c.accuracy, 1.0);
    } else {
      EXPECT_LT(c.accuracy, 0.0);  // N/A marker
    }
  }
  // The report knows the paper shape: smallFloat SIMD beats scalar float.
  const CellResult* base =
      report.find_cell("svm", "float", ir::CodegenMode::Scalar);
  const CellResult* f16 =
      report.find_cell("svm", "float16", ir::CodegenMode::ManualVec);
  ASSERT_NE(base, nullptr);
  ASSERT_NE(f16, nullptr);
  EXPECT_LT(f16->cycles, base->cycles);
  EXPECT_LT(f16->energy.total(), base->energy.total());
}

TEST(Campaign, RunCellMatchesCampaignCell) {
  // run_cell plans a single cell the way the campaign does; on the
  // reference engine it must reproduce every campaign cell byte for byte,
  // including the cells that received a copy of an identical program's
  // result (gemm "float16" and "mixed" lower alike, and auto-vec ignores
  // the VL point).
  using ir::CodegenMode;
  using ir::ScalarType;
  CampaignSpec spec = CampaignSpec::smoke();
  spec.benchmarks = {"svm", "gemm", "atax"};
  spec.type_configs = {
      {"float16", kernels::TypeConfig::uniform(ScalarType::F16)},
      {"mixed", {ScalarType::F16, ScalarType::F32}},
      {"float8", kernels::TypeConfig::uniform(ScalarType::F8)},
      {"posit16", kernels::TypeConfig::uniform(ScalarType::P16)},
  };
  spec.modes = {CodegenMode::Scalar, CodegenMode::AutoVec,
                CodegenMode::ManualVec};
  spec.vls = {0, 2, 4};
  spec.tuner_study = false;
  const std::vector<CellSpec> cells = expand_matrix(spec);
  const EvalReport report = run_campaign(spec, 2);
  ASSERT_EQ(report.cells.size(), cells.size());

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& cell = cells[i];
    SCOPED_TRACE(cell.benchmark->bench.name + "/" + cell.type_config.name +
                 "/" + std::string(ir::mode_name(cell.mode)) + "/" +
                 std::to_string(cell.vl));
    const CellResult oracle = run_cell(cell, spec.mem, sim::Engine::Reference,
                                       fp::MathBackend::Grs, spec.opt);
    EXPECT_EQ(cell_to_json(oracle).dump(),
              cell_to_json(report.cells[i]).dump());
  }

  // One simulation per distinct (benchmark, program).
  std::set<std::pair<std::string, std::uint64_t>> programs;
  for (const PlannedCell& p : plan_campaign(spec)) {
    programs.emplace(p.cell.benchmark->bench.name, p.key.kernel_digest);
  }
  EXPECT_LT(programs.size(), cells.size());
  EXPECT_EQ(report.cache.simulated, programs.size());
}

TEST(Campaign, MarkdownRendersAllSections) {
  const EvalReport report = run_campaign(small_spec(/*tuner=*/true), 2);
  const std::string md = render_markdown(report);
  EXPECT_NE(md.find("## Cycles per cell"), std::string::npos);
  EXPECT_NE(md.find("## Speedup of manual vectorization"), std::string::npos);
  EXPECT_NE(md.find("## Quality of results"), std::string::npos);
  EXPECT_NE(md.find("Fig. 5"), std::string::npos);
  EXPECT_NE(md.find("## Mixed-precision case study (Fig. 6)"),
            std::string::npos);
}

TEST(TunerStudy, EvaluatesGridAndFindsFeasible) {
  const TunerStudy study = run_tuner_study(SuiteScale::Smoke, {});
  EXPECT_EQ(study.benchmark, "svm");
  EXPECT_EQ(study.objective, "cycles");
  // Exhaustive over {data, acc} x 6 types (IEEE + posits).
  EXPECT_EQ(study.explored.size(), 36u);
  ASSERT_TRUE(study.found);
  EXPECT_TRUE(study.best.feasible);
  EXPECT_GE(study.best.qor, study.qor_threshold);
  // Best is the cheapest feasible configuration evaluated.
  for (const auto& t : study.explored) {
    if (t.feasible) {
      EXPECT_LE(study.best.cost, t.cost);
    }
  }
  // Slot pairs the promotion lattice cannot order are recorded as skipped
  // trials — infeasible, qor = -1, cost = 0 — not simulated.
  std::size_t skipped = 0;
  for (const auto& t : study.explored) {
    if (ir::comparable(t.data, t.acc)) {
      EXPECT_GE(t.qor, 0.0) << ir::type_name(t.data) << "/"
                            << ir::type_name(t.acc);
      EXPECT_GT(t.cost, 0.0);
    } else {
      ++skipped;
      EXPECT_FALSE(t.feasible);
      EXPECT_EQ(t.qor, -1.0);
      EXPECT_EQ(t.cost, 0.0);
    }
  }
  // 7 unordered pairs ({f16, f16alt} plus 2 posits x 3 narrow IEEE types),
  // each in both slot orders.
  EXPECT_EQ(skipped, 14u);
}

TEST(ReportCodec, UnknownSchemaAndNamesRejected) {
  EXPECT_THROW((void)scalar_type_from_name("float128"), std::runtime_error);
  EXPECT_THROW((void)mode_from_name("jit"), std::runtime_error);
}

}  // namespace
}  // namespace sfrv::eval
