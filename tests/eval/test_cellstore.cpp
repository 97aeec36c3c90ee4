// Content-addressed cell store: per-axis key sensitivity (any field of what
// a result is a function of must change the address), cross-process address
// stability (a pinned constant), planned programs and digests against each
// cell's own lowering, memory and disk round trips, the
// never-serve-questionable-entries contract (truncation, corruption, key
// mismatch, schema drift), the end-to-end cache-correctness contract — a
// warm campaign rerun serializes byte-identically with a 100% hit rate,
// including when two stores race to fill one shared directory — and the
// tuner grid sharing the campaign's one serve-or-simulate pass.
#include "eval/cellstore.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "eval/campaign.hpp"
#include "eval/report.hpp"
#include "kernels/polybench.hpp"
#include "kernels/runner.hpp"

namespace sfrv::eval {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the system temp dir, removed on scope exit.
struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("sfrv-cellstore-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// A fully pinned synthetic key (schema included, so the constant below
/// survives report schema bumps).
CellKey synthetic_key() {
  CellKey key;
  key.kernel_digest = 0x0123456789abcdefull;
  key.data = ir::ScalarType::F16;
  key.acc = ir::ScalarType::F32;
  key.mode = ir::CodegenMode::ManualVec;
  key.vl = 4;
  key.engine = sim::Engine::Jit;
  key.backend = fp::MathBackend::Grs;
  key.opt.unroll_factor = 2;
  key.opt.ptr_strength_reduction = true;
  key.opt.dead_glue_elim = false;
  key.opt.vl_cap = 4;
  key.mem_load_latency = 10;
  key.mem_store_latency = 1;
  key.mem_level = 1;
  key.mem_size = 8u << 20;
  key.schema = "sfrv-cellstore-test/v1";
  return key;
}

TEST(CellKey, EveryAxisChangesTheAddress) {
  const CellKey base = synthetic_key();
  const std::string addr = base.address();
  EXPECT_EQ(addr.size(), 32u);

  auto expect_differs = [&](CellKey k, const char* what) {
    EXPECT_NE(k.address(), addr) << "axis did not affect the address: "
                                 << what;
  };
  {
    CellKey k = base;
    k.kernel_digest ^= 1;
    expect_differs(k, "kernel digest");
  }
  {
    CellKey k = base;
    k.data = ir::ScalarType::F8;
    expect_differs(k, "data type");
  }
  {
    CellKey k = base;
    k.acc = ir::ScalarType::F16;
    expect_differs(k, "acc type");
  }
  {
    CellKey k = base;
    k.mode = ir::CodegenMode::Scalar;
    expect_differs(k, "codegen mode");
  }
  {
    CellKey k = base;
    k.vl = 2;
    expect_differs(k, "vl");
  }
  {
    CellKey k = base;
    k.engine = sim::Engine::Reference;
    expect_differs(k, "engine");
  }
  {
    CellKey k = base;
    k.backend = fp::MathBackend::Fast;
    expect_differs(k, "backend");
  }
  {
    CellKey k = base;
    k.opt.unroll_factor = 4;
    expect_differs(k, "opt unroll");
  }
  {
    CellKey k = base;
    k.opt.ptr_strength_reduction = false;
    expect_differs(k, "opt strength reduction");
  }
  {
    CellKey k = base;
    k.opt.dead_glue_elim = true;
    expect_differs(k, "opt dead glue");
  }
  {
    CellKey k = base;
    k.mem_load_latency = 100;
    expect_differs(k, "mem load latency");
  }
  {
    CellKey k = base;
    k.mem_store_latency = 10;
    expect_differs(k, "mem store latency");
  }
  {
    CellKey k = base;
    k.mem_level = 2;
    expect_differs(k, "mem level");
  }
  {
    CellKey k = base;
    k.schema = "sfrv-cellstore-test/v2";
    expect_differs(k, "schema version");
  }
}

TEST(CellKey, AddressIsStableAcrossProcesses) {
  // Pinned constant: the address must not depend on process layout, pointer
  // values, or hash seeding — a disk cache written by one process (or `-j`
  // worker) must be readable by any other. If this fails, the canonical text
  // or the FNV seeding changed, and every persistent cache is invalidated —
  // bump the report schema if that is intentional.
  EXPECT_EQ(synthetic_key().address(), "681e11fd4bbc771b12c95270550404eb");
}

TEST(CellKey, DefaultSchemaIsTheReportSchema) {
  // A report schema bump must invalidate every cached cell.
  EXPECT_EQ(CellKey{}.schema, std::string(kReportSchema));
}

TEST(CellKey, KernelTextFeedsTheDigest) {
  // Two smoke benchmarks at the same TypeConfig/mode/etc. differ only in
  // kernel content — their planned digests (and addresses) must differ.
  CampaignSpec spec = CampaignSpec::smoke();
  spec.benchmarks = {"gemm", "atax"};
  spec.type_configs = {{"float16", kernels::TypeConfig::uniform(
                                       ir::ScalarType::F16)}};
  spec.modes = {ir::CodegenMode::Scalar};
  spec.tuner_study = false;
  const auto planned = plan_campaign(spec);
  ASSERT_EQ(planned.size(), 2u);
  EXPECT_NE(planned[0].key.kernel_digest, planned[1].key.kernel_digest);
  EXPECT_NE(planned[0].key.address(), planned[1].key.address());

  // Planning is deterministic: a second pass reproduces the digests.
  const auto again = plan_campaign(spec);
  EXPECT_EQ(planned[0].key.address(), again[0].key.address());
  EXPECT_EQ(planned[1].key.address(), again[1].key.address());
}

TEST(CellKey, PlannedDigestIsTheLoweredDigest) {
  // The planner hashes each kernel's shared part once and resumes from it
  // per cell; a caller that digests a lowering on its own (e2ebench's
  // replay looks cells up this way) must get the same address. It also
  // encodes each distinct array image once per call and shares it by
  // content across kernels, benchmarks and TypeConfigs: an image shared
  // onto the wrong array or type must fail here, not only where it moves a
  // simulated number, so every planned program must be the one the cell's
  // kernel lowers to on its own. The svm spec has the 22 comparable
  // {data, acc} pairs of the tuner study, so 22 kernels share 6 x/w images.
  constexpr ir::ScalarType kDomain[] = {
      ir::ScalarType::F8,  ir::ScalarType::P8,  ir::ScalarType::F16Alt,
      ir::ScalarType::F16, ir::ScalarType::P16, ir::ScalarType::F32};
  CampaignSpec svm_pairs = CampaignSpec::table3();
  svm_pairs.name = "svm-pairs";
  svm_pairs.benchmarks = {"svm"};
  svm_pairs.type_configs.clear();
  for (const ir::ScalarType acc : kDomain) {
    for (const ir::ScalarType data : kDomain) {
      if (!ir::comparable(data, acc)) continue;
      svm_pairs.type_configs.push_back(
          {std::string(ir::type_name(data)) + "/" +
               std::string(ir::type_name(acc)),
           {data, acc}});
    }
  }
  ASSERT_EQ(svm_pairs.type_configs.size(), 22u);
  CampaignSpec swept = CampaignSpec::smoke();
  swept.vls = {0, 2, 4};
  swept.opt = ir::OptConfig::O2();
  for (const CampaignSpec& spec :
       {CampaignSpec::table3(), svm_pairs, CampaignSpec::smoke(),
        CampaignSpec::nn(SuiteScale::Smoke), swept}) {
    for (const PlannedCell& p : plan_campaign(spec)) {
      const std::string where =
          spec.name + " " + p.cell.benchmark->bench.name + "/" +
          p.cell.type_config.name + "/" +
          std::string(ir::mode_name(p.cell.mode)) + "/" +
          std::to_string(p.cell.vl);
      EXPECT_EQ(p.key.kernel_digest,
                kernels::lowered_digest(*p.spec, *p.lowered))
          << where;
      const ir::LoweredKernel alone =
          ir::lower(p.spec->kernel, p.cell.mode, p.spec->init, p.opt);
      EXPECT_EQ(p.lowered->program.text_words, alone.program.text_words)
          << where;
      EXPECT_EQ(p.lowered->program.data, alone.program.data) << where;
    }
  }
}

TEST(CellKey, KernelDigestRehashesAnotherDataSegment) {
  // A lowering whose data segment is not the one the shared state hashed
  // is hashed in full, not resumed.
  const auto tc = kernels::TypeConfig::uniform(ir::ScalarType::F16);
  const kernels::KernelSpec spec = kernels::make_gemm(tc, 4, 4, 4);
  kernels::KernelSpec other = kernels::make_gemm(tc, 4, 4, 4);
  other.init[0][0] += 1.0;
  const auto lowered = ir::lower(spec.kernel, ir::CodegenMode::ManualVec,
                                 spec.init);
  const auto moved = ir::lower(other.kernel, ir::CodegenMode::ManualVec,
                               other.init);
  ASSERT_NE(lowered.program.data, moved.program.data);
  kernels::KernelDigest digest(spec);
  EXPECT_EQ(digest(lowered), kernels::lowered_digest(spec, lowered));
  EXPECT_EQ(digest(moved), kernels::lowered_digest(spec, moved));
  EXPECT_NE(digest(moved), digest(lowered));
  const auto scalar =
      ir::lower(spec.kernel, ir::CodegenMode::Scalar, spec.init);
  EXPECT_EQ(digest(scalar), kernels::lowered_digest(spec, scalar));
}

TEST(CellStore, MemoryRoundTrip) {
  CellStore store;
  const CellKey key = synthetic_key();
  EXPECT_FALSE(store.lookup(key).has_value());

  CellResult cell;
  cell.benchmark = "gemm";
  cell.cycles = 1234;
  cell.sqnr_db = 42.5;
  store.insert(key, cell);
  const auto hit = store.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cell_to_json(*hit).dump(), cell_to_json(cell).dump());

  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(CellStore, DiskRoundTripAcrossInstances) {
  const TempDir dir;
  const CellKey key = synthetic_key();
  CellResult cell;
  cell.benchmark = "gemm";
  cell.cycles = 99;
  {
    CellStore store(dir.str());
    store.insert(key, cell);
  }
  CellStore fresh(dir.str());
  const auto hit = fresh.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cell_to_json(*hit).dump(), cell_to_json(cell).dump());
  EXPECT_EQ(fresh.stats().disk_hits, 1u);

  // Promoted into memory: the second lookup does not touch disk again.
  (void)fresh.lookup(key);
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  EXPECT_EQ(fresh.stats().hits, 2u);
}

TEST(CellStore, QuestionableDiskEntriesAreRecomputedNeverServed) {
  const TempDir dir;
  const CellKey key = synthetic_key();
  const std::string entry =
      dir.str() + "/" + key.address() + ".json";
  CellResult cell;
  cell.benchmark = "gemm";
  cell.cycles = 7;
  {
    CellStore store(dir.str());
    store.insert(key, cell);
  }

  auto write_entry = [&](const std::string& text) {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << text;
  };
  auto read_entry = [&] {
    std::ifstream in(entry, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string good = read_entry();

  // Truncated mid-document.
  write_entry(good.substr(0, good.size() / 2));
  {
    CellStore store(dir.str());
    EXPECT_FALSE(store.lookup(key).has_value());
    EXPECT_EQ(store.stats().rejected, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
  }
  // Unparsable garbage.
  write_entry("not json at all");
  {
    CellStore store(dir.str());
    EXPECT_FALSE(store.lookup(key).has_value());
    EXPECT_EQ(store.stats().rejected, 1u);
  }
  // Nested far deeper than any entry: rejected, not a crash.
  write_entry(std::string(200'000, '['));
  {
    CellStore store(dir.str());
    EXPECT_FALSE(store.lookup(key).has_value());
    EXPECT_EQ(store.stats().rejected, 1u);
  }
  // Parses, but the recorded key text does not match the requested address
  // (tampering or a hash collision): must not be served.
  {
    CellKey other = synthetic_key();
    other.vl = 7;
    const Json forged(JsonObject{{"schema", Json(key.schema)},
                                 {"key", Json(other.canonical())},
                                 {"cell", cell_to_json(cell)}});
    write_entry(forged.dump(2));
    CellStore store(dir.str());
    EXPECT_FALSE(store.lookup(key).has_value());
    EXPECT_EQ(store.stats().rejected, 1u);
  }
  // Another schema version.
  {
    const Json foreign(JsonObject{{"schema", Json("sfrv-cellstore-test/v0")},
                                  {"key", Json(key.canonical())},
                                  {"cell", cell_to_json(cell)}});
    write_entry(foreign.dump(2));
    CellStore store(dir.str());
    EXPECT_FALSE(store.lookup(key).has_value());
    EXPECT_EQ(store.stats().rejected, 1u);
  }
  // A miss recomputes and rewrites: the store heals the entry.
  {
    CellStore store(dir.str());
    ASSERT_FALSE(store.lookup(key).has_value());
    store.insert(key, cell);
    CellStore fresh(dir.str());
    ASSERT_TRUE(fresh.lookup(key).has_value());
  }
}

/// Small campaign for end-to-end store tests: one benchmark, two configs,
/// two modes, no tuner.
CampaignSpec tiny_campaign() {
  CampaignSpec spec = CampaignSpec::smoke();
  spec.benchmarks = {"gemm"};
  spec.type_configs = {
      {"float", kernels::TypeConfig::uniform(ir::ScalarType::F32)},
      {"float16", kernels::TypeConfig::uniform(ir::ScalarType::F16)},
  };
  spec.modes = {ir::CodegenMode::Scalar, ir::CodegenMode::ManualVec};
  spec.tuner_study = false;
  return spec;
}

TEST(CellStore, WarmCampaignIsByteIdenticalWithFullHitRate) {
  const CampaignSpec spec = tiny_campaign();
  CellStore store;

  const EvalReport cold = run_campaign(spec, 2, &store);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, cold.cells.size());

  const EvalReport warm = run_campaign(spec, 2, &store);
  EXPECT_EQ(warm.cache.hits, warm.cells.size());
  EXPECT_EQ(warm.cache.misses, 0u);

  // The cache-correctness contract: served == recomputed, byte for byte
  // (telemetry only lives in memory unless has_cache is set, so the dumps
  // compare directly), and independent of the thread count.
  EXPECT_EQ(to_json(cold).dump(2), to_json(warm).dump(2));
  EXPECT_EQ(render_markdown(cold), render_markdown(warm));
  const EvalReport serial = run_campaign(spec, 1, &store);
  EXPECT_EQ(to_json(cold).dump(2), to_json(serial).dump(2));
}

TEST(CellStore, TunerAndCampaignShareContentCells) {
  // The smoke campaign's SVM matrix cells coincide with tuner grid points
  // (display names differ, content matches). One pass serves or simulates
  // each distinct cell once: all 28 matrix cells and 22 grid points miss a
  // cold store, and the 7 grid points that matrix cells cover lower to their
  // cells' programs, so they are simulated with them, not again.
  CampaignSpec spec = CampaignSpec::smoke();
  spec.benchmarks = {"svm"};
  CellStore store;
  const EvalReport report = run_campaign(spec, 2, &store);
  ASSERT_TRUE(report.has_tuner);
  EXPECT_EQ(report.cache.hits, 0u);
  EXPECT_EQ(report.cache.misses, 50u);
  EXPECT_EQ(report.cache.simulated, 35u);

  // The study on its own over the same store simulates nothing and
  // serializes exactly like the campaign's tuner block.
  CacheTelemetry tally;
  EvalReport study;
  study.has_tuner = true;
  study.tuner = run_tuner_study(SuiteScale::Smoke, spec.mem, spec.engine,
                                spec.backend, spec.opt, &store, &tally);
  EXPECT_EQ(tally.hits, 22u);
  EXPECT_EQ(tally.misses, 0u);
  EXPECT_EQ(to_json(study).at("tuner").dump(2),
            to_json(report).at("tuner").dump(2));

  // Without a store nothing is tallied, and the report is the same.
  const EvalReport storeless = run_campaign(spec, 2);
  EXPECT_EQ(storeless.cache.hits, 0u);
  EXPECT_EQ(storeless.cache.misses, 0u);
  EXPECT_EQ(to_json(storeless).dump(2), to_json(report).dump(2));

  // And the shared cells must not leak tuner display names into the matrix.
  for (const auto& c : report.cells) {
    EXPECT_EQ(c.benchmark, "svm");
    EXPECT_TRUE(c.type_config == "float" || c.type_config == "float16" ||
                c.type_config == "float16alt" || c.type_config == "float8" ||
                c.type_config == "mixed" || c.type_config == "posit8" ||
                c.type_config == "posit16")
        << c.type_config;
  }
}

TEST(CellStore, ConcurrentStoresShareOneDirectory) {
  // A shared --cache-dir is the only way separate processes share cells:
  // two stores over one directory (standing in for two processes) race
  // through the same campaign, writing every address concurrently.
  CampaignSpec spec = tiny_campaign();
  spec.type_configs = default_type_configs();
  const std::string local = to_json(run_campaign(spec, 1)).dump(2);

  const TempDir dir;
  CellStore a(dir.str());
  CellStore b(dir.str());
  std::string report_a;
  std::string report_b;
  std::thread ta(
      [&] { report_a = to_json(run_campaign(spec, 2, &a)).dump(2); });
  std::thread tb(
      [&] { report_b = to_json(run_campaign(spec, 2, &b)).dump(2); });
  ta.join();
  tb.join();
  EXPECT_EQ(report_a, local);
  EXPECT_EQ(report_b, local);

  // Every entry landed whole: a fresh store serves the entire campaign from
  // disk without rejecting anything, and no temporary file is left behind.
  CellStore fresh(dir.str());
  const EvalReport warm = run_campaign(spec, 2, &fresh);
  EXPECT_EQ(to_json(warm).dump(2), local);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.hits, warm.cells.size());
  EXPECT_EQ(fresh.stats().rejected, 0u);
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
}

}  // namespace
}  // namespace sfrv::eval
