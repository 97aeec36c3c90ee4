// Workloads of the repo benchmark and the helpers its modes share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "eval/campaign.hpp"
#include "eval/json.hpp"

namespace e2ebench {

/// One benchmark workload: a campaign spec with every setting that could
/// change what is measured (engine, backend, memory, opt level, VL axis,
/// tuner) pinned explicitly, plus the executor width.
struct Workload {
  std::string name;
  sfrv::eval::CampaignSpec spec;
  int jobs = 1;
  /// Served from an on-disk cell store that a cold reference run filled.
  bool warm = false;
};

/// "table3-cold", "table3-warm" or "simd-vl-sweep". `smoke` keeps the
/// matrix and swaps in the reduced-size suite (SuiteScale::Smoke). Throws
/// std::runtime_error on an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, bool smoke);

/// Steady-clock seconds since an arbitrary epoch.
[[nodiscard]] double now_s();

/// 16-hex-digit FNV-1a digest of a byte string.
[[nodiscard]] std::string digest(std::string_view bytes);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// What every campaign-producing mode reports about its result: digests of
/// the JSON and Markdown report bytes, one digest per cell (matrix order),
/// the simulated totals over the report's cells, and the cell store's hit
/// and miss counts (matrix and tuner lookups together).
[[nodiscard]] sfrv::eval::JsonObject summarize(
    const sfrv::eval::EvalReport& report, const std::string& json,
    const std::string& md);

/// The traced replay of `w` (traced.cpp). `seed` orders the cells on the
/// executor; `store_dir` is the filled store of a warm workload; spans are
/// written to `spans_path` when non-empty.
[[nodiscard]] sfrv::eval::JsonObject run_traced(const Workload& w,
                                                std::uint64_t seed,
                                                const std::string& store_dir,
                                                const std::string& spans_path);

}  // namespace e2ebench
