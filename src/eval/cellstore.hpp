// Content-addressed cell store: the directory through which campaign runs,
// in one process or several, share cells (sfrv-eval --cache-dir).
//
// A campaign cell is addressed by everything its result is a function of:
// the lowered-kernel content digest (kernels::lowered_digest, a word-wise
// hash of the data segment with the quantized inputs and the golden
// reference, which the planner hashes once per (benchmark, TypeConfig)
// kernel, then of the cell's own text image), the type configuration, the code generator, the
// execution engine, the math backend, the optimizer configuration, the VL
// point, the memory timing, and the report schema version. Display names
// (benchmark / type-config labels) are deliberately *not* part of the
// address: they are presentation, patched from the requesting spec on
// every hit, so the tuner's 36-pair grid and the campaign matrix share
// cells whenever their content coincides.
//
// Correctness contract: the byte-identical-report determinism the CI has
// enforced since PR 2 becomes the cache contract — a cell served from the
// store must serialize bit-for-bit like a recomputed one. The store never
// guesses: an entry that is missing, truncated, unparsable, from another
// schema version, or whose recorded key text does not match the requested
// address is a miss, and the cell is recomputed (and the entry rewritten)
// instead of served.
#pragma once

#include <cstdint>
#include <optional>
#include <mutex>
#include <string>
#include <string_view>

#include "eval/report.hpp"
#include "ir/opt.hpp"
#include "sim/core.hpp"
#include "softfloat/runtime.hpp"

namespace sfrv::eval {

/// The content address of one evaluation cell.
struct CellKey {
  std::uint64_t kernel_digest = 0;  ///< kernels::lowered_digest
  ir::ScalarType data = ir::ScalarType::F32;
  ir::ScalarType acc = ir::ScalarType::F32;
  ir::CodegenMode mode = ir::CodegenMode::Scalar;
  int vl = 0;
  sim::Engine engine = sim::Engine::Jit;
  fp::MathBackend backend = fp::MathBackend::Grs;
  /// Raw optimizer fields (not the level name: "custom" configurations must
  /// not collapse onto each other). vl_cap duplicates `vl` by construction.
  ir::OptConfig opt{};
  int mem_load_latency = 1;
  int mem_store_latency = 1;
  /// Energy billing depends on the hierarchy level, not just the latency
  /// (sim::MemConfig::level), so it addresses independently.
  int mem_level = 0;
  std::uint32_t mem_size = 8u << 20;
  /// Report schema version baked into every address: a schema bump
  /// invalidates all cached cells.
  std::string schema{kReportSchema};

  /// Canonical one-line-per-field text form. This is what gets hashed, and
  /// what disk entries record verbatim so a hash collision (or a hand-edited
  /// file) is detected instead of served.
  [[nodiscard]] std::string canonical() const;

  /// 32-hex-character content address (two FNV-1a passes over
  /// `canonical()`, with the standard and one other offset basis). Stable
  /// across processes and machines; used as the entry's file stem.
  [[nodiscard]] std::string address() const;

  /// The address of a canonical text: address() is
  /// address_of(canonical()), so a caller that needs both builds the text
  /// once.
  [[nodiscard]] static std::string address_of(std::string_view canonical);

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

/// Thread-safe on-disk cell store: one JSON entry per key under `cache_dir`,
/// written via atomic rename so concurrent writers and crashes can never
/// leave a half-written entry visible.
class CellStore {
 public:
  /// Store under `cache_dir`, created if absent. Throws std::runtime_error
  /// when `cache_dir` is empty or cannot be created.
  explicit CellStore(const std::string& cache_dir);

  /// Read and validate the key's entry. Returns nullopt on miss or on any
  /// invalid entry (counted in Stats::rejected).
  [[nodiscard]] std::optional<CellResult> lookup(const CellKey& key);

  /// Write (or overwrite) a computed cell's entry. Overwrites are
  /// idempotent by the determinism contract: two computations of the same
  /// address produce identical cells.
  void insert(const CellKey& key, const CellResult& cell);

  struct Stats {
    std::uint64_t hits = 0;       ///< lookups served
    std::uint64_t misses = 0;     ///< lookups that found nothing usable
    std::uint64_t disk_hits = 0;  ///< equals `hits`: every hit reads disk
    std::uint64_t rejected = 0;   ///< corrupt/foreign entries skipped
  };
  [[nodiscard]] Stats stats() const;

 private:
  [[nodiscard]] std::string entry_path(const std::string& address) const;
  /// Disk read + validation against the key's schema and canonical text;
  /// assumes mu_ is held.
  [[nodiscard]] std::optional<CellResult> load_from_disk(
      const CellKey& key, const std::string& canonical,
      const std::string& address);

  mutable std::mutex mu_;
  std::string dir_;
  Stats stats_{};
};

}  // namespace sfrv::eval
