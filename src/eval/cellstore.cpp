#include "eval/cellstore.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "util/fnv.hpp"

namespace sfrv::eval {

namespace fs = std::filesystem;

std::string CellKey::canonical() const {
  char kern[17];
  std::snprintf(kern, sizeof(kern), "%016llx",
                static_cast<unsigned long long>(kernel_digest));
  std::ostringstream out;
  out << "schema=" << schema << '\n'
      << "kernel=" << kern << '\n'
      << "data=" << ir::type_name(data) << '\n'
      << "acc=" << ir::type_name(acc) << '\n'
      << "mode=" << ir::mode_name(mode) << '\n'
      << "vl=" << vl << '\n'
      << "engine=" << sim::engine_name(engine) << '\n'
      << "backend=" << fp::backend_name(backend) << '\n'
      << "opt=" << opt.unroll_factor << '/' << opt.ptr_strength_reduction
      << '/' << opt.dead_glue_elim << '/' << opt.vl_cap << '\n'
      << "mem=" << mem_load_latency << '/' << mem_store_latency << '/'
      << mem_level << '/' << mem_size << '\n';
  return out.str();
}

std::string CellKey::address() const {
  const std::string text = canonical();
  // Two independently seeded passes give a 128-bit address: at the cell
  // counts this store sees, accidental collision is out of the picture, and
  // deliberate collision is caught by the canonical-text check on load.
  util::Fnv1a lo;
  util::Fnv1a hi(0x9e3779b97f4a7c15ull);
  lo.bytes(text.data(), text.size());
  hi.bytes(text.data(), text.size());
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi.value()),
                static_cast<unsigned long long>(lo.value()));
  return buf;
}

CellStore::CellStore(const std::string& cache_dir) : dir_(cache_dir) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("cellstore: cannot create cache dir " + dir_ +
                             (ec ? ": " + ec.message() : ""));
  }
}

std::string CellStore::entry_path(const std::string& address) const {
  return dir_ + "/" + address + ".json";
}

std::optional<CellResult> CellStore::load_from_disk(
    const CellKey& key, const std::string& address) {
  std::ifstream in(entry_path(address), std::ios::binary);
  if (!in) return std::nullopt;  // plain miss, not corruption
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // Never serve a questionable entry: any parse error, schema drift, or
  // key-text mismatch (truncation, corruption, hash collision) is treated
  // as a miss so the cell is recomputed and the entry rewritten.
  try {
    const Json doc = Json::parse(text);
    if (doc.at("schema").as_string() != key.schema) throw std::runtime_error("schema");
    if (doc.at("key").as_string() != key.canonical()) throw std::runtime_error("key");
    return cell_from_json(doc.at("cell"));
  } catch (const std::exception&) {
    ++stats_.rejected;
    return std::nullopt;
  }
}

std::optional<CellResult> CellStore::lookup(const CellKey& key) {
  const std::string address = key.address();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cells_.find(address);
  if (it != cells_.end()) {
    ++stats_.hits;
    return it->second;
  }
  if (!dir_.empty()) {
    if (auto cell = load_from_disk(key, address)) {
      ++stats_.hits;
      ++stats_.disk_hits;
      cells_.emplace(address, *cell);
      return cell;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void CellStore::insert(const CellKey& key, const CellResult& cell) {
  const std::string address = key.address();
  std::string disk_error;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    cells_[address] = cell;
    if (!dir_.empty()) {
      const Json entry(JsonObject{{"schema", Json(key.schema)},
                                  {"key", Json(key.canonical())},
                                  {"cell", cell_to_json(cell)}});
      // Atomic-rename publication: a reader sees either no entry or a
      // complete one, never a torn write — even with concurrent writers
      // racing on the same address (they write identical bytes anyway).
      static std::atomic<std::uint64_t> seq{0};
      const std::string tmp = entry_path(address) + ".tmp." +
                              std::to_string(::getpid()) + "." +
                              std::to_string(seq.fetch_add(1));
      std::ofstream out(tmp, std::ios::binary);
      out << entry.dump(2) << '\n';
      out.close();
      std::error_code ec;
      if (!out) {
        disk_error = "write failed";
      } else {
        fs::rename(tmp, entry_path(address), ec);
        if (ec) disk_error = ec.message();
      }
      if (!disk_error.empty()) fs::remove(tmp, ec);
    }
  }
  if (!disk_error.empty()) {
    // Persistence is best-effort (the in-memory entry is already live);
    // losing it only costs a future recomputation, so warn instead of
    // failing the campaign.
    std::fprintf(stderr, "warning: cellstore: could not persist %s: %s\n",
                 address.c_str(), disk_error.c_str());
  }
}

CellStore::Stats CellStore::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sfrv::eval
