#include "eval/cellstore.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fnv.hpp"

namespace sfrv::eval {

namespace fs = std::filesystem;

namespace {

/// One line of the canonical text: `name=value\n`.
void field(std::string& out, std::string_view name, std::string_view value) {
  out.append(name).append(1, '=').append(value).append(1, '\n');
}

/// A line of integers joined by '/': `name=v0/v1/...\n`.
void field(std::string& out, std::string_view name,
           std::initializer_list<long long> values) {
  out.append(name).append(1, '=');
  char buf[24];
  const char* sep = "";
  for (const long long v : values) {
    out += sep;
    sep = "/";
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  out += '\n';
}

/// The whole file at `path` in one read of its size; nullopt when it cannot
/// be opened, which is a plain miss.
std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> text;
  struct stat st {};
  if (::fstat(fd, &st) == 0) {
    text.emplace(static_cast<std::size_t>(st.st_size), '\0');
    std::size_t got = 0;
    while (got < text->size()) {
      const ::ssize_t n = ::read(fd, text->data() + got, text->size() - got);
      if (n <= 0) break;  // an error leaves a short text, which fails to parse
      got += static_cast<std::size_t>(n);
    }
    text->resize(got);
  }
  ::close(fd);
  return text;
}

}  // namespace

std::string CellKey::canonical() const {
  char kern[17];
  std::snprintf(kern, sizeof(kern), "%016llx",
                static_cast<unsigned long long>(kernel_digest));
  std::string out;
  out.reserve(192);
  field(out, "schema", schema);
  field(out, "kernel", kern);
  field(out, "data", ir::type_name(data));
  field(out, "acc", ir::type_name(acc));
  field(out, "mode", ir::mode_name(mode));
  field(out, "vl", {vl});
  field(out, "engine", sim::engine_name(engine));
  field(out, "backend", fp::backend_name(backend));
  field(out, "opt", {opt.unroll_factor, opt.ptr_strength_reduction,
                     opt.dead_glue_elim, opt.vl_cap});
  field(out, "mem",
        {mem_load_latency, mem_store_latency, mem_level, mem_size});
  return out;
}

std::string CellKey::address() const { return address_of(canonical()); }

std::string CellKey::address_of(std::string_view canonical) {
  // Two independently seeded passes give a 128-bit address: at the cell
  // counts this store sees, accidental collision is out of the picture, and
  // deliberate collision is caught by the canonical-text check on load.
  util::Fnv1a lo;
  util::Fnv1a hi(0x9e3779b97f4a7c15ull);
  lo.bytes(canonical.data(), canonical.size());
  hi.bytes(canonical.data(), canonical.size());
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
    const CellKey& key, const std::string& canonical,
    const std::string& address) {
  const std::optional<std::string> text = read_file(entry_path(address));
  if (!text) return std::nullopt;  // plain miss, not corruption
  // Never serve a questionable entry: any parse error, schema drift, or
  // key-text mismatch (truncation, corruption, hash collision) is treated
  // as a miss so the cell is recomputed and the entry rewritten.
  try {
    const Json doc = Json::parse(*text);
    if (doc.at("schema").as_string() != key.schema) throw std::runtime_error("schema");
    if (doc.at("key").as_string() != canonical) throw std::runtime_error("key");
    return cell_from_json(doc.at("cell"));
  } catch (const std::exception&) {
    ++stats_.rejected;
    return std::nullopt;
  }
}

std::optional<CellResult> CellStore::lookup(const CellKey& key) {
  const std::string canonical = key.canonical();
  const std::string address = CellKey::address_of(canonical);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cells_.find(address);
  if (it != cells_.end()) {
    ++stats_.hits;
    return it->second;
  }
  if (!dir_.empty()) {
    if (auto cell = load_from_disk(key, canonical, address)) {
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
  const std::string canonical = key.canonical();
  const std::string address = CellKey::address_of(canonical);
  std::string disk_error;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    cells_[address] = cell;
    if (!dir_.empty()) {
      const Json entry(JsonObject{{"schema", Json(key.schema)},
                                  {"key", Json(canonical)},
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
