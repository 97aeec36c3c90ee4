// Flat little-endian memory with a configurable access-latency model.
//
// The paper's Figures 2/3 sweep the memory latency: L1 = 1 cycle (TCDM-like),
// L2 = 10 cycles, L3 = 100 cycles. Loads stall the in-order pipeline for the
// full latency; stores retire through a store buffer (1 cycle issue) unless a
// store latency is configured explicitly.
//
// The backing store is one anonymous private mapping, so the OS zeroes each
// page on first touch: a Core costs the pages its program touches, not its
// configured size (8 MiB by default, of which one campaign cell touches a
// few pages). One PROT_NONE guard page follows the store, so an access that
// slipped past the bounds check faults deterministically. The base never
// moves for the lifetime of the mapping, and Memory is move-only: a move
// steals the mapping and leaves the source at size 0.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace sfrv::sim {

/// The one bounds predicate for simulated memory: true when [addr, addr+n)
/// is not contained in a `size`-byte backing store, including the 32-bit
/// wrap case (addr + n overflowing past UINT32_MAX reads as a small sum).
/// Memory::check() and the engine's cached-base-pointer accessors
/// (ExecContext::load8 and friends) both call this — it is the single
/// source of truth, so the two paths cannot drift.
[[nodiscard]] constexpr bool mem_access_oob(std::uint32_t addr,
                                            std::uint32_t n,
                                            std::uint32_t size) {
  return addr + n > size || addr + n < addr;
}

/// The matching exception, shared so diagnostics stay byte-identical
/// across the interpreter and engine memory paths. Never inlined, to keep
/// the throw machinery off the accessors' hot path.
[[noreturn, gnu::noinline]] inline void throw_mem_oob(std::uint32_t addr) {
  throw std::out_of_range("memory access out of bounds: addr=" +
                          std::to_string(addr));
}

/// Memory hierarchy level, carried explicitly on MemConfig so the energy
/// model bills against the configured *level*, never a latency heuristic: a
/// swept or custom load latency (say, 5 cycles) must not silently land in
/// the L2 energy bucket just because it exceeds the L1 preset.
enum class MemLevelId : std::uint8_t { L1, L2, L3 };

/// Named latency presets from the paper.
struct MemLevel {
  const char* name;
  int load_latency;
  MemLevelId id;
};
inline constexpr MemLevel kMemL1{"L1", 1, MemLevelId::L1};
inline constexpr MemLevel kMemL2{"L2", 10, MemLevelId::L2};
inline constexpr MemLevel kMemL3{"L3", 100, MemLevelId::L3};

struct MemConfig {
  std::uint32_t size = 8u << 20;  ///< bytes of backing storage
  int load_latency = 1;           ///< cycles per load (stall-until-fill)
  int store_latency = 1;          ///< cycles per store (1 = posted store buffer)
  MemLevelId level = MemLevelId::L1;  ///< hierarchy level for energy billing

  /// Apply a named preset: latency and billing level move together.
  void set_level(const MemLevel& l) {
    load_latency = l.load_latency;
    level = l.id;
  }
};

class Memory {
 public:
  /// Maps cfg.size bytes, plus the guard page; size 0 maps nothing, and
  /// every access then throws. Throws std::bad_alloc when the mapping fails.
  explicit Memory(MemConfig cfg = {}) : cfg_(cfg), bytes_(map(cfg.size)) {}
  ~Memory() { unmap(); }

  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;
  Memory(Memory&& other) noexcept
      : cfg_(other.cfg_), bytes_(std::exchange(other.bytes_, nullptr)) {
    other.cfg_.size = 0;
  }
  Memory& operator=(Memory&& other) noexcept {
    if (this != &other) {
      unmap();
      cfg_ = other.cfg_;
      bytes_ = std::exchange(other.bytes_, nullptr);
      other.cfg_.size = 0;
    }
    return *this;
  }

  [[nodiscard]] const MemConfig& config() const { return cfg_; }

  [[nodiscard]] std::uint8_t load8(std::uint32_t addr) const {
    check(addr, 1);
    return bytes_[addr];
  }
  [[nodiscard]] std::uint16_t load16(std::uint32_t addr) const {
    check(addr, 2);
    return static_cast<std::uint16_t>(bytes_[addr] | (bytes_[addr + 1] << 8));
  }
  [[nodiscard]] std::uint32_t load32(std::uint32_t addr) const {
    check(addr, 4);
    return static_cast<std::uint32_t>(bytes_[addr]) |
           (static_cast<std::uint32_t>(bytes_[addr + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes_[addr + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes_[addr + 3]) << 24);
  }

  void store8(std::uint32_t addr, std::uint8_t v) {
    check(addr, 1);
    bytes_[addr] = v;
  }
  void store16(std::uint32_t addr, std::uint16_t v) {
    check(addr, 2);
    bytes_[addr] = static_cast<std::uint8_t>(v);
    bytes_[addr + 1] = static_cast<std::uint8_t>(v >> 8);
  }
  void store32(std::uint32_t addr, std::uint32_t v) {
    check(addr, 4);
    bytes_[addr] = static_cast<std::uint8_t>(v);
    bytes_[addr + 1] = static_cast<std::uint8_t>(v >> 8);
    bytes_[addr + 2] = static_cast<std::uint8_t>(v >> 16);
    bytes_[addr + 3] = static_cast<std::uint8_t>(v >> 24);
  }

  /// Bulk image load (program text/data).
  void write_block(std::uint32_t addr, const void* src, std::size_t n) {
    check_block(addr, n);
    const auto* p = static_cast<const std::uint8_t*>(src);
    std::copy(p, p + n, bytes_ + addr);
  }
  void read_block(std::uint32_t addr, void* dst, std::size_t n) const {
    check_block(addr, n);
    std::copy(bytes_ + addr, bytes_ + addr + n,
              static_cast<std::uint8_t*>(dst));
  }

  // Raw backing store, for executors that cache the base pointer instead of
  // chasing `mem->bytes_` on every access. The mapping never moves while
  // this Memory owns it (a move hands it over whole), and it is null at
  // size 0. Callers taking this route must gate every access on
  // mem_access_oob() / throw_mem_oob() above, exactly as check() does.
  [[nodiscard]] std::uint8_t* data() { return bytes_; }
  [[nodiscard]] std::uint32_t size() const { return cfg_.size; }

 private:
  static std::size_t page_size() {
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
  }
  /// The store rounded up to whole pages, plus the trailing guard page.
  static std::size_t mapped_len(std::uint32_t size) {
    const std::size_t page = page_size();
    return (std::size_t{size} + page - 1) / page * page + page;
  }
  static std::uint8_t* map(std::uint32_t size) {
    if (size == 0) return nullptr;
    const std::size_t len = mapped_len(size);
    void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    auto* base = static_cast<std::uint8_t*>(p);
    if (mprotect(base + len - page_size(), page_size(), PROT_NONE) != 0) {
      munmap(p, len);
      throw std::bad_alloc();
    }
#ifdef MADV_NOHUGEPAGE
    // Under transparent huge pages "always", a first touch would zero a
    // whole 2 MiB huge page instead of the one page the program touched.
    // A hint: if it fails, the store still works.
    madvise(p, len - page_size(), MADV_NOHUGEPAGE);
#endif
    return base;
  }
  void unmap() {
    if (bytes_ != nullptr) munmap(bytes_, mapped_len(cfg_.size));
  }

  void check(std::uint32_t addr, std::uint32_t n) const {
    if (mem_access_oob(addr, n, size())) throw_mem_oob(addr);
  }
  /// check() for a host-sized length. A length longer than the whole store
  /// is rejected before it is narrowed to 32 bits, so a length with high
  /// bits set cannot pass as a short one.
  void check_block(std::uint32_t addr, std::size_t n) const {
    if (n > size()) throw_mem_oob(addr);
    check(addr, static_cast<std::uint32_t>(n));
  }

  MemConfig cfg_;
  std::uint8_t* bytes_;  ///< null at size 0 and after a move
};

}  // namespace sfrv::sim
