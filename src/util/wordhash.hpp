// Word-wise 64-bit hash of the kernel-content digest
// (kernels::lowered_digest): eight bytes per step, where byte-wise FNV-1a
// takes one multiply per byte. A step xors the next eight bytes, read as a
// host-order word, into the state, multiplies by an odd constant and
// xor-shifts the high half down, so the next multiply mixes the high bits
// back in. For a fixed word each step is a bijection of the state, so two
// equally long inputs that differ in one word (a single bit, say) always
// reach different states; value() then spreads the state over all 64 bits.
// Process-stable by construction: the hash is a pure function of the fed
// bytes (and of the host byte order, as the hashed text words already are),
// never of pointers or container iteration order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace sfrv::util {

class WordHash {
 public:
  /// Hash `n` bytes: every whole word, then one step with the byte tail
  /// (up to seven bytes, zero-padded) and the low byte of `n` above it, so
  /// "ab" then "c" does not collide with "a" then "bc", nor "a" with "a\0".
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    const std::size_t words = n / 8;
    for (std::size_t i = 0; i < words; ++i) {
      std::uint64_t w;
      std::memcpy(&w, b + 8 * i, 8);
      step(w);
    }
    std::uint64_t tail = 0;
    if (n % 8 != 0) std::memcpy(&tail, b + 8 * words, n % 8);
    step(tail | static_cast<std::uint64_t>(n) << 56);
  }
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(v));
  }

  /// The state through a final avalanche (MurmurHash3's fmix64).
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t h = h_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

 private:
  void step(std::uint64_t w) {
    h_ = (h_ ^ w) * 0x9e3779b97f4a7c15ull;
    h_ ^= h_ >> 32;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace sfrv::util
