// 64-bit FNV-1a, one multiply per byte, with a settable offset basis (the
// seed): the eval cell store's content addresses (CellKey::address_of) are
// two passes of it with different offset bases. The kernel-content digest
// hashes word-wise instead (util/wordhash.hpp). Process-stable by
// construction: the hash is a pure function of the fed bytes, never of
// pointers or container iteration order, which is what lets two processes
// (or two machines) agree on a cell address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace sfrv::util {

class Fnv1a {
 public:
  explicit Fnv1a(std::uint64_t seed = 0xcbf29ce484222325ull) : h_(seed) {}

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(v));
  }
  void str(const std::string& s) {
    const std::uint64_t n = s.size();
    pod(n);  // length-prefixed: "ab","c" must not collide with "a","bc"
    bytes(s.data(), s.size());
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace sfrv::util
