// The simulated memory's backing store: a lazily zeroed anonymous mapping
// with a trailing guard page, move-only, whose pages become resident only
// when a program touches them. Pins residency (Linux mincore), the zero-fill
// and bounds contract at both ends, size-0 and moved-from memories (every
// access throws, nothing reaches an unmapped page), and the bulk accessors'
// host-sized length check.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "asmb/assembler.hpp"
#include "sim/core.hpp"
#include "sim/memory.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
namespace reg = asmb::reg;

static_assert(!std::is_copy_constructible_v<sim::Memory>);
static_assert(!std::is_copy_assignable_v<sim::Memory>);
static_assert(std::is_nothrow_move_constructible_v<sim::Memory>);
static_assert(std::is_nothrow_move_assignable_v<sim::Memory>);
static_assert(!std::is_copy_constructible_v<sim::Core>);
static_assert(!std::is_copy_assignable_v<sim::Core>);
static_assert(std::is_nothrow_move_constructible_v<sim::Core>);
static_assert(std::is_nothrow_move_assignable_v<sim::Core>);

/// A few stores and loads on one data word, then ebreak.
asmb::Program small_program() {
  Assembler a;
  const auto buf = a.data_zero(16);
  a.la(reg::s0, buf);
  a.li(reg::a0, 0x1234);
  a.sw(reg::a0, 4, reg::s0);
  a.lw(reg::a1, 4, reg::s0);
  a.ebreak();
  return a.finish();
}

void expect_every_access_throws(sim::Memory& m, std::uint32_t addr) {
  std::array<std::uint8_t, 4> buf{};
  EXPECT_THROW((void)m.load8(addr), std::out_of_range);
  EXPECT_THROW((void)m.load16(addr), std::out_of_range);
  EXPECT_THROW((void)m.load32(addr), std::out_of_range);
  EXPECT_THROW(m.store8(addr, 1), std::out_of_range);
  EXPECT_THROW(m.store16(addr, 1), std::out_of_range);
  EXPECT_THROW(m.store32(addr, 1), std::out_of_range);
  EXPECT_THROW(m.read_block(addr, buf.data(), buf.size()), std::out_of_range);
  EXPECT_THROW(m.write_block(addr, buf.data(), buf.size()), std::out_of_range);
}

#ifdef __linux__
/// Pages of the store that mincore() reports resident.
std::size_t resident_pages(sim::Memory& m) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((m.size() + page - 1) / page);
  if (mincore(m.data(), m.size(), vec.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
    return 0;
  }
  std::size_t n = 0;
  for (const unsigned char v : vec) n += v & 1u;
  return n;
}

TEST(MemoryResidency, CorePaysOnlyForThePagesItTouches) {
  sim::Core core(isa::IsaConfig::full());
  ASSERT_EQ(core.memory().size(), 8u << 20);
  EXPECT_EQ(resident_pages(core.memory()), 0u)
      << "construction must not touch the store";
  core.load_program(small_program());
  ASSERT_EQ(core.run(1000), sim::Core::RunResult::Halted);
  EXPECT_EQ(core.x(reg::a1), 0x1234u);
  const std::size_t resident = resident_pages(core.memory());
  EXPECT_GE(resident, 1u) << "the text page was written";
  EXPECT_LE(resident, 8u);
}
#endif

TEST(Memory, FreshStoreReadsZeroAtBothEnds) {
  // The default size, and sizes that are not a whole number of pages.
  for (const std::uint32_t size : {sim::MemConfig{}.size, 4097u, 100u}) {
    sim::Memory m(sim::MemConfig{.size = size});
    ASSERT_EQ(m.size(), size);
    const std::uint32_t last = size - 1;
    EXPECT_EQ(m.load8(0), 0u) << size;
    EXPECT_EQ(m.load32(size / 2), 0u) << size;
    EXPECT_EQ(m.load8(last), 0u) << size;
    m.store8(last, 0xa5);
    EXPECT_EQ(m.load8(last), 0xa5u) << size;
    EXPECT_EQ(m.load32(size - 4), 0xa5000000u) << size;
    EXPECT_THROW((void)m.load32(size - 3), std::out_of_range) << size;
    EXPECT_THROW(m.store32(size - 3, 1), std::out_of_range) << size;
  }
}

TEST(Memory, ZeroSizeMapsNothingAndEveryAccessThrows) {
  sim::Memory m(sim::MemConfig{.size = 0});
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.data(), nullptr);
  expect_every_access_throws(m, 0);
}

TEST(Memory, MoveHandsOverTheMappingAndEmptiesTheSource) {
  sim::Memory a;
  a.store32(64, 0xdeadbeef);
  std::uint8_t* base = a.data();
  sim::Memory b(std::move(a));
  EXPECT_EQ(b.data(), base) << "a move steals the mapping, it never copies";
  EXPECT_EQ(b.load32(64), 0xdeadbeefu);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.data(), nullptr);
  expect_every_access_throws(a, 64);

  sim::Memory c(sim::MemConfig{.size = 4096});
  c = std::move(b);
  EXPECT_EQ(c.data(), base);
  EXPECT_EQ(c.size(), 8u << 20);
  EXPECT_EQ(c.load32(64), 0xdeadbeefu);
  expect_every_access_throws(b, 64);
}

TEST(Memory, MovedFromCoreThrowsInsteadOfReachingTheMapping) {
  sim::Core a(isa::IsaConfig::full());
  a.load_program(small_program());
  ASSERT_EQ(a.run(1000), sim::Core::RunResult::Halted);
  sim::Core b(std::move(a));
  EXPECT_EQ(b.context().mem_base, b.memory().data());
  EXPECT_EQ(b.context().mem_size, 8u << 20);
  EXPECT_EQ(b.x(reg::a1), 0x1234u);

  EXPECT_EQ(a.context().mem_base, nullptr);
  EXPECT_EQ(a.context().mem_size, 0u);
  expect_every_access_throws(a.memory(), asmb::kDefaultDataBase);
  EXPECT_THROW(a.load_program(small_program()), std::out_of_range);

  sim::Core c(isa::IsaConfig::full(), sim::MemConfig{.size = 4096});
  c = std::move(b);
  EXPECT_EQ(c.context().mem_base, c.memory().data());
  EXPECT_EQ(c.x(reg::a1), 0x1234u);
  EXPECT_EQ(b.context().mem_base, nullptr);
  expect_every_access_throws(b.memory(), asmb::kDefaultDataBase);
}

TEST(Memory, BlockLengthIsCheckedBeforeNarrowing) {
  sim::Memory m(sim::MemConfig{.size = 4096});
  m.store32(0, 0x11223344);
  std::array<std::uint8_t, 8> buf;
  buf.fill(0xaa);
  if constexpr (sizeof(std::size_t) > 4) {
    // The low 32 bits say 4 bytes: an in-bounds length once narrowed.
    const std::size_t n = (std::size_t{1} << 32) + 4;
    EXPECT_THROW(m.read_block(0, buf.data(), n), std::out_of_range);
    EXPECT_THROW(m.write_block(0, buf.data(), n), std::out_of_range);
    for (const std::uint8_t v : buf) EXPECT_EQ(v, 0xaau) << "nothing read";
    EXPECT_EQ(m.load32(0), 0x11223344u) << "nothing written";
  }
  EXPECT_THROW(m.read_block(0, buf.data(), m.size() + std::size_t{1}),
               std::out_of_range);
  m.read_block(m.size() - 4, buf.data(), 4);
  EXPECT_EQ(buf[0], 0u);
}

TEST(MemoryDeathTest, GuardPageFaultsPastTheStore) {
  sim::Memory m(sim::MemConfig{.size = 4096});
  volatile std::uint8_t* past = m.data() + m.size();
  EXPECT_DEATH(*past = 1, "");
}

}  // namespace
}  // namespace sfrv::test
