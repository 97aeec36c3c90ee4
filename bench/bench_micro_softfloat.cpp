// Microbenchmarks (google-benchmark): throughput of the bit-accurate
// soft-float operations across formats. Not a paper figure; characterizes
// the simulator substrate itself. The BM_* rows time the templates; the
// rt_ops.fma and rt_vec_ops.mac rows time the runtime entries the simulator
// binds at decode, per format and math backend (docs/dispatch.md).
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "softfloat/runtime.hpp"
#include "softfloat/softfloat.hpp"

namespace {

using namespace sfrv::fp;

template <class F>
std::vector<std::uint64_t> random_operands(std::size_t n) {
  std::mt19937_64 gen(42);
  std::vector<std::uint64_t> v(n);
  const std::uint64_t mask =
      F::width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << F::width) - 1);
  for (auto& x : v) x = gen() & mask;
  return v;
}

template <class F>
void BM_Add(benchmark::State& state) {
  const auto ops = random_operands<F>(4096);
  Flags fl;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = Float<F>::from_bits(ops[i & 4095]);
    const auto b = Float<F>::from_bits(ops[(i + 1) & 4095]);
    benchmark::DoNotOptimize(add(a, b, RoundingMode::RNE, fl));
    ++i;
  }
}

template <class F>
void BM_Mul(benchmark::State& state) {
  const auto ops = random_operands<F>(4096);
  Flags fl;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = Float<F>::from_bits(ops[i & 4095]);
    const auto b = Float<F>::from_bits(ops[(i + 1) & 4095]);
    benchmark::DoNotOptimize(mul(a, b, RoundingMode::RNE, fl));
    ++i;
  }
}

template <class F>
void BM_Fma(benchmark::State& state) {
  const auto ops = random_operands<F>(4096);
  Flags fl;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = Float<F>::from_bits(ops[i & 4095]);
    const auto b = Float<F>::from_bits(ops[(i + 1) & 4095]);
    const auto c = Float<F>::from_bits(ops[(i + 2) & 4095]);
    benchmark::DoNotOptimize(fma(a, b, c, RoundingMode::RNE, fl));
    ++i;
  }
}

template <class F>
void BM_Div(benchmark::State& state) {
  const auto ops = random_operands<F>(4096);
  Flags fl;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = Float<F>::from_bits(ops[i & 4095]);
    const auto b = Float<F>::from_bits(ops[(i + 1) & 4095]);
    benchmark::DoNotOptimize(div(a, b, RoundingMode::RNE, fl));
    ++i;
  }
}

template <class F>
void BM_Convert(benchmark::State& state) {
  const auto ops = random_operands<Binary32>(4096);
  Flags fl;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = Float<Binary32>::from_bits(ops[i & 4095]);
    benchmark::DoNotOptimize(convert<F>(a, RoundingMode::RNE, fl));
    ++i;
  }
}

// ---- runtime entries --------------------------------------------------------

/// Operands of magnitude below 1 in format `f`: a chain of products of them
/// stays finite, as a kernel's reduction does.
std::vector<std::uint64_t> unit_operands(FpFormat f, std::size_t n) {
  std::mt19937_64 gen(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Flags fl;
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rt_from_double(f, dist(gen), RoundingMode::RNE, fl);
  return v;
}

/// rt_ops(f, b).fma as a dependent chain, acc = x[i] * x[i + 1] + acc: each
/// call waits for the one before, as in a reduction loop.
void BM_RtFma(benchmark::State& state, FpFormat f, MathBackend b) {
  const RtTernFn fma = rt_ops(f, b).fma;
  const auto x = unit_operands(f, 4096);
  Flags fl;
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    acc = fma(x[i & 4095], x[(i + 1) & 4095], acc, RoundingMode::RNE, fl);
    benchmark::DoNotOptimize(acc);
    ++i;
  }
}

/// rt_vec_ops(f, b).mac over one full 32-bit register (32 / width lanes) as
/// a dependent chain, d = a * b + d lane by lane: one call per instruction.
void BM_RtVecMac(benchmark::State& state, FpFormat f, MathBackend b) {
  const RtVecTernFn mac = rt_vec_ops(f, b).mac;
  const int width = format_width(f);
  const int lanes = 32 / width;
  const auto x = unit_operands(f, 4096);
  std::vector<std::uint64_t> packed(4096);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    for (int l = 0; l < lanes; ++l) {
      packed[i] |= x[(i + static_cast<std::size_t>(l)) & 4095] << (l * width);
    }
  }
  Flags fl;
  std::uint64_t d = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    d = mac(packed[i & 4095], packed[(i + 1) & 4095], d, lanes, false,
            RoundingMode::RNE, fl);
    benchmark::DoNotOptimize(d);
    ++i;
  }
  state.counters["lanes"] = lanes;
}

/// One row per (entry, format, backend), named e.g. rt_ops.fma/binary16/fast.
const bool kEntriesRegistered = [] {
  constexpr FpFormat kFormats[] = {FpFormat::F8,  FpFormat::F16,
                                   FpFormat::F16Alt, FpFormat::F32,
                                   FpFormat::P8,  FpFormat::P16};
  const auto add = [&](const char* entry, auto fn) {
    for (const FpFormat f : kFormats) {
      for (const MathBackend b : {MathBackend::Grs, MathBackend::Fast}) {
        const std::string name = std::string(entry) + "/" +
                                 std::string(format_name(f)) + "/" +
                                 std::string(backend_name(b));
        benchmark::RegisterBenchmark(name.c_str(), fn, f, b);
      }
    }
  };
  add("rt_ops.fma", BM_RtFma);
  add("rt_vec_ops.mac", BM_RtVecMac);
  return true;
}();

}  // namespace

BENCHMARK(BM_Add<Binary8>);
BENCHMARK(BM_Add<Binary16>);
BENCHMARK(BM_Add<Binary16Alt>);
BENCHMARK(BM_Add<Binary32>);
BENCHMARK(BM_Add<Binary64>);
BENCHMARK(BM_Mul<Binary16>);
BENCHMARK(BM_Mul<Binary32>);
BENCHMARK(BM_Fma<Binary16>);
BENCHMARK(BM_Fma<Binary32>);
BENCHMARK(BM_Div<Binary16>);
BENCHMARK(BM_Div<Binary32>);
BENCHMARK(BM_Convert<Binary8>);
BENCHMARK(BM_Convert<Binary16>);
BENCHMARK_MAIN();
