// Campaign profile: where the host time of one sfrv-eval campaign goes, layer
// by layer, measured inside the process with no external profiler.
//
//   bench_profile [--suite table3|smoke|nn|nn-smoke] [--reps N] [--warm]
//
// Runs the suite's campaign once to warm up (building the fixtures and, with
// --warm, filling a cell store), then N more times while setitimer's
// ITIMER_PROF samples the process. Each repetition is what a sfrv-eval
// process pays after its fixture: run_campaign on one job, then the JSON and
// Markdown reports in memory. With --warm every repetition opens a new
// store over the filled (temporary) directory, as a warm process does, so
// nothing is simulated. The campaign is pinned like the repo benchmark's
// workloads: jit engine, fast backend, L1 memory, verifier off.
//
// Each sample keeps the interrupted pc and the return addresses backtrace()
// finds. Afterwards every address is resolved to its function through the
// executable's own ELF symbol table. A sample counts toward a layer when any
// of its frames lies in one of the layer's functions, matched on the
// qualified name (past the return type that the demangler puts first for a
// function template), so the shares are inclusive: a nested row is part of
// its parent row, and rows at one level need not sum to 100%. The softfloat
// and executor rows count the innermost frame only; the softfloat row's two
// sub-rows split it into posit and IEEE entries. The split is steady state,
// after the warm-up pass: a fresh process's first pass (what a sfrv-eval
// run pays) differs, and ITIMER_PROF samples at the kernel tick whatever
// the interval asked for, so a first-pass split needs the samples of many
// `--reps 1` processes added up (docs/evaluation.md). A second table ranks the
// functions that are a sample's innermost frame in this executable; where
// the sample stopped in libc, that is libc's caller. Run from an optimized
// build without assertions for figures that describe the optimized program;
// the build's own flags are the ones measured.
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "eval/campaign.hpp"
#include "eval/report.hpp"
#include "util/verify.hpp"

namespace {

using namespace sfrv;

// ---- sampler ----------------------------------------------------------------

constexpr int kMaxFrames = 48;
constexpr std::size_t kMaxSamples = std::size_t{1} << 15;
constexpr int kIntervalUs = 1000;
constexpr std::size_t kTopFunctions = 12;

struct Sample {
  std::uintptr_t pc = 0;  ///< interrupted pc, 0 when the context has none
  int depth = 0;
  std::array<void*, kMaxFrames> frames{};
};

std::vector<Sample> g_samples;            // sized before the timer starts
volatile sig_atomic_t g_taken = 0;         // samples written
volatile sig_atomic_t g_dropped = 0;       // samples past the buffer

std::uintptr_t context_pc(void* uc) {
  const auto* ctx = static_cast<const ucontext_t*>(uc);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(ctx->uc_mcontext.pc);
#else
  (void)ctx;
  return 0;
#endif
}

void on_prof(int, siginfo_t*, void* uc) {
  const auto n = static_cast<std::size_t>(g_taken);
  if (n >= g_samples.size()) {
    g_dropped = g_dropped + 1;
    return;
  }
  Sample& s = g_samples[n];
  s.pc = context_pc(uc);
  s.depth = backtrace(s.frames.data(), kMaxFrames);
  g_taken = g_taken + 1;
}

void set_timer(int interval_us) {
  itimerval t{};
  t.it_interval.tv_usec = interval_us;
  t.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &t, nullptr);
}

void start_sampling() {
  g_samples.assign(kMaxSamples, Sample{});
  // backtrace() loads its unwinder on first use, which must not happen
  // inside the signal handler.
  std::array<void*, 4> prime{};
  (void)backtrace(prime.data(), static_cast<int>(prime.size()));
  struct sigaction sa {};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  set_timer(kIntervalUs);
}

void stop_sampling() {
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
}

// ---- symbols ----------------------------------------------------------------

struct Symbol {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
  std::string name;  ///< demangled
  /// Where the qualified name starts in `name`: past the return type that
  /// the demangler puts first for a function template ("unsigned long
  /// sfrv::fp::posit_detail::round_pack<...>(...)"), else 0.
  std::size_t qualified = 0;
};

std::string demangle(const char* mangled) {
  int status = 0;
  std::unique_ptr<char, void (*)(void*)> out(
      abi::__cxa_demangle(mangled, nullptr, nullptr, &status), std::free);
  return status == 0 && out ? std::string(out.get()) : std::string(mangled);
}

/// The offset just past the last space that lies outside any template
/// argument list and before the parameter list: the start of the qualified
/// name when a return type precedes it, else 0.
std::size_t qualified_start(std::string_view name) {
  constexpr std::string_view kAnon = "(anonymous namespace)";
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (name.substr(i).starts_with(kAnon)) {
      i += kAnon.size() - 1;
    } else if (name[i] == '<') {
      ++depth;
    } else if (name[i] == '>') {
      --depth;
    } else if (depth == 0 && name[i] == ' ') {
      start = i + 1;
    } else if (depth == 0 && name[i] == '(') {
      break;
    }
  }
  return start;
}

int main_object_bias(dl_phdr_info* info, std::size_t, void* data) {
  *static_cast<std::uintptr_t*>(data) = info->dlpi_addr;
  return 1;  // the first object is the executable
}

template <typename T>
T read_at(const std::vector<char>& image, std::size_t off) {
  T v{};
  if (off + sizeof(T) <= image.size()) {
    std::memcpy(&v, image.data() + off, sizeof(T));
  }
  return v;
}

/// Every sized function symbol of the running executable, sorted by address
/// and relocated to where it is loaded. Local (anonymous-namespace)
/// functions are included: the static symbol table lists them.
std::vector<Symbol> function_symbols() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::vector<char> image((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const auto eh = read_at<ElfW(Ehdr)>(image, 0);
  if (image.size() < sizeof eh ||
      std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0) {
    return {};
  }
  std::uintptr_t bias = 0;
  dl_iterate_phdr(main_object_bias, &bias);
  std::vector<Symbol> syms;
  for (int i = 0; i < eh.e_shnum; ++i) {
    const auto sh =
        read_at<ElfW(Shdr)>(image, eh.e_shoff + i * sizeof(ElfW(Shdr)));
    if (sh.sh_type != SHT_SYMTAB || sh.sh_entsize == 0) continue;
    const auto strtab = read_at<ElfW(Shdr)>(
        image, eh.e_shoff + sh.sh_link * sizeof(ElfW(Shdr)));
    for (std::size_t k = 0; k < sh.sh_size / sh.sh_entsize; ++k) {
      const auto sym =
          read_at<ElfW(Sym)>(image, sh.sh_offset + k * sh.sh_entsize);
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
          strtab.sh_offset + sym.st_name >= image.size()) {
        continue;
      }
      std::string name =
          demangle(image.data() + strtab.sh_offset + sym.st_name);
      const std::size_t qualified = qualified_start(name);
      syms.push_back({bias + sym.st_value, bias + sym.st_value + sym.st_size,
                      std::move(name), qualified});
    }
  }
  std::sort(syms.begin(), syms.end(),
            [](const Symbol& a, const Symbol& b) { return a.begin < b.begin; });
  return syms;
}

const Symbol* find_symbol(const std::vector<Symbol>& syms, std::uintptr_t a) {
  auto it = std::upper_bound(
      syms.begin(), syms.end(), a,
      [](std::uintptr_t x, const Symbol& s) { return x < s.begin; });
  if (it == syms.begin()) return nullptr;
  --it;
  return a < it->end ? &*it : nullptr;
}

// ---- layers -----------------------------------------------------------------

/// Which frames of a sample a row matches: any frame, or only the innermost
/// frame of a sample under run_lowered -- any such frame, or only those
/// whose name does (posit) or does not (IEEE) mention a posit format or
/// function, which splits the softfloat row by the formats it computes on.
enum class Frames : std::uint8_t { Any, Leaf, PositLeaf, IeeeLeaf };

/// A row of the table: the functions (demangled-name prefixes) whose frames
/// put a sample in it. The quantization row has no entries: it is matched
/// from kEncode, kConvert and kLower below.
struct Layer {
  const char* label;
  int indent;
  std::vector<std::string_view> entries;
  Frames frames = Frames::Any;
};

/// Quantizing an array's inputs: the encode step (ir::encode_init and
/// ir::encode_array), or (where lowering quantizes for itself) a conversion
/// under a lowering frame.
constexpr std::string_view kEncode = "sfrv::ir::encode_";
constexpr std::string_view kConvert = "sfrv::fp::rt_from_double";
constexpr std::string_view kLower = "sfrv::ir::lower";

const std::vector<Layer>& layers() {
  static const std::vector<Layer> rows = {
      {"planning (plan_cells)", 0, {"sfrv::eval::plan_cells"}},
      {"kernel build (kernels::Benchmark)", 1,
       {"sfrv::kernels::Benchmark::", "sfrv::kernels::make_"}},
      {"benchmark data", 2, {"sfrv::kernels::Benchmark::data"}},
      {"quantization", 1, {}},
      {"lowering (ir::lower*)", 1, {kLower}},
      {"digest", 1,
       {"sfrv::kernels::lowered_digest", "sfrv::kernels::KernelDigest::",
        "sfrv::kernels::(anonymous namespace)::shared_part",
        "sfrv::kernels::(anonymous namespace)::with_text",
        "sfrv::util::WordHash::"}},
      {"store lookup", 0, {"sfrv::eval::CellStore::lookup"}},
      {"entry read and parse", 1, {"sfrv::eval::CellStore::load_from_disk"}},
      {"simulation (run_lowered)", 0, {"sfrv::kernels::run_lowered"}},
      {"softfloat (innermost frame)", 1, {"sfrv::fp::"}, Frames::Leaf},
      {"posit entries", 2, {"sfrv::fp::"}, Frames::PositLeaf},
      {"IEEE entries", 2, {"sfrv::fp::"}, Frames::IeeeLeaf},
      {"jit executor (innermost frame)", 1, {"sfrv::sim::jit::"},
       Frames::Leaf},
      {"report writing", 0,
       {"sfrv::eval::to_json", "sfrv::eval::render_markdown",
        "sfrv::eval::Json::dump"}},
  };
  return rows;
}

/// Whether the symbol's qualified name starts with one of `prefixes`.
bool starts_with_any(const Symbol& sym,
                     const std::vector<std::string_view>& prefixes) {
  const std::string_view name =
      std::string_view(sym.name).substr(sym.qualified);
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](std::string_view p) { return name.starts_with(p); });
}

/// Whether the symbol's name mentions a posit format or function
/// (`Posit8`, `posit_fma`, ...).
bool names_posit(const Symbol& sym) {
  return sym.name.find("Posit") != std::string::npos ||
         sym.name.find("posit") != std::string::npos;
}

/// The name without its parameter list, cut to `width` characters.
std::string short_name(const std::string& name, std::size_t width) {
  constexpr std::string_view kAnon = "(anonymous namespace)";
  constexpr std::string_view kCall = "operator()";
  std::string out = name;
  int depth = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (name.compare(i, kAnon.size(), kAnon) == 0) {
      i += kAnon.size() - 1;
    } else if (name.compare(i, kCall.size(), kCall) == 0) {
      i += kCall.size() - 1;
    } else if (name[i] == '<') {
      ++depth;
    } else if (name[i] == '>') {
      --depth;
    } else if (name[i] == '(' && depth == 0) {
      out = name.substr(0, i);
      break;
    }
  }
  return out.size() > width ? out.substr(0, width - 3) + "..." : out;
}

void report(const std::vector<Symbol>& syms, std::size_t n,
            double ms_per_rep) {
  const auto& rows = layers();
  std::vector<std::size_t> hits(rows.size(), 0);
  std::map<const Symbol*, std::size_t> innermost;  // first resolved frame
  std::size_t unresolved_leaf = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = g_samples[i];
    std::vector<const Symbol*> stack;
    const Symbol* leaf = find_symbol(syms, s.pc);
    if (leaf == nullptr) ++unresolved_leaf;
    if (leaf != nullptr) stack.push_back(leaf);
    for (int f = 0; f < s.depth; ++f) {
      // A return address points past its call; step back into the caller.
      const auto a = reinterpret_cast<std::uintptr_t>(s.frames[f]);
      const Symbol* sym = find_symbol(syms, a == s.pc ? a : a - 1);
      // The handler's own frames are not part of the sample.
      if (sym != nullptr && sym->name.starts_with("(anonymous namespace)::")) {
        continue;
      }
      if (sym != nullptr && (stack.empty() || stack.back() != sym)) {
        stack.push_back(sym);
      }
    }
    if (!stack.empty()) ++innermost[stack.front()];
    const auto in = [&](const std::vector<std::string_view>& prefixes) {
      return std::any_of(stack.begin(), stack.end(), [&](const Symbol* sym) {
        return starts_with_any(*sym, prefixes);
      });
    };
    for (std::size_t r = 0; r < rows.size(); ++r) {
      bool hit = false;
      if (rows[r].entries.empty()) {  // quantization
        hit = in({kEncode}) || (in({kConvert}) && in({kLower}));
      } else if (rows[r].frames != Frames::Any) {
        hit = leaf != nullptr && starts_with_any(*leaf, rows[r].entries) &&
              in({"sfrv::kernels::run_lowered"});
        if (hit && rows[r].frames != Frames::Leaf) {
          hit = names_posit(*leaf) == (rows[r].frames == Frames::PositLeaf);
        }
      } else {
        hit = in(rows[r].entries);
      }
      hits[r] += hit ? 1 : 0;
    }
  }
  std::printf("\n%-36s %8s %8s %9s\n", "layer (inclusive)", "samples", "share",
              "ms/rep");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const double share =
        n > 0 ? static_cast<double>(hits[r]) / static_cast<double>(n) : 0.0;
    const std::string label =
        std::string(static_cast<std::size_t>(rows[r].indent) * 2, ' ') +
        rows[r].label;
    std::printf("%-36s %8zu %7.1f%% %9.3f\n", label.c_str(), hits[r],
                100 * share, share * ms_per_rep);
  }
  std::printf("%-36s %8zu\n", "all samples", n);
  if (unresolved_leaf > 0) {
    std::printf("(%zu samples stopped outside this executable's own "
                "functions, e.g. in libc; their callers still count)\n",
                unresolved_leaf);
  }

  std::vector<std::pair<std::size_t, const Symbol*>> ranked;
  for (const auto& [sym, count] : innermost) ranked.emplace_back(count, sym);
  std::sort(ranked.rbegin(), ranked.rend());
  if (ranked.size() > kTopFunctions) ranked.resize(kTopFunctions);
  std::printf("\n%-80s %8s %8s\n", "innermost function of this executable",
              "samples", "share");
  for (const auto& [count, sym] : ranked) {
    std::printf("%-80s %8zu %7.1f%%\n", short_name(sym->name, 80).c_str(),
                count, 100.0 * static_cast<double>(count) /
                           static_cast<double>(n));
  }
}

// ---- driver -----------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--suite table3|smoke|nn|nn-smoke] [--reps N] "
               "[--warm]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite = "table3";
  long reps = 20;
  bool warm = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--suite" && has_value) {
      suite = argv[++i];
    } else if (arg == "--reps" && has_value) {
      char* end = nullptr;
      reps = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || reps < 1 || reps > 100000) {
        return usage(argv[0]);
      }
    } else if (arg == "--warm") {
      warm = true;
    } else {
      return usage(argv[0]);
    }
  }

  eval::CampaignSpec spec;
  if (suite == "table3") {
    spec = eval::CampaignSpec::table3();
  } else if (suite == "smoke") {
    spec = eval::CampaignSpec::smoke();
  } else if (suite == "nn") {
    spec = eval::CampaignSpec::nn(eval::SuiteScale::Full);
  } else if (suite == "nn-smoke") {
    spec = eval::CampaignSpec::nn(eval::SuiteScale::Smoke);
  } else {
    return usage(argv[0]);
  }
  spec.engine = sim::Engine::Jit;
  spec.backend = fp::MathBackend::Fast;
  spec.mem.set_level(sim::kMemL1);
  verify::set_enabled(false);

  std::string cache_dir;
  if (warm) {
    cache_dir = (std::filesystem::temp_directory_path() / "sfrv-profile-XXXXXX")
                    .string();
    if (mkdtemp(cache_dir.data()) == nullptr) {
      std::perror("mkdtemp");
      return 1;
    }
  }

  std::size_t report_bytes = 0;
  const auto rep = [&] {
    std::unique_ptr<eval::CellStore> store;
    if (warm) store = std::make_unique<eval::CellStore>(cache_dir);
    const eval::EvalReport r = eval::run_campaign(spec, 1, store.get());
    report_bytes = eval::to_json(r).dump(2).size() +
                   eval::render_markdown(r).size();
  };

  int status = 0;
  try {
    rep();  // warm-up: fixtures, first-use tables, and the store when warm
    const std::vector<Symbol> syms = function_symbols();
    start_sampling();
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < reps; ++i) rep();
    const auto t1 = std::chrono::steady_clock::now();
    stop_sampling();
    const double ms_per_rep =
        std::chrono::duration<double, std::milli>(t1 - t0).count() /
        static_cast<double>(reps);
    const auto n = static_cast<std::size_t>(g_taken);
    std::printf("bench_profile: suite %s%s, engine jit, backend fast, 1 job, "
                "verifier off\n",
                spec.name.c_str(), warm ? " (warm store)" : " (no store)");
    std::printf("%ld reps after one warm-up pass: %.3f ms/rep, %zu report "
                "bytes/rep; %zu samples (ITIMER_PROF every %d us)%s\n",
                reps, ms_per_rep, report_bytes, n, kIntervalUs,
                g_dropped > 0 ? ", buffer full: later samples dropped" : "");
    if (syms.empty()) {
      std::fprintf(stderr, "bench_profile: no symbol table in the executable\n");
      status = 1;
    } else {
      report(syms, n, ms_per_rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_profile: %s\n", e.what());
    status = 1;
  }
  if (warm) {
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);
  }
  return status;
}
