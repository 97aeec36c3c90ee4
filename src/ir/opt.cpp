#include "ir/opt.hpp"

#include <algorithm>
#include <array>
#include <bitset>
#include <stdexcept>

#include "isa/encoding.hpp"
#include "isa/opcodes.hpp"

namespace sfrv::ir {

// ---- configuration ----------------------------------------------------------

void validate(const OptConfig& cfg) {
  const int u = cfg.unroll_factor;
  if (u < 1 || u > 8 || (u & (u - 1)) != 0) {
    throw std::runtime_error(
        "invalid unroll factor " + std::to_string(u) +
        " (must be a power of two in [1, 8])");
  }
  // The setvl cap field is 6 bits, so a strip request cannot exceed 63
  // elements. Per-format divisibility (cap % lanes == 0) is checked at
  // lowering time, where the element width is known.
  if (cfg.vl_cap < 0 || cfg.vl_cap > 63) {
    throw std::runtime_error("invalid vl_cap " + std::to_string(cfg.vl_cap) +
                             " (must be in [0, 63])");
  }
}

std::string_view opt_name(const OptConfig& cfg) {
  if (cfg == OptConfig::O0()) return "O0";
  if (cfg == OptConfig::O1()) return "O1";
  if (cfg == OptConfig::O2()) return "O2";
  return "custom";
}

OptConfig opt_from_name(std::string_view name) {
  for (const OptConfig c :
       {OptConfig::O0(), OptConfig::O1(), OptConfig::O2()}) {
    if (name == opt_name(c)) return c;
  }
  throw std::runtime_error("unknown opt level: " + std::string(name));
}

// ---- dead-glue elimination --------------------------------------------------

namespace {

using isa::Cls;
using isa::Inst;
using isa::Lay;
using isa::Op;

/// Register numbering for the pass: 0-31 integer, 32-63 FP.
constexpr int kNone = -1;
constexpr int xr(unsigned r) { return static_cast<int>(r); }
constexpr int fr(unsigned r) { return 32 + static_cast<int>(r); }

/// Conservative per-instruction register/effect model. `understood == false`
/// makes the whole pass bail out (position-dependent control flow, or an
/// opcode outside the kernel compiler's emission set).
struct InstModel {
  int def = kNone;  // writes to x0 are normalized away
  int uses[4] = {kNone, kNone, kNone, kNone};
  bool understood = false;
  bool deletable = false;    // pure: no memory/fflags/control side effects
  bool is_load = false;      // FP load
  bool is_store = false;     // FP store
  bool is_branch = false;
  bool is_terminator = false;
  bool barrier = false;      // invalidates the whole forwarding table
  int width = 0;             // access bytes for FP loads/stores
};

InstModel classify(const Inst& in) {
  InstModel m;
  const Op op = in.op;
  // Position-dependent or indirect control flow: the compaction step cannot
  // preserve auipc results or jump targets, so the pass refuses the program.
  if (op == Op::JAL || op == Op::JALR || op == Op::AUIPC) return m;
  if (op == Op::EBREAK || op == Op::ECALL) {
    m.understood = true;
    m.is_terminator = true;
    return m;
  }
  const Cls c = isa::op_class(op);
  const Lay lay = isa::layout(op);
  auto def_x = [&](unsigned r) {
    if (r != 0) m.def = xr(r);
  };
  // VL-governed vector memops: the access footprint depends on the dynamic
  // vl register (invisible to this pass), and a VL load merges into its
  // destination tail-undisturbed, so rd is a *source* as well as the def.
  // Model them as opaque memory barriers — never deleted, never eligible
  // for store-to-load forwarding, and clearing the forwarding table (the
  // widths the table tracks don't describe what these ops touch).
  switch (op) {
    case Op::VFLB:
    case Op::VFLH:
      m.understood = true;
      m.barrier = true;
      m.def = fr(in.rd);
      m.uses[0] = xr(in.rs1);
      m.uses[1] = fr(in.rd);
      return m;
    case Op::VFSB:
    case Op::VFSH:
      m.understood = true;
      m.barrier = true;
      m.uses[0] = xr(in.rs1);
      m.uses[1] = fr(in.rs2);
      return m;
    default:
      break;
  }
  switch (c) {
    case Cls::IntAlu:
    case Cls::IntMul:
    case Cls::IntDiv:
      m.understood = true;
      m.deletable = true;
      def_x(in.rd);
      switch (lay) {
        case Lay::U: break;  // lui
        case Lay::Iimm:
        case Lay::Shamt:
          m.uses[0] = xr(in.rs1);
          break;
        case Lay::R:
          m.uses[0] = xr(in.rs1);
          m.uses[1] = xr(in.rs2);
          break;
        default:
          m.understood = false;
          break;
      }
      return m;
    case Cls::Branch:
      m.understood = true;
      m.is_branch = true;
      m.uses[0] = xr(in.rs1);
      m.uses[1] = xr(in.rs2);
      return m;
    case Cls::FpLoad:
      m.understood = true;
      m.is_load = true;
      m.deletable = true;  // no fflags; lowered accesses never trap
      m.def = fr(in.rd);
      m.uses[0] = xr(in.rs1);
      m.width = op == Op::FLW ? 4 : op == Op::FLH ? 2 : 1;
      return m;
    case Cls::FpStore:
      m.understood = true;
      m.is_store = true;
      m.uses[0] = xr(in.rs1);
      m.uses[1] = fr(in.rs2);
      m.width = op == Op::FSW ? 4 : op == Op::FSH ? 2 : 1;
      return m;
    case Cls::Load:
      // Integer loads: kept (never deleted), base register use.
      m.understood = true;
      m.barrier = true;
      def_x(in.rd);
      m.uses[0] = xr(in.rs1);
      return m;
    case Cls::Store:
      m.understood = true;
      m.barrier = true;
      m.uses[0] = xr(in.rs1);
      m.uses[1] = xr(in.rs2);
      return m;
    case Cls::Csr:
      // CSR traffic (frm/fflags) must stay put and pins everything around it.
      m.understood = true;
      m.barrier = true;
      def_x(in.rd);
      m.uses[0] = xr(in.rs1);
      return m;
    case Cls::Sys:
      m.understood = true;  // fence
      m.barrier = true;
      return m;
    case Cls::Jump:
      return m;  // jal/jalr handled above; anything else: bail
    default:
      break;  // FP compute, below
  }

  // FP computational ops. Operand banks come from the opcode table; rs2/rs3
  // are always FP when present. Accumulating ops (vfmac, vfdotpex, fmacex,
  // vfcpka) read rd; since no FP compute op that *sets fflags* is ever
  // deleted, conservatively treating rd as a source for all non-pure FP ops
  // is sound and costs no DCE precision.
  m.understood = true;
  m.def = isa::rd_is_int(op) ? (in.rd != 0 ? xr(in.rd) : kNone) : fr(in.rd);
  const int src1 = isa::rs1_is_int(op) ? xr(in.rs1) : fr(in.rs1);
  switch (lay) {
    case Lay::FpRrm:
    case Lay::FpR2:
    case Lay::Vec:
      m.uses[0] = src1;
      m.uses[1] = fr(in.rs2);
      break;
    case Lay::FpUnaryRm:
    case Lay::FpUnary:
    case Lay::VecUnary:
      m.uses[0] = src1;
      break;
    case Lay::FpR4:
      m.uses[0] = src1;
      m.uses[1] = fr(in.rs2);
      m.uses[2] = fr(in.rs3);
      break;
    default:
      m.understood = false;
      return m;
  }
  switch (c) {
    case Cls::FpSgnj:
    case Cls::FpMvToX:
    case Cls::FpMvFromX:
    case Cls::FpClass:
      m.deletable = true;  // bit moves: no fflags
      break;
    default:
      // May set fflags (architectural): never deleted, and rd is
      // conservatively also a source (covers the accumulating ops).
      if (m.def != kNone) m.uses[3] = m.def;
      break;
  }
  return m;
}

/// Bit-exact register copy matching an FP load width (NaN-boxing behaves
/// identically: fsgnj of a register against itself rewrites the low `width`
/// bytes and re-boxes exactly as the reload would).
Op sgnj_for_width(int width) {
  switch (width) {
    case 4: return Op::FSGNJ_S;
    case 2: return Op::FSGNJ_H;
    default: return Op::FSGNJ_B;
  }
}

struct Block {
  std::size_t begin = 0, end = 0;  // [begin, end) instruction indices
};

}  // namespace

GlueStats dead_glue_elim(
    asmb::Program& prog,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& inner_ranges,
    std::vector<int>* mem_array_io, bool regs_dead_at_exit) {
  GlueStats gs;
  auto& text = prog.text;
  const std::size_t n = text.size();
  if (n == 0) return gs;
  const std::vector<int> no_prov;
  const std::vector<int>& mem_array =
      mem_array_io != nullptr ? *mem_array_io : no_prov;

  std::vector<InstModel> models(n);
  for (std::size_t i = 0; i < n; ++i) {
    models[i] = classify(text[i]);
    if (!models[i].understood) return gs;
  }

  // ---- control-flow structure ----------------------------------------------
  std::vector<char> leader(n + 1, 0);
  leader[0] = 1;
  leader[n] = 1;
  std::vector<std::int64_t> btarget(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (models[i].is_branch) {
      if (text[i].imm % 4 != 0) return gs;
      const std::int64_t t = static_cast<std::int64_t>(i) + text[i].imm / 4;
      if (t < 0 || t > static_cast<std::int64_t>(n)) return gs;
      btarget[i] = t;
      if (t < static_cast<std::int64_t>(n)) leader[static_cast<std::size_t>(t)] = 1;
      leader[i + 1] = 1;
    } else if (models[i].is_terminator) {
      leader[i + 1] = 1;
    }
  }
  std::vector<Block> blocks;
  std::vector<std::size_t> block_of(n, 0);
  for (std::size_t i = 0; i < n;) {
    std::size_t e = i + 1;
    while (e < n && !leader[e]) ++e;
    for (std::size_t k = i; k < e; ++k) block_of[k] = blocks.size();
    blocks.push_back({i, e});
    i = e;
  }

  std::vector<char> deleted(n, 0);

  // ---- load/store forwarding (per block) -----------------------------------
  // Table entry: memory [imm, imm+width) through base register `base` holds
  // the same bits as FP register `vreg`. `array` is the provenance id
  // (distinct ids never alias); -1 aliases with everything.
  struct Entry {
    std::uint8_t base;
    std::int32_t imm;
    int width;
    std::uint8_t vreg;
    int array;
  };
  std::vector<Entry> table;
  auto kill_base = [&](std::uint8_t base) {
    std::erase_if(table, [&](const Entry& e) { return e.base == base; });
  };
  auto kill_vreg = [&](std::uint8_t v) {
    std::erase_if(table, [&](const Entry& e) { return e.vreg == v; });
  };
  auto kill_def = [&](const InstModel& m) {
    if (m.def == kNone) return;
    if (m.def < 32) {
      kill_base(static_cast<std::uint8_t>(m.def));
    } else {
      kill_vreg(static_cast<std::uint8_t>(m.def - 32));
    }
  };

  for (const Block& blk : blocks) {
    table.clear();
    for (std::size_t i = blk.begin; i < blk.end; ++i) {
      Inst& in = text[i];
      const InstModel m = models[i];
      if (m.barrier) {
        table.clear();
        kill_def(m);
        continue;
      }
      const int arr = i < mem_array.size() ? mem_array[i] : -1;
      if (m.is_load) {
        const Entry* hit = nullptr;
        for (const Entry& e : table) {
          if (e.base == in.rs1 && e.imm == in.imm && e.width == m.width) {
            hit = &e;
            break;
          }
        }
        if (hit != nullptr && hit->vreg == in.rd) {
          // The destination already holds exactly these bits: drop the load.
          deleted[i] = 1;
          ++gs.loads_forwarded;
          ++gs.insts_deleted;
          continue;
        }
        const std::uint8_t rd = in.rd;
        const std::uint8_t rs1 = in.rs1;
        const std::int32_t imm = in.imm;
        if (hit != nullptr) {
          const std::uint8_t src = hit->vreg;
          in = Inst{.op = sgnj_for_width(m.width), .rd = rd, .rs1 = src,
                    .rs2 = src};
          models[i] = classify(in);
          // The rewrite leaves a register copy: no memory provenance.
          if (mem_array_io != nullptr && i < mem_array_io->size()) {
            (*mem_array_io)[i] = -1;
          }
          ++gs.loads_forwarded;
        }
        kill_vreg(rd);
        table.push_back({rs1, imm, m.width, rd, arr});
        continue;
      }
      if (m.is_store) {
        std::erase_if(table, [&](const Entry& e) {
          if (e.array >= 0 && arr >= 0 && e.array != arr) return false;
          if (e.base == in.rs1) {
            return in.imm < e.imm + e.width && e.imm < in.imm + m.width;
          }
          return true;  // unknown base relationship: assume aliased
        });
        table.push_back({in.rs1, in.imm, m.width, in.rs2, arr});
        continue;
      }
      kill_def(m);
    }
  }

  // ---- addi-chain merging (per block) --------------------------------------
  // `addi r, r, a` ... `addi r, r, b` with no intervening read or other
  // write of r folds into a single `addi r, r, a+b`. The intermediate value
  // is unobservable (nothing reads it and nothing in between can fault).
  for (const Block& blk : blocks) {
    std::array<std::int64_t, 32> pending;  // index of an open chain head
    pending.fill(-1);
    for (std::size_t i = blk.begin; i < blk.end; ++i) {
      if (deleted[i]) continue;
      Inst& in = text[i];
      const InstModel& m = models[i];
      const bool self_addi =
          in.op == Op::ADDI && in.rd == in.rs1 && in.rd != 0;
      if (self_addi) {
        const auto r = in.rd;
        const std::int64_t head = pending[r];
        if (head >= 0) {
          const std::int64_t sum =
              static_cast<std::int64_t>(text[static_cast<std::size_t>(head)].imm) +
              in.imm;
          if (sum >= -2048 && sum < 2048) {
            deleted[static_cast<std::size_t>(head)] = 1;
            in.imm = static_cast<std::int32_t>(sum);
            ++gs.addis_merged;
            ++gs.insts_deleted;
          }
        }
        pending[r] = static_cast<std::int64_t>(i);
        continue;
      }
      for (const int u : m.uses) {
        if (u >= 0 && u < 32) pending[static_cast<std::size_t>(u)] = -1;
      }
      if (m.def >= 0 && m.def < 32) {
        pending[static_cast<std::size_t>(m.def)] = -1;
      }
    }
  }

  // ---- liveness DCE ----------------------------------------------------------
  // Backward dataflow over int+fp registers; pure writes to registers that
  // are dead on every path are deleted. Registers are conservatively live at
  // program exit unless the caller says results live in memory only.
  std::bitset<64> exit_live;
  if (!regs_dead_at_exit) exit_live.set();
  const std::size_t nb = blocks.size();
  auto successors = [&](std::size_t b, std::size_t out[2]) -> int {
    const std::size_t last = blocks[b].end - 1;
    if (models[last].is_terminator) return 0;
    int cnt = 0;
    if (models[last].is_branch) {
      const std::int64_t t = btarget[last];
      if (t < static_cast<std::int64_t>(n)) {
        out[cnt++] = block_of[static_cast<std::size_t>(t)];
      }
      // branch to end-of-text falls out of the program: exit edge, which the
      // caller below treats as exit_live when no successor covers it.
    }
    if (blocks[b].end < n) out[cnt++] = block_of[blocks[b].end];
    return cnt;
  };
  auto block_exits = [&](std::size_t b) -> bool {
    const std::size_t last = blocks[b].end - 1;
    if (models[last].is_terminator) return true;
    if (blocks[b].end == n && !models[last].is_branch) return true;
    if (models[last].is_branch &&
        (btarget[last] == static_cast<std::int64_t>(n) || blocks[b].end == n)) {
      return true;
    }
    return false;
  };

  bool deleted_any = true;
  while (deleted_any) {
    deleted_any = false;
    std::vector<std::bitset<64>> live_in(nb), live_out(nb);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t b = nb; b-- > 0;) {
        std::bitset<64> out;
        std::size_t succ[2];
        const int cnt = successors(b, succ);
        for (int s = 0; s < cnt; ++s) out |= live_in[succ[s]];
        if (block_exits(b)) out |= exit_live;
        live_out[b] = out;
        std::bitset<64> cur = out;
        for (std::size_t i = blocks[b].end; i-- > blocks[b].begin;) {
          if (deleted[i]) continue;
          const InstModel& m = models[i];
          if (m.def != kNone) cur.reset(static_cast<std::size_t>(m.def));
          for (const int u : m.uses) {
            if (u != kNone) cur.set(static_cast<std::size_t>(u));
          }
        }
        if (cur != live_in[b]) {
          live_in[b] = cur;
          changed = true;
        }
      }
    }
    for (std::size_t b = 0; b < nb; ++b) {
      std::bitset<64> cur = live_out[b];
      for (std::size_t i = blocks[b].end; i-- > blocks[b].begin;) {
        if (deleted[i]) continue;
        const InstModel& m = models[i];
        const bool dead_def =
            m.def != kNone && !cur.test(static_cast<std::size_t>(m.def));
        const bool no_effect = m.def == kNone && !m.is_store && !m.is_branch &&
                               !m.is_terminator && !m.barrier;
        if (m.deletable && (dead_def || no_effect)) {
          deleted[i] = 1;
          ++gs.insts_deleted;
          deleted_any = true;
          continue;
        }
        if (m.def != kNone) cur.reset(static_cast<std::size_t>(m.def));
        for (const int u : m.uses) {
          if (u != kNone) cur.set(static_cast<std::size_t>(u));
        }
      }
    }
  }

  if (!gs.any()) return gs;

  // ---- compaction with branch retargeting ------------------------------------
  // new_index[i] = compacted index of i when kept, else of the next kept
  // instruction (a branch to a deleted instruction lands on the next one,
  // which is exactly the semantics of skipping a no-effect instruction).
  std::vector<std::uint32_t> new_index(n + 1);
  std::uint32_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    new_index[i] = k;
    if (!deleted[i]) ++k;
  }
  new_index[n] = k;
  for (std::size_t i = 0; i < n; ++i) {
    if (deleted[i] || !models[i].is_branch) continue;
    const auto t = static_cast<std::size_t>(btarget[i]);
    text[i].imm =
        (static_cast<std::int32_t>(new_index[t]) -
         static_cast<std::int32_t>(new_index[i])) *
        4;
  }
  auto remap_addr = [&](std::uint32_t addr) {
    if (addr < prog.text_base) return prog.text_base;
    std::size_t idx = (addr - prog.text_base) / 4;
    if (idx > n) idx = n;
    return prog.text_base + new_index[idx] * 4;
  };
  for (auto& [b, e] : inner_ranges) {
    b = remap_addr(b);
    e = remap_addr(e);
  }
  // Remapping preserves order but can collapse a fully-deleted range to
  // empty or butt adjacent ranges into overlap; re-normalize so the sorted /
  // merged / non-empty contract (ir::Verifier) survives the pass.
  {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> norm;
    for (const auto& [b, e] : inner_ranges) {
      if (b >= e) continue;
      if (!norm.empty() && b < norm.back().second) {
        norm.back().second = std::max(norm.back().second, e);
      } else {
        norm.emplace_back(b, e);
      }
    }
    inner_ranges = std::move(norm);
  }
  std::vector<Inst> compact;
  compact.reserve(k);
  for (std::size_t i = 0; i < n; ++i) {
    if (!deleted[i]) compact.push_back(text[i]);
  }
  text = std::move(compact);
  if (mem_array_io != nullptr && mem_array_io->size() == n) {
    std::vector<int> prov_compact;
    prov_compact.reserve(k);
    for (std::size_t i = 0; i < n; ++i) {
      if (!deleted[i]) prov_compact.push_back((*mem_array_io)[i]);
    }
    *mem_array_io = std::move(prov_compact);
  }
  prog.text_words.clear();
  prog.text_words.reserve(text.size());
  for (const Inst& i : text) prog.text_words.push_back(isa::encode(i));
  return gs;
}

}  // namespace sfrv::ir
