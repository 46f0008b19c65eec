#include "verifier/replay.h"

#include <algorithm>
#include <bitset>
#include <optional>

#include "common/bytes.h"
#include "common/error.h"
#include "emu/cpu.h"
#include "verifier/firmware_artifact.h"

namespace dialed::verifier {

std::uint16_t replay_state::global(const std::string& name) const {
  const auto it = prog_.global_addrs.find(name);
  if (it == prog_.global_addrs.end()) {
    throw error("verifier: unknown global '" + name + "'");
  }
  return word_at(it->second);
}

namespace {

constexpr std::uint64_t max_replay_instructions = 20'000'000;

/// The instrumented `ret` idiom (`mov @SP+, PC`) the return-address
/// witness classifies by — on the decode in hand, cached or live, so the
/// two decode paths cannot disagree about it.
constexpr bool is_ret_instruction(const isa::instruction& ins) {
  return ins.op == isa::opcode::mov &&
         ins.src.mode == isa::addr_mode::indirect_inc &&
         ins.src.base == isa::REG_SP &&
         ins.dst.mode == isa::addr_mode::reg &&
         ins.dst.base == isa::REG_PC;
}

/// Forensic capture, present only when the caller passed a sink: the
/// output plus the taint bookkeeping behind its provenance bits. A
/// verdict-only replay never allocates or clears any of it.
struct forensic_state {
  forensics& out;
  bool reg_taint[16] = {};
  std::bitset<0x10000> mem_taint;
  bool write_taint = false;  ///< taint of the value the step writes
  isa::instruction ins{};    ///< the step being replayed (annotation)
  std::vector<bool> call_taint_stack;
};

class replay_engine;

/// The replay's memory, which emu::basic_cpu runs over: a flat 64 KiB that
/// one replay owns, zeroed at construction. Reads, fetches and peeks are
/// array loads; a write lands, then reaches the engine's write hook
/// inline. The halt port is the one device, with the device's halt latch
/// semantics: its bytes are never stored, so reads and peeks see 0, and a
/// byte store halts with the byte, a word store with the word.
class replay_memory {
 public:
  replay_memory(const emu::memory_map& map, replay_engine& hook)
      : map_(map), hook_(hook) {}

  const emu::memory_map& map() const { return map_; }
  const std::array<std::uint8_t, 0x10000>& bytes() const { return mem_; }
  const std::optional<std::uint16_t>& halt_code() const { return halt_; }

  /// Copy the image's segments in (unobserved).
  void load(const masm::image& img) {
    for (const auto& seg : img.segments) {
      if (seg.base + seg.bytes.size() > mem_.size()) {
        throw error("emu: image overflows the address space");
      }
      std::ranges::copy(seg.bytes, mem_.begin() + seg.base);
    }
    mem_[map_.halt_port] = 0;
    mem_[static_cast<std::uint16_t>(map_.halt_port + 1)] = 0;
  }

  std::uint8_t read8(std::uint16_t a) const { return mem_[a]; }
  std::uint16_t read16(std::uint16_t a) const { return peek16(a); }
  std::uint16_t peek16(std::uint16_t a) const {
    a &= 0xfffe;
    return static_cast<std::uint16_t>(mem_[a] | mem_[a + 1] << 8);
  }
  void write8(std::uint16_t a, std::uint8_t v);
  void write16(std::uint16_t a, std::uint16_t v);
  /// Unobserved stores (setup and I-Log feeding): no hook, never a halt.
  void poke8(std::uint16_t a, std::uint8_t v) {
    if (!halt_byte(a)) mem_[a] = v;
  }
  void poke16(std::uint16_t a, std::uint16_t v) {
    a &= 0xfffe;
    poke8(a, static_cast<std::uint8_t>(v & 0xff));
    poke8(static_cast<std::uint16_t>(a + 1), static_cast<std::uint8_t>(v >> 8));
  }

  void notify_exec(std::uint16_t, const isa::instruction&) {}
  void notify_irq(std::uint16_t) {}
  void notify_reset() {}

 private:
  bool halt_byte(std::uint16_t a) const {
    return static_cast<std::uint16_t>(a - map_.halt_port) < 2;
  }
  void store8(std::uint16_t a, std::uint8_t v) {
    if (!halt_byte(a)) {
      mem_[a] = v;
    } else if (a == map_.halt_port) {
      halt_low_ = v;
      halt_ = v;
    } else {
      halt_ = static_cast<std::uint16_t>(v << 8 | halt_low_);
    }
  }

  const emu::memory_map& map_;
  replay_engine& hook_;
  std::optional<std::uint16_t> halt_;
  std::uint8_t halt_low_ = 0;
  std::array<std::uint8_t, 0x10000> mem_{};
};

class replay_engine {
 public:
  replay_engine(const firmware_artifact& fw,
                const report_view& report,
                const std::vector<std::shared_ptr<policy>>& policies,
                forensics* fx)
      : fw_(fw),
        prog_(fw.program()),
        report_(report),
        policies_(policies),
        mem_(prog_.options.map, *this),
        cpu_(mem_),
        state_(cpu_.regs(), mem_.bytes(), prog_),
        log_(report.or_min, report.or_max, report.or_bytes) {
    if (fx != nullptr) fx_.emplace(*fx = forensics{});  // reset, then bind
  }

  // mem_ holds this engine's address as its write hook.
  replay_engine(const replay_engine&) = delete;
  replay_engine& operator=(const replay_engine&) = delete;

  replay_result run();

  /// Every replayed CPU write, after it took effect.
  void on_write(std::uint16_t addr, std::uint16_t value, bool byte) {
    mark_code_dirty(addr, byte ? 1 : 2);
    if (addr < prog_.options.map.ram_start) {
      if (fx_) {
        fx_->out.io_trace.push_back(
            {addr, value, current_pc_, fx_->write_taint});
      }
      // Peripheral space: a write drives the device (FIFO ack, conversion
      // trigger, output latch) — it does NOT define the value of the next
      // read. Invalidate so subsequent reads are fed from the I-Log, which
      // is exactly where the device logged them.
      for (int i = 0; i < (byte ? 1 : 2); ++i) {
        known_[static_cast<std::uint16_t>(addr + i)] = false;
      }
    } else {
      mark_known(addr, byte ? 1 : 2);
    }
    if (fx_ && addr >= report_.or_min && addr <= report_.or_max + 1) {
      annotate_or_write(addr, value);
    }
    for (const auto& p : policies_) {
      p->on_write(state_, addr, value, current_pc_, result_.findings);
    }
  }

 private:
  void mark_known(std::uint16_t addr, int n) {
    for (int i = 0; i < n; ++i) {
      known_[static_cast<std::uint16_t>(addr + i)] = true;
    }
  }

  /// The artifact's decode cache reads the bytes an instruction in
  /// [er_min, er_max] may fetch ([er_min, er_max+5]). Any write landing
  /// there — a code-overwriting attack being replayed — retires the cache
  /// for the rest of this replay; decoding falls back to live decode.
  void mark_code_dirty(std::uint16_t addr, int n) {
    if (code_dirty_) return;
    const std::uint32_t lo = addr;
    const std::uint32_t hi = lo + static_cast<std::uint32_t>(n);
    if (hi > prog_.er_min &&
        lo <= static_cast<std::uint32_t>(prog_.er_max) + 5) {
      code_dirty_ = true;
    }
  }

  /// Unobserved poke used when feeding values into the replayed memory;
  /// still has to honor the decode-cache invalidation rule above.
  void feed_poke(std::uint16_t addr, std::uint8_t value) {
    mem_.poke8(addr, value);
    mark_code_dirty(addr, 1);
  }

  void add_finding(attack_kind k, std::string detail, std::uint16_t pc = 0,
                   std::uint16_t addr = 0) {
    if (result_.findings.size() < 200) {
      result_.findings.push_back({k, std::move(detail), pc, addr});
    }
  }

  std::uint16_t reg(int i) { return cpu_.regs()[i]; }

  // ---- I-Log feeding ----
  void feed_unknown(std::uint16_t ea, int width, std::uint16_t pc) {
    bool any_unknown = false;
    for (int i = 0; i < width; ++i) {
      if (!known_[static_cast<std::uint16_t>(ea + i)]) any_unknown = true;
    }
    if (!any_unknown) return;

    const std::uint16_t r1 = reg(isa::REG_SP);
    const bool outside_stack = ea < r1 || ea > saved_sp_;
    if (!outside_stack) {
      add_finding(attack_kind::uninitialized_read,
                  "op read uninitialized stack memory at " + hex16(ea), pc,
                  ea);
      for (int i = 0; i < width; ++i) {
        const std::uint16_t b = static_cast<std::uint16_t>(ea + i);
        if (!known_[b]) {
          feed_poke(b, 0);
          known_[b] = true;
        }
      }
      return;
    }

    // Outside the op's stack: the device logged this read; the next I-Log
    // slot — at the replay's current r4 — holds the value it saw.
    const std::uint16_t r4 = reg(isa::REG_LOGPTR);
    if (r4 < report_.or_min || r4 > report_.or_max) {
      add_finding(attack_kind::replay_divergence,
                  "log pointer " + hex16(r4) + " outside the OR during feed",
                  pc, ea);
      for (int i = 0; i < width; ++i) {
        const std::uint16_t b = static_cast<std::uint16_t>(ea + i);
        feed_poke(b, 0);
        known_[b] = true;
      }
      return;
    }
    const std::uint16_t slot = log_.word_at(r4);
    for (int i = 0; i < width; ++i) {
      const std::uint16_t b = static_cast<std::uint16_t>(ea + i);
      if (!known_[b]) {
        const std::uint8_t v = static_cast<std::uint8_t>(
            (i == 0) ? (slot & 0xff) : (slot >> 8));
        feed_poke(b, v);
        known_[b] = true;
        if (fx_) fx_->mem_taint[b] = true;  // I-Log-fed: input-derived
      }
    }
  }

  /// Pre-execution feeding: resolve every memory address the instruction is
  /// about to read and make the bytes known.
  void feed_for(const isa::instruction& ins, std::uint16_t pc) {
    using isa::addr_mode;
    using isa::opcode;
    const auto& regs = cpu_.regs();
    auto ea_of = [&](const isa::operand& o)
        -> std::optional<std::uint16_t> {
      switch (o.mode) {
        case addr_mode::indexed:
          return static_cast<std::uint16_t>(regs[o.base] + o.ext);
        case addr_mode::symbolic:
        case addr_mode::absolute:
          return o.ext;
        case addr_mode::indirect:
        case addr_mode::indirect_inc:
          return regs[o.base];
        default:
          return std::nullopt;
      }
    };
    const int width = ins.byte_op ? 1 : 2;

    if (isa::is_jump(ins.op)) return;
    if (ins.op == opcode::reti) {
      feed_unknown(regs[isa::REG_SP], 2, pc);
      feed_unknown(static_cast<std::uint16_t>(regs[isa::REG_SP] + 2), 2, pc);
      return;
    }
    if (isa::is_format2(ins.op)) {
      if (const auto ea = ea_of(ins.dst)) {
        feed_unknown(*ea, ins.op == opcode::call ? 2 : width, pc);
      }
      return;
    }
    if (const auto ea = ea_of(ins.src)) feed_unknown(*ea, width, pc);
    if (ins.op != isa::opcode::mov) {
      if (const auto ea = ea_of(ins.dst)) feed_unknown(*ea, width, pc);
    }
  }

  // ---- OR annotation (forensics) ----
  void annotate_or_write(std::uint16_t addr, std::uint16_t value) {
    const int slot = (report_.or_max - addr) / 2;
    logfmt::entry_kind kind = logfmt::entry_kind::unknown;
    using isa::addr_mode;
    const isa::operand& src = fx_->ins.src;
    if (fx_->ins.op == isa::opcode::mov) {
      if (src.mode == addr_mode::indirect &&
          src.base == isa::REG_SCRATCH) {
        kind = logfmt::entry_kind::data_input;
      } else if (src.mode == addr_mode::absolute ||
                 src.mode == addr_mode::symbolic ||
                 src.mode == addr_mode::indexed) {
        kind = logfmt::entry_kind::data_input;
      } else if (src.mode == addr_mode::reg) {
        if (src.base == isa::REG_SP) {
          kind = logfmt::entry_kind::saved_sp;
        } else if (src.base >= 8) {
          kind = slot >= 1 && slot <= 8 ? logfmt::entry_kind::entry_arg
                                        : logfmt::entry_kind::cf_destination;
        } else {
          kind = logfmt::entry_kind::cf_destination;
        }
      } else if (src.mode == addr_mode::indirect &&
                 src.base == isa::REG_SP) {
        kind = logfmt::entry_kind::cf_destination;  // ret target
      } else if (src.mode == addr_mode::immediate) {
        kind = logfmt::entry_kind::cf_destination;
      }
    }
    // Two-stage byte logging rewrites the same slot (clear, then mov.b):
    // keep the latest classification.
    auto& log = fx_->out.annotated_log;
    if (!log.empty() && log.back().slot == slot) {
      log.back() = {slot, value, kind, current_pc_};
      return;
    }
    log.push_back({slot, value, kind, current_pc_});
  }

  // ---- detectors ----
  void check_site(std::uint16_t pc) {
    const bounds_site* sp = fw_.site_at(pc);
    if (sp == nullptr) return;
    const bounds_site& s = *sp;
    const std::uint16_t ea = reg(15);
    std::uint16_t lo, hi;
    if (s.is_global) {
      lo = s.global_base;
      hi = static_cast<std::uint16_t>(lo + s.size_bytes);
    } else {
      lo = static_cast<std::uint16_t>(reg(isa::REG_SP) + s.local_offset_adj);
      hi = static_cast<std::uint16_t>(lo + s.size_bytes);
    }
    if (ea < lo || ea >= hi) {
      add_finding(attack_kind::data_only_attack,
                  "out-of-bounds access to '" + s.object + "': address " +
                      hex16(ea) + " outside [" + hex16(lo) + ", " +
                      hex16(hi) + ")",
                  pc, ea);
    }
  }

  /// The attested OR must byte-match the replayed memory over the
  /// consumed region [final_r4+2, or_max+1] (none if r4 left the OR
  /// below or_min); compared in place.
  void compare_or(std::uint16_t final_r4) {
    const std::uint32_t top = report_.or_max + 1u;
    for (std::uint32_t a = final_r4 + 2u; a >= report_.or_min && a <= top;
         ++a) {
      const auto addr = static_cast<std::uint16_t>(a);
      if (report_.or_bytes[a - report_.or_min] != mem_.read8(addr)) {
        result_.findings.push_back(
            {attack_kind::replay_divergence,
             "attested OR differs from the replayed OR at " + hex16(addr),
             0, addr});
        return;
      }
    }
  }

  // ---- taint tracking (value provenance; forensics only) ----
  void taint_bytes(std::uint16_t addr, int n, bool t) {
    for (int i = 0; i < n; ++i) {
      fx_->mem_taint[static_cast<std::uint16_t>(addr + i)] = t;
    }
  }
  bool bytes_tainted(std::uint16_t addr, int n) const {
    for (int i = 0; i < n; ++i) {
      if (fx_->mem_taint[static_cast<std::uint16_t>(addr + i)]) return true;
    }
    return false;
  }

  /// Taint of a source operand's value (address-taint of the base register
  /// is included, so attacker-chosen indices taint what they select).
  bool operand_taint(const isa::operand& o, int width) {
    using isa::addr_mode;
    const auto& regs = cpu_.regs();
    switch (o.mode) {
      case addr_mode::reg: return fx_->reg_taint[o.base];
      case addr_mode::immediate: return false;
      case addr_mode::indexed:
        return fx_->reg_taint[o.base] ||
               bytes_tainted(static_cast<std::uint16_t>(regs[o.base] + o.ext),
                             width);
      case addr_mode::symbolic:
      case addr_mode::absolute:
        return bytes_tainted(o.ext, width);
      case addr_mode::indirect:
      case addr_mode::indirect_inc:
        return fx_->reg_taint[o.base] || bytes_tainted(regs[o.base], width);
    }
    return false;
  }

  /// Pre-step taint propagation for the instruction about to execute;
  /// uses the same effective addresses the CPU will use. Also remembers
  /// the instruction for OR annotation.
  void propagate_taint(const isa::instruction& ins) {
    using isa::addr_mode;
    using isa::opcode;
    fx_->ins = ins;
    fx_->write_taint = false;
    const auto& regs = cpu_.regs();
    const int width = ins.byte_op ? 1 : 2;
    auto dst_ea = [&](const isa::operand& o) -> std::optional<std::uint16_t> {
      switch (o.mode) {
        case addr_mode::indexed:
          return static_cast<std::uint16_t>(regs[o.base] + o.ext);
        case addr_mode::symbolic:
        case addr_mode::absolute:
          return o.ext;
        default:
          return std::nullopt;
      }
    };

    if (isa::is_jump(ins.op) || ins.op == opcode::reti) return;

    if (isa::is_format2(ins.op)) {
      if (ins.op == opcode::push) {
        const bool t = operand_taint(ins.dst, width);
        taint_bytes(static_cast<std::uint16_t>(regs[isa::REG_SP] - 2), 2, t);
        fx_->write_taint = t;
      }
      // rra/rrc/swpb/sxt: an in-place transform keeps its own taint.
      return;
    }

    // Format I.
    const bool src_t = operand_taint(ins.src, width);
    const bool dst_t = ins.op != opcode::mov && operand_taint(ins.dst, width);
    const bool result_t = src_t || dst_t;
    if (ins.op == opcode::cmp || ins.op == opcode::bit) return;

    if (ins.dst.mode == addr_mode::reg) {
      fx_->reg_taint[ins.dst.base] = result_t;
    } else if (const auto ea = dst_ea(ins.dst)) {
      taint_bytes(*ea, width, result_t);
      fx_->write_taint = result_t;
    }
  }

  const firmware_artifact& fw_;
  const instr::linked_program& prog_;
  report_view report_;
  const std::vector<std::shared_ptr<policy>>& policies_;
  replay_memory mem_;
  emu::basic_cpu<replay_memory> cpu_;
  replay_state state_;
  logfmt::log_view log_;
  std::bitset<0x10000> known_;
  /// Replayed code overwrote bytes the decode cache covers; decode live
  /// from the bus for the rest of the run.
  bool code_dirty_ = false;
  std::uint16_t saved_sp_ = 0;
  std::uint16_t current_pc_ = 0;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> ra_stack_;
  std::optional<forensic_state> fx_;
  replay_result result_;
};

void replay_memory::write8(std::uint16_t a, std::uint8_t v) {
  store8(a, v);
  hook_.on_write(a, v, true);
}

void replay_memory::write16(std::uint16_t a, std::uint16_t v) {
  a &= 0xfffe;
  store8(a, static_cast<std::uint8_t>(v & 0xff));
  store8(static_cast<std::uint16_t>(a + 1), static_cast<std::uint8_t>(v >> 8));
  hook_.on_write(a, v, false);
}

replay_result replay_engine::run() {
  // ---- setup ----
  mem_.load(prog_.image);
  for (const auto& seg : prog_.image.segments) {
    mark_known(seg.base, static_cast<int>(seg.bytes.size()));
  }

  saved_sp_ = log_.saved_sp();
  auto& regs = cpu_.regs();
  regs[isa::REG_PC] = report_.er_min;
  regs[isa::REG_SP] = saved_sp_;
  regs[isa::REG_LOGPTR] = report_.or_max;
  for (int i = 0; i < 8; ++i) {
    regs[static_cast<std::size_t>(8 + i)] = log_.entry_reg(i);
    if (fx_) fx_->reg_taint[8 + i] = true;  // arguments are attested inputs
  }
  // The caller's pushed return address (which the final `ret` consumes and
  // Tiny-CFA logs): the crt0 continuation after `call #__er_start`.
  const std::uint16_t ret_sentinel = prog_.op_return_addr;
  mem_.poke16(saved_sp_, ret_sentinel);
  mark_code_dirty(saved_sp_, 2);  // adversarial saved SP may alias code
  mark_known(saved_sp_, 2);

  // ---- main loop ----
  for (;;) {
    if (const auto& halt = mem_.halt_code()) {
      if (*halt == emu::HALT_ABORT) {
        add_finding(attack_kind::instrumentation_abort,
                    "replayed instrumentation aborted (F5 check or log "
                    "overflow)",
                    current_pc_);
      } else {
        add_finding(attack_kind::replay_divergence,
                    "replay halted unexpectedly with code " +
                        std::to_string(*halt),
                    current_pc_);
      }
      break;
    }
    const std::uint16_t pc = cpu_.pc();
    if (pc == ret_sentinel) {
      result_.completed = true;
      result_.final_r15 = reg(15);
      result_.final_r4 = reg(isa::REG_LOGPTR);
      if (fx_) fx_->out.result_tainted = fx_->reg_taint[15];
      for (const auto& p : policies_) {
        p->on_finish(state_, result_.findings);
      }
      compare_or(result_.final_r4);
      break;
    }
    if (result_.instructions >= max_replay_instructions) {
      add_finding(attack_kind::replay_divergence,
                  "replay exceeded the instruction budget", pc);
      break;
    }

    check_site(pc);

    try {
      // Decode (for feeding) without executing — through the artifact's
      // predecoded index while the code bytes are pristine, live from the
      // bus once an attack overwrote them or outside the index (identical
      // bytes -> identical decode, so the cache can never change a
      // verdict).
      const isa::decoded* dp = code_dirty_ ? nullptr : fw_.decoded_at(pc);
      isa::decoded live;
      if (dp == nullptr) {
        if (pc > 0xfffa) {
          // The 6-byte fetch window [pc, pc+5] would wrap past 0xffff to
          // 0x0000; the real MCU has no code there (flash tops out below
          // the IVT), so fail closed instead of decoding wrapped bytes.
          add_finding(attack_kind::replay_divergence,
                      "instruction fetch window at " + hex16(pc) +
                          " wraps past the top of memory",
                      pc);
          break;
        }
        std::array<std::uint16_t, 3> words = {
            mem_.peek16(pc), mem_.peek16(static_cast<std::uint16_t>(pc + 2)),
            mem_.peek16(static_cast<std::uint16_t>(pc + 4))};
        live = isa::decode(words, pc);
        dp = &live;
      }
      const isa::decoded& d = *dp;
      current_pc_ = pc;
      feed_for(d.ins, pc);
      if (fx_) propagate_taint(d.ins);

      // Return-address witness: `ret` must pop what the call pushed.
      const bool is_ret = is_ret_instruction(d.ins);
      if (is_ret) {
        const std::uint16_t sp = reg(isa::REG_SP);
        const std::uint16_t actual = mem_.peek16(sp);
        if (!ra_stack_.empty() && ra_stack_.back().first == sp) {
          if (ra_stack_.back().second != actual) {
            add_finding(attack_kind::control_flow_attack,
                        "return address at " + hex16(sp) +
                            " was corrupted: expected " +
                            hex16(ra_stack_.back().second) + ", found " +
                            hex16(actual),
                        pc, sp);
          }
          ra_stack_.pop_back();
        } else if (ra_stack_.empty() && actual != ret_sentinel) {
          add_finding(attack_kind::control_flow_attack,
                      "final return address corrupted to " + hex16(actual),
                      pc, sp);
        }
      }

      if (fx_ && is_ret && !fx_->call_taint_stack.empty()) {
        // Function-level implicit-flow approximation: a call's return
        // value is input-derived if any argument register was (explicit
        // dataflow alone misses loop-steered helpers like __mulhi).
        fx_->reg_taint[15] =
            fx_->reg_taint[15] || fx_->call_taint_stack.back();
        fx_->call_taint_stack.pop_back();
      }

      // Cached decode with the window still pristine -> the instruction
      // bytes cannot have changed since decoding; skip the CPU's
      // re-fetch. Otherwise keep the historical re-fetch inside step():
      // feeding may legally mutate fetchable bytes (an attacker-steered
      // operand landing in the instruction's own ext-word window, or a pc
      // outside the pristine ER), and the device executed the post-feed
      // bytes. code_dirty_ may have been set by THIS iteration's
      // feed_for, so it is re-checked here, not where dp was chosen.
      const auto info =
          (dp == &live || code_dirty_) ? cpu_.step() : cpu_.step(d);
      ++result_.instructions;

      if (info.ins.op == isa::opcode::call && !info.serviced_irq) {
        const std::uint16_t sp = reg(isa::REG_SP);
        ra_stack_.emplace_back(sp, mem_.peek16(sp));
        if (fx_) {
          bool arg_taint = false;
          for (int r = 8; r <= 15; ++r) {
            arg_taint = arg_taint || fx_->reg_taint[r];
          }
          fx_->call_taint_stack.push_back(arg_taint);
        }
      }
    } catch (const error& e) {
      add_finding(attack_kind::replay_divergence,
                  std::string("replay fault: ") + e.what(), pc);
      break;
    }
  }

  return std::move(result_);
}

}  // namespace

replay_result replay_operation(
    const firmware_artifact& fw, const report_view& report,
    const std::vector<std::shared_ptr<policy>>& policies, forensics* fx) {
  replay_result r;
  if (report.or_max == 0xffff || report.er_max > 0xfffa) {
    // Fail closed: the OR snapshot covers
    // [or_min, or_max+1] and a fetch reads [pc, pc+5]; these bounds would
    // wrap past 0xffff. Unreachable through verify() — the artifact
    // constructor rejects such layouts and verify() requires the report's
    // bounds to match the program's — but the pure entry point must not
    // rely on its callers for that.
    r.findings.push_back(
        {attack_kind::bounds_mismatch,
         "attested region abuts the top of the address space", 0,
         report.er_max > 0xfffa ? report.er_max : report.or_max});
    return r;
  }
  if (!check_or_length(report, r.findings)) return r;
  replay_engine engine(fw, report, policies, fx);
  return engine.run();
}

}  // namespace dialed::verifier
