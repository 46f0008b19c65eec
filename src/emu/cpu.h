// MSP430 CPU core: fetch/decode/execute with full flag semantics, interrupt
// servicing and the SLAU049 cycle model — the one definition of the ISA,
// a template over the memory it runs on:
//
//  * `cpu` = basic_cpu<bus>: the device. Data accesses go through the bus
//    observers so the rot monitors see exactly what hardware would.
//  * the verifier's replay runs the same core over its own flat memory
//    (src/verifier/replay.cpp).
//
// `Mem` provides read8/read16/write8/write16 (data accesses; word
// accesses ignore the address's low bit), peek16 (fetch and vectors),
// map(), and notify_exec/notify_irq/notify_reset.
#ifndef DIALED_EMU_CPU_H
#define DIALED_EMU_CPU_H

#include <array>
#include <cstdint>
#include <optional>

#include "common/error.h"
#include "emu/bus.h"
#include "isa/isa.h"

namespace dialed::emu {

template <class Mem>
class basic_cpu {
 public:
  explicit basic_cpu(Mem& m) : mem_(m) {}

  /// Load PC from the reset vector; clears registers and the cycle count.
  void reset() {
    regs_.fill(0);
    cycles_ = 0;
    pending_irq_.reset();
    regs_[isa::REG_PC] = mem_.peek16(mem_.map().reset_vector);
    mem_.notify_reset();
  }

  struct step_info {
    std::uint16_t pc = 0;       ///< address of the executed instruction
    isa::instruction ins{};     ///< decoded instruction (undefined for irq)
    int cycles = 0;
    bool serviced_irq = false;  ///< this step took an interrupt instead
  };

  /// Service a pending interrupt (if GIE) or execute one instruction.
  step_info step() { return step_impl(nullptr); }

  /// Same as step(), but `pre` must be the decode of the bytes currently at
  /// PC — the caller already decoded them (e.g. from a firmware artifact's
  /// instruction index) and the fetch/decode is skipped. A pending
  /// interrupt still preempts the instruction exactly as in step().
  step_info step(const isa::decoded& pre) { return step_impl(&pre); }

  std::array<std::uint16_t, 16>& regs() { return regs_; }
  const std::array<std::uint16_t, 16>& regs() const { return regs_; }
  std::uint16_t pc() const { return regs_[isa::REG_PC]; }
  void set_pc(std::uint16_t v) { regs_[isa::REG_PC] = v; }
  std::uint64_t cycles() const { return cycles_; }

  /// Charge extra cycles (used by the native SW-Att model to account for
  /// the cost the routine would have on the real MCU).
  void add_cycles(std::uint64_t n) { cycles_ += n; }

  /// Assert interrupt `index` (vector at ivt_start + 2*index). It is
  /// serviced before the next instruction if GIE is set, otherwise it stays
  /// pending.
  void request_interrupt(int index) { pending_irq_ = index; }

 private:
  using addr_mode = isa::addr_mode;
  using opcode = isa::opcode;

  struct operand_ref {
    bool is_reg = true;
    std::uint8_t reg = 0;
    std::uint16_t addr = 0;
  };

  step_info step_impl(const isa::decoded* pre) {
    // Interrupt servicing (before fetching the next instruction).
    if (pending_irq_ && flag(isa::SR_GIE)) {
      const int index = *pending_irq_;
      pending_irq_.reset();
      const std::uint16_t vector_addr =
          static_cast<std::uint16_t>(mem_.map().ivt_start + 2 * index);
      const std::uint16_t isr = mem_.peek16(vector_addr);
      push_word(regs_[isa::REG_PC]);
      push_word(regs_[isa::REG_SR]);
      set_flag(isa::SR_GIE, false);
      regs_[isa::REG_PC] = isr;
      cycles_ += isa::interrupt_cycles;
      mem_.notify_irq(vector_addr);
      return {isr, {}, isa::interrupt_cycles, true};
    }

    const std::uint16_t pc = regs_[isa::REG_PC];
    isa::decoded local;
    if (pre == nullptr) {
      std::array<std::uint16_t, 3> words = {
          mem_.peek16(pc), mem_.peek16(static_cast<std::uint16_t>(pc + 2)),
          mem_.peek16(static_cast<std::uint16_t>(pc + 4))};
      local = isa::decode(words, pc);
      pre = &local;
    }
    regs_[isa::REG_PC] = static_cast<std::uint16_t>(pc + 2 * pre->words);
    mem_.notify_exec(pc, pre->ins);
    execute(pre->ins);
    const int cyc = isa::cycles(pre->ins, pre->cg_src);
    cycles_ += cyc;
    return {pc, pre->ins, cyc, false};
  }

  std::uint16_t read_operand(const isa::operand& op, bool byte,
                             operand_ref* ref) {
    switch (op.mode) {
      case addr_mode::reg: {
        if (ref) *ref = {true, op.base, 0};
        const std::uint16_t v = regs_[op.base];
        return byte ? static_cast<std::uint16_t>(v & 0xff) : v;
      }
      case addr_mode::immediate:
        if (ref) *ref = {true, op.base, 0};  // immediates are never written
        return byte ? static_cast<std::uint16_t>(op.ext & 0xff) : op.ext;
      case addr_mode::indexed: {
        const std::uint16_t a =
            static_cast<std::uint16_t>(regs_[op.base] + op.ext);
        if (ref) *ref = {false, 0, a};
        return byte ? mem_.read8(a) : mem_.read16(a);
      }
      case addr_mode::symbolic:
      case addr_mode::absolute: {
        const std::uint16_t a = op.ext;
        if (ref) *ref = {false, 0, a};
        return byte ? mem_.read8(a) : mem_.read16(a);
      }
      case addr_mode::indirect: {
        const std::uint16_t a = regs_[op.base];
        if (ref) *ref = {false, 0, a};
        return byte ? mem_.read8(a) : mem_.read16(a);
      }
      case addr_mode::indirect_inc: {
        const std::uint16_t a = regs_[op.base];
        if (ref) *ref = {false, 0, a};
        const std::uint16_t v = byte ? mem_.read8(a) : mem_.read16(a);
        regs_[op.base] = static_cast<std::uint16_t>(a + (byte ? 1 : 2));
        return v;
      }
    }
    throw error("emu: bad source addressing mode");
  }

  std::uint16_t read_ref(const operand_ref& ref, bool byte) {
    if (ref.is_reg) {
      const std::uint16_t v = regs_[ref.reg];
      return byte ? static_cast<std::uint16_t>(v & 0xff) : v;
    }
    return byte ? mem_.read8(ref.addr) : mem_.read16(ref.addr);
  }

  void write_ref(const operand_ref& ref, std::uint16_t value, bool byte) {
    if (ref.is_reg) {
      // Byte writes to a register clear the high byte (MSP430 semantics).
      regs_[ref.reg] = byte ? static_cast<std::uint16_t>(value & 0xff) : value;
      return;
    }
    if (byte) {
      mem_.write8(ref.addr, static_cast<std::uint8_t>(value & 0xff));
    } else {
      mem_.write16(ref.addr, value);
    }
  }

  // Execution is direct-threaded: a 27-entry table maps opcode -> handler,
  // replacing the old is_jump/is_format2/format-I branch chain. decode()
  // only ever yields the 27 enumerators, so the table index is total.
  using exec_fn = void (basic_cpu::*)(const isa::instruction&);
  static const std::array<exec_fn, 27> exec_table_;
  void execute(const isa::instruction& ins) {
    (this->*exec_table_[static_cast<std::uint8_t>(ins.op)])(ins);
  }

  void exec_jump(const isa::instruction& ins) {
    bool taken = false;
    const bool n = flag(isa::SR_N), z = flag(isa::SR_Z), c = flag(isa::SR_C),
               v = flag(isa::SR_V);
    switch (ins.op) {
      case opcode::jne: taken = !z; break;
      case opcode::jeq: taken = z; break;
      case opcode::jnc: taken = !c; break;
      case opcode::jc: taken = c; break;
      case opcode::jn: taken = n; break;
      case opcode::jge: taken = !(n ^ v); break;
      case opcode::jl: taken = (n ^ v); break;
      case opcode::jmp: taken = true; break;
      default: throw error("emu: bad jump");
    }
    if (taken) regs_[isa::REG_PC] = ins.target;
  }

  void exec_reti(const isa::instruction&) {
    regs_[isa::REG_SR] = pop_word();
    regs_[isa::REG_PC] = pop_word();
  }

  void exec_format2(const isa::instruction& ins) {
    const bool byte = ins.byte_op;
    const std::uint32_t mask = mask_of(byte);
    const std::uint32_t sign = sign_of(byte);
    {
      operand_ref ref{};
      const std::uint16_t v16 = read_operand(ins.dst, byte, &ref);
      const std::uint32_t v = v16 & mask;
      switch (ins.op) {
        case opcode::rra: {
          const std::uint32_t res =
              ((v >> 1) | (v & sign)) & mask;  // keep sign bit
          set_flag(isa::SR_C, (v & 1) != 0);
          set_nz(static_cast<std::uint16_t>(res), byte);
          set_flag(isa::SR_V, false);
          write_ref(ref, static_cast<std::uint16_t>(res), byte);
          break;
        }
        case opcode::rrc: {
          const bool old_c = flag(isa::SR_C);
          const std::uint32_t res =
              ((v >> 1) | (old_c ? sign : 0)) & mask;
          set_flag(isa::SR_C, (v & 1) != 0);
          set_nz(static_cast<std::uint16_t>(res), byte);
          set_flag(isa::SR_V, false);
          write_ref(ref, static_cast<std::uint16_t>(res), byte);
          break;
        }
        case opcode::swpb: {
          const std::uint16_t res = static_cast<std::uint16_t>(
              ((v16 & 0xff) << 8) | ((v16 >> 8) & 0xff));
          write_ref(ref, res, false);
          break;
        }
        case opcode::sxt: {
          const std::uint16_t res =
              (v16 & 0x80) ? static_cast<std::uint16_t>(v16 | 0xff00)
                           : static_cast<std::uint16_t>(v16 & 0x00ff);
          set_nz(res, false);
          set_flag(isa::SR_C, res != 0);
          set_flag(isa::SR_V, false);
          write_ref(ref, res, false);
          break;
        }
        case opcode::push:
          push_word(byte ? static_cast<std::uint16_t>(v) : v16);
          break;
        case opcode::call: {
          push_word(regs_[isa::REG_PC]);
          regs_[isa::REG_PC] = v16;
          break;
        }
        default:
          throw error("emu: unhandled format-II opcode");
      }
    }
  }

  void exec_format1(const isa::instruction& ins) {
    const bool byte = ins.byte_op;
    const std::uint32_t mask = mask_of(byte);
    const std::uint32_t sign = sign_of(byte);
    const std::uint16_t src16 = read_operand(ins.src, byte, nullptr);
    operand_ref dref{};
    std::uint16_t dst16 = 0;
    const bool reads_dst = ins.op != opcode::mov;
    if (reads_dst) {
      dst16 = read_operand(ins.dst, byte, &dref);
    } else {
      // Resolve the destination without reading it.
      switch (ins.dst.mode) {
        case addr_mode::reg: dref = {true, ins.dst.base, 0}; break;
        case addr_mode::indexed:
          dref = {false, 0,
                  static_cast<std::uint16_t>(regs_[ins.dst.base] +
                                             ins.dst.ext)};
          break;
        case addr_mode::symbolic:
        case addr_mode::absolute: dref = {false, 0, ins.dst.ext}; break;
        default: throw error("emu: illegal destination mode");
      }
    }

    const std::uint32_t s = src16 & mask;
    const std::uint32_t d = dst16 & mask;
    bool writeback = true;
    std::uint32_t res = 0;

    switch (ins.op) {
      case opcode::mov:
        res = s;
        break;
      case opcode::add:
      case opcode::addc: {
        const std::uint32_t cin =
            (ins.op == opcode::addc && flag(isa::SR_C)) ? 1 : 0;
        const std::uint32_t full = d + s + cin;
        res = full & mask;
        set_flag(isa::SR_C, full > mask);
        set_flag(isa::SR_V, ((d ^ res) & (s ^ res) & sign) != 0);
        set_nz(static_cast<std::uint16_t>(res), byte);
        break;
      }
      case opcode::sub:
      case opcode::subc:
      case opcode::cmp: {
        const std::uint32_t cin =
            (ins.op == opcode::subc) ? (flag(isa::SR_C) ? 1 : 0) : 1;
        const std::uint32_t full = d + ((~s) & mask) + cin;
        res = full & mask;
        set_flag(isa::SR_C, full > mask);  // carry = no borrow
        set_flag(isa::SR_V, ((d ^ s) & (d ^ res) & sign) != 0);
        set_nz(static_cast<std::uint16_t>(res), byte);
        writeback = ins.op != opcode::cmp;
        break;
      }
      case opcode::dadd: {
        std::uint32_t carry = flag(isa::SR_C) ? 1 : 0;
        std::uint32_t out = 0;
        const int nibbles = byte ? 2 : 4;
        for (int i = 0; i < nibbles; ++i) {
          std::uint32_t t = ((d >> (4 * i)) & 0xf) + ((s >> (4 * i)) & 0xf) +
                            carry;
          if (t > 9) {
            t += 6;
            carry = 1;
          } else {
            carry = 0;
          }
          out |= (t & 0xf) << (4 * i);
        }
        res = out & mask;
        set_flag(isa::SR_C, carry != 0);
        set_nz(static_cast<std::uint16_t>(res), byte);
        break;
      }
      case opcode::bit:
      case opcode::and_: {
        res = d & s;
        set_nz(static_cast<std::uint16_t>(res), byte);
        set_flag(isa::SR_C, res != 0);
        set_flag(isa::SR_V, false);
        writeback = ins.op == opcode::and_;
        break;
      }
      case opcode::bic:
        res = d & ~s & mask;
        break;
      case opcode::bis:
        res = d | s;
        break;
      case opcode::xor_: {
        res = (d ^ s) & mask;
        set_nz(static_cast<std::uint16_t>(res), byte);
        set_flag(isa::SR_C, res != 0);
        set_flag(isa::SR_V, (d & sign) != 0 && (s & sign) != 0);
        break;
      }
      default:
        throw error("emu: unhandled format-I opcode");
    }

    if (writeback) {
      write_ref(dref, static_cast<std::uint16_t>(res), byte);
    }
  }

  static constexpr std::uint32_t mask_of(bool byte) {
    return byte ? 0xffu : 0xffffu;
  }
  static constexpr std::uint32_t sign_of(bool byte) {
    return byte ? 0x80u : 0x8000u;
  }

  // Flag helpers (operate on regs_[SR]).
  bool flag(std::uint16_t bit) const { return (regs_[isa::REG_SR] & bit) != 0; }
  void set_flag(std::uint16_t bit, bool v) {
    if (v) {
      regs_[isa::REG_SR] |= bit;
    } else {
      regs_[isa::REG_SR] &= static_cast<std::uint16_t>(~bit);
    }
  }
  void set_nz(std::uint16_t result, bool byte) {
    const std::uint16_t sign = byte ? 0x80 : 0x8000;
    set_flag(isa::SR_N, (result & sign) != 0);
    set_flag(isa::SR_Z, (byte ? (result & 0xff) : result) == 0);
  }

  void push_word(std::uint16_t v) {
    regs_[isa::REG_SP] = static_cast<std::uint16_t>(regs_[isa::REG_SP] - 2);
    mem_.write16(regs_[isa::REG_SP], v);
  }

  std::uint16_t pop_word() {
    const std::uint16_t v = mem_.read16(regs_[isa::REG_SP]);
    regs_[isa::REG_SP] = static_cast<std::uint16_t>(regs_[isa::REG_SP] + 2);
    return v;
  }

  Mem& mem_;
  std::array<std::uint16_t, 16> regs_{};
  std::uint64_t cycles_ = 0;
  std::optional<int> pending_irq_;
};

// Dispatch table in enum order: 12 format-I entries, rrc..call, reti,
// then the 8 jumps. Kept next to the handlers so a reordering of
// isa::opcode is caught by the static_asserts below.
template <class Mem>
const std::array<typename basic_cpu<Mem>::exec_fn, 27>
    basic_cpu<Mem>::exec_table_ = {
        // Format I: mov..and_
        &basic_cpu::exec_format1, &basic_cpu::exec_format1,
        &basic_cpu::exec_format1, &basic_cpu::exec_format1,
        &basic_cpu::exec_format1, &basic_cpu::exec_format1,
        &basic_cpu::exec_format1, &basic_cpu::exec_format1,
        &basic_cpu::exec_format1, &basic_cpu::exec_format1,
        &basic_cpu::exec_format1, &basic_cpu::exec_format1,
        // Format II: rrc, swpb, rra, sxt, push, call
        &basic_cpu::exec_format2, &basic_cpu::exec_format2,
        &basic_cpu::exec_format2, &basic_cpu::exec_format2,
        &basic_cpu::exec_format2, &basic_cpu::exec_format2,
        // reti
        &basic_cpu::exec_reti,
        // Jumps: jne..jmp
        &basic_cpu::exec_jump, &basic_cpu::exec_jump, &basic_cpu::exec_jump,
        &basic_cpu::exec_jump, &basic_cpu::exec_jump, &basic_cpu::exec_jump,
        &basic_cpu::exec_jump, &basic_cpu::exec_jump,
};
static_assert(static_cast<int>(isa::opcode::mov) == 0);
static_assert(static_cast<int>(isa::opcode::and_) == 11);
static_assert(static_cast<int>(isa::opcode::reti) == 18);
static_assert(static_cast<int>(isa::opcode::jmp) == 26);

/// The device's core, over the observed bus; instantiated once, in cpu.cpp.
using cpu = basic_cpu<bus>;
extern template class basic_cpu<bus>;

}  // namespace dialed::emu

#endif  // DIALED_EMU_CPU_H
