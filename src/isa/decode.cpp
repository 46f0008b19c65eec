#include "common/bytes.h"
#include "common/error.h"
#include "isa/isa.h"

namespace dialed::isa {

namespace {

struct src_decode {
  operand op;
  bool uses_ext = false;
  bool cg = false;
};

// Decode a source-style (As) operand; `ext` is the candidate extension word
// and `ext_addr` its byte address (for symbolic mode).
src_decode decode_src(std::uint8_t reg, std::uint8_t as, std::uint16_t ext,
                      std::uint16_t ext_addr) {
  // Constant generators first.
  if (reg == REG_CG2) {
    switch (as) {
      case 0: return {imm_op(0), false, true};
      case 1: return {imm_op(1), false, true};
      case 2: return {imm_op(2), false, true};
      case 3: return {imm_op(0xffff), false, true};
    }
  }
  if (reg == REG_SR && as >= 2) {
    return {imm_op(as == 2 ? 4 : 8), false, true};
  }
  switch (as) {
    case 0: return {reg_op(reg), false, false};
    case 1:
      if (reg == REG_PC) {
        return {{addr_mode::symbolic, REG_PC,
                 static_cast<std::uint16_t>(ext + ext_addr)},
                true, false};
      }
      if (reg == REG_SR) return {abs_op(ext), true, false};
      return {idx_op(reg, ext), true, false};
    case 2: return {ind_op(reg), false, false};
    default:  // As = 3
      if (reg == REG_PC) return {imm_op(ext), true, false};
      return {ind_inc_op(reg), false, false};
  }
}

operand decode_dst(std::uint8_t reg, std::uint8_t ad, std::uint16_t ext,
                   std::uint16_t ext_addr, bool* uses_ext) {
  if (ad == 0) {
    *uses_ext = false;
    return reg_op(reg);
  }
  *uses_ext = true;
  if (reg == REG_PC) {
    return {addr_mode::symbolic, REG_PC,
            static_cast<std::uint16_t>(ext + ext_addr)};
  }
  if (reg == REG_SR) return abs_op(ext);
  return idx_op(reg, ext);
}

/// Speculative read of a possible extension word; strictness is enforced
/// after decoding determines whether the word is actually consumed.
std::uint16_t word_or_zero(std::span<const std::uint16_t> code,
                           std::size_t i) {
  return i < code.size() ? code[i] : 0;
}

/// The decode rule, filling a fresh `out`. Forced inline into both entry
/// points: decode() sits on the emulator's per-instruction path, where an
/// out-of-line call to the core cost ~10 ns per instruction.
[[gnu::always_inline]] inline decode_error decode_core(
    std::span<const std::uint16_t> code, std::uint16_t address,
    decoded& out) {
  if (code.empty()) return decode_error::truncated;
  const std::uint16_t w = code[0];

  // The opcode tables ride on the enum's layout: jne..jmp follow the
  // 3-bit jump condition, rrc..reti the format-II bits and mov..and_ the
  // format-I nibbles 4..f.
  static_assert(static_cast<int>(opcode::jmp) -
                    static_cast<int>(opcode::jne) == 7);
  static_assert(static_cast<int>(opcode::reti) -
                    static_cast<int>(opcode::rrc) == 6);
  static_assert(static_cast<int>(opcode::and_) -
                    static_cast<int>(opcode::mov) == 0xf - 0x4);
  if ((w & 0xe000) == 0x2000) {
    std::int16_t off = static_cast<std::int16_t>(w & 0x3ff);
    if (off & 0x200) off -= 0x400;  // sign-extend 10 bits
    out.ins.op = static_cast<opcode>(static_cast<int>(opcode::jne) +
                                     ((w >> 10) & 7));
    out.ins.target =
        static_cast<std::uint16_t>(address + 2 + 2 * off);
    out.words = 1;
    return decode_error::none;
  }

  if ((w & 0xfc00) == 0x1000) {
    const int bits = (w >> 7) & 7;
    if (bits == 7) return decode_error::bad_format2;
    const auto op =
        static_cast<opcode>(static_cast<int>(opcode::rrc) + bits);
    out.ins.op = op;
    if (op == opcode::reti) {
      out.words = 1;
      return decode_error::none;
    }
    out.ins.byte_op = (w & 0x40) != 0;
    const auto sd =
        decode_src(w & 0xf, (w >> 4) & 3, word_or_zero(code, 1),
                   static_cast<std::uint16_t>(address + 2));
    if (sd.uses_ext && code.size() < 2) return decode_error::truncated;
    out.ins.dst = sd.op;
    out.words = sd.uses_ext ? 2 : 1;
    // cycles() needs to know whether a CG was used; expose via cg flag.
    out.cg_src = sd.cg;
    return decode_error::none;
  }

  const int nibble = w >> 12;
  if (nibble < 0x4) return decode_error::illegal_opcode;
  out.ins.op =
      static_cast<opcode>(static_cast<int>(opcode::mov) + nibble - 0x4);
  out.ins.byte_op = (w & 0x40) != 0;
  const auto sd =
      decode_src((w >> 8) & 0xf, (w >> 4) & 3, word_or_zero(code, 1),
                 static_cast<std::uint16_t>(address + 2));
  if (sd.uses_ext && code.size() < 2) return decode_error::truncated;
  out.ins.src = sd.op;
  out.cg_src = sd.cg;
  int words = 1 + (sd.uses_ext ? 1 : 0);
  const bool dst_has_ext = ((w >> 7) & 1) != 0;
  if (dst_has_ext && code.size() <= static_cast<std::size_t>(words)) {
    return decode_error::truncated;
  }
  const std::uint16_t dst_ext_word =
      dst_has_ext ? code[static_cast<std::size_t>(words)] : 0;
  bool dst_ext = false;
  out.ins.dst =
      decode_dst(w & 0xf, (w >> 7) & 1, dst_ext_word,
                 static_cast<std::uint16_t>(address + 2 * words), &dst_ext);
  if (dst_ext) ++words;
  out.words = words;
  return decode_error::none;
}

/// The throw, kept out of line so decode()'s success path stays small.
[[noreturn, gnu::noinline]] void throw_decode_error(
    decode_error e, std::span<const std::uint16_t> code,
    std::uint16_t address) {
  switch (e) {
    case decode_error::illegal_opcode:
      throw error("isa: illegal opcode word " + hex16(code[0]) + " at " +
                  hex16(address));
    case decode_error::bad_format2:
      throw error("isa: bad format-II opcode bits");
    case decode_error::truncated:
    case decode_error::none:
      break;
  }
  throw error("isa: truncated instruction stream");
}

}  // namespace

decode_error try_decode(std::span<const std::uint16_t> code,
                        std::uint16_t address, decoded& out) {
  out = decoded{};
  return decode_core(code, address, out);
}

decoded decode(std::span<const std::uint16_t> code, std::uint16_t address) {
  decoded out;
  const decode_error e = decode_core(code, address, out);
  if (e != decode_error::none) throw_decode_error(e, code, address);
  return out;
}

}  // namespace dialed::isa
