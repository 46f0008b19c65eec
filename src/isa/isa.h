// Complete MSP430 core instruction-set model: the 27 native instructions in
// their three encoding formats, all seven addressing modes, the r2/r3
// constant generators, byte/word variants, instruction encoding/decoding and
// the per-instruction cycle model of the MSP430x1xx family.
//
// This is the shared vocabulary of the assembler (src/masm), the emulator
// (src/emu), the instrumentation passes (src/instr) and the verifier's
// abstract executor (src/verifier).
#ifndef DIALED_ISA_ISA_H
#define DIALED_ISA_ISA_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dialed::isa {

// ---------------------------------------------------------------------------
// Registers
// ---------------------------------------------------------------------------

/// r0..r15. r0=PC, r1=SP, r2=SR/CG1, r3=CG2. DIALED reserves r4 as the log
/// stack pointer R (paper §III-C F5) and this reproduction reserves r5 as
/// instrumentation scratch (see DESIGN.md §3).
enum : std::uint8_t {
  REG_PC = 0,
  REG_SP = 1,
  REG_SR = 2,
  REG_CG2 = 3,
  REG_LOGPTR = 4,   // the paper's dedicated register R
  REG_SCRATCH = 5,  // instrumentation scratch (documented deviation)
};

/// Status-register flag bits.
enum : std::uint16_t {
  SR_C = 1u << 0,
  SR_Z = 1u << 1,
  SR_N = 1u << 2,
  SR_GIE = 1u << 3,
  SR_CPUOFF = 1u << 4,
  SR_V = 1u << 8,
};

/// Printable register name ("pc", "sp", "sr", "r4"...).
std::string reg_name(std::uint8_t r);

// ---------------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------------

enum class opcode : std::uint8_t {
  // Format I (double operand)
  mov, add, addc, subc, sub, cmp, dadd, bit, bic, bis, xor_, and_,
  // Format II (single operand)
  rrc, swpb, rra, sxt, push, call, reti,
  // Format III (relative jumps)
  jne, jeq, jnc, jc, jn, jge, jl, jmp,
};

// Format predicates ride on the enum's contiguous layout; constexpr and
// header-inline because the emulator's dispatch asks them once per
// executed instruction.
constexpr bool is_format1(opcode op) {
  return op >= opcode::mov && op <= opcode::and_;
}
constexpr bool is_format2(opcode op) {
  return op >= opcode::rrc && op <= opcode::reti;
}
constexpr bool is_jump(opcode op) {
  return op >= opcode::jne && op <= opcode::jmp;
}

/// Canonical mnemonic ("mov", "xor", "jne", ...). Never includes ".b".
std::string_view mnemonic(opcode op);

/// Reverse lookup; accepts canonical mnemonics only (no emulated forms —
/// those are resolved by the assembler). Returns nullopt when unknown.
std::optional<opcode> opcode_from_mnemonic(std::string_view m);

// ---------------------------------------------------------------------------
// Addressing modes
// ---------------------------------------------------------------------------

enum class addr_mode : std::uint8_t {
  reg,           ///< Rn
  indexed,       ///< X(Rn)
  symbolic,      ///< ADDR   (PC-relative, encoded as X(PC))
  absolute,      ///< &ADDR  (encoded as X(SR))
  indirect,      ///< @Rn
  indirect_inc,  ///< @Rn+
  immediate,     ///< #N     (encoded as @PC+ or via constant generator)
};

/// True for modes that read (or write) data memory when used as an operand.
/// `immediate` and `reg` do not touch data memory.
bool mode_touches_memory(addr_mode m);

/// True if the mode needs a 16-bit extension word in the instruction stream
/// (constant-generator immediates do not; plain immediates do).
bool mode_needs_ext(addr_mode m);

/// If `value` is representable by the r2/r3 constant generator (0, 1, 2, 4,
/// 8, -1), returns the (reg, as_bits) encoding; otherwise nullopt.
std::optional<std::pair<std::uint8_t, std::uint8_t>> constant_generator(
    std::int32_t value);

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

/// A fully resolved operand. For `indexed` the effective address is
/// `R[base]+ext`; for `absolute`/`symbolic` it is `ext` (symbolic stores the
/// final absolute target; PC-relative displacement is computed at encode
/// time); for `immediate` `ext` is the literal value.
struct operand {
  addr_mode mode = addr_mode::reg;
  std::uint8_t base = 0;
  std::uint16_t ext = 0;

  bool operator==(const operand&) const = default;
};

inline operand reg_op(std::uint8_t r) { return {addr_mode::reg, r, 0}; }
inline operand imm_op(std::uint16_t v) {
  return {addr_mode::immediate, REG_PC, v};
}
inline operand abs_op(std::uint16_t a) {
  return {addr_mode::absolute, REG_SR, a};
}
inline operand idx_op(std::uint8_t r, std::uint16_t x) {
  return {addr_mode::indexed, r, x};
}
inline operand ind_op(std::uint8_t r) { return {addr_mode::indirect, r, 0}; }
inline operand ind_inc_op(std::uint8_t r) {
  return {addr_mode::indirect_inc, r, 0};
}

/// One decoded/encodable instruction.
///
/// Format I uses `src` and `dst`; format II uses only `dst` (reti uses
/// neither); jumps use `target` (absolute byte address of the destination).
struct instruction {
  opcode op = opcode::mov;
  bool byte_op = false;  ///< ".b" suffix
  operand src{};
  operand dst{};
  std::uint16_t target = 0;  ///< jump destination (absolute address)

  bool operator==(const instruction&) const = default;
};

/// Number of 16-bit code words the instruction occupies (1..3).
/// Constant-generator-eligible immediates in `src` count as 0 extension
/// words only when `allow_cg` (the assembler disables CG for symbolic
/// immediates so sizes are stable across passes).
int encoded_words(const instruction& ins, bool allow_cg = true);

/// Encode at byte address `address` (needed for symbolic/jump offsets).
/// Returns 1-3 words. Throws dialed::error for unencodable combinations
/// (e.g. immediate destination, jump out of range).
std::vector<std::uint16_t> encode(const instruction& ins,
                                  std::uint16_t address,
                                  bool allow_cg = true);

/// Result of decoding: the instruction plus its size in words. `cg_src`
/// records that the source immediate came from a constant generator (no
/// extension word; register-mode timing).
struct decoded {
  instruction ins;
  int words = 1;
  bool cg_src = false;
};

/// Why a word sequence does not decode.
enum class decode_error : std::uint8_t {
  none,
  truncated,       ///< the stream ends inside the instruction
  illegal_opcode,  ///< the first word is no MSP430 opcode
  bad_format2,     ///< format-II opcode bits 7 (unassigned)
};

/// The decode rule, without exceptions: decode the instruction starting
/// at `code[0]`, located at byte address `address`, into `out` and return
/// decode_error::none, or return why it does not decode (`out` is then
/// unspecified). Bulk scans over arbitrary words (the verifier's
/// predecode) use this; about a fifth of their slots are extension words.
decode_error try_decode(std::span<const std::uint16_t> code,
                        std::uint16_t address, decoded& out);

/// try_decode, throwing dialed::error on illegal encodings. The message
/// names the failure (replay findings quote it).
decoded decode(std::span<const std::uint16_t> code, std::uint16_t address);

/// Render an instruction as assembly text (for listings / forensics).
std::string to_string(const instruction& ins);

// ---------------------------------------------------------------------------
// Cycle model (MSP430x1xx family user's guide, tables 3-14/3-15/3-16)
// ---------------------------------------------------------------------------

/// CPU cycles consumed by one execution of `ins`. For jumps the cost is the
/// same taken or not (2). `cg_src` marks a source immediate that was encoded
/// via the constant generator (register timing).
int cycles(const instruction& ins, bool cg_src);

/// Cycles charged for taking an interrupt (latency to first ISR instruction).
inline constexpr int interrupt_cycles = 6;

}  // namespace dialed::isa

#endif  // DIALED_ISA_ISA_H
