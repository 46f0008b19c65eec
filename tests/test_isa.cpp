// MSP430 ISA model: encode/decode round-trips over the full opcode ×
// addressing-mode space, constant-generator encodings, and the cycle model.
#include <gtest/gtest.h>

#include "common/error.h"
#include "isa/isa.h"

namespace dialed::isa {
namespace {

std::vector<std::uint16_t> enc(const instruction& ins,
                               std::uint16_t addr = 0xc000,
                               bool cg = true) {
  return encode(ins, addr, cg);
}

decoded dec(const std::vector<std::uint16_t>& words,
            std::uint16_t addr = 0xc000) {
  return decode(words, addr);
}

// ---------------------------------------------------------------------------
// Round-trip: every format-I opcode with representative operand shapes.
// ---------------------------------------------------------------------------

struct rt_case {
  opcode op;
  operand src;
  operand dst;
  bool byte_op;
};

class format1_roundtrip : public ::testing::TestWithParam<rt_case> {};

TEST_P(format1_roundtrip, encode_then_decode_is_identity) {
  const auto& c = GetParam();
  instruction ins;
  ins.op = c.op;
  ins.byte_op = c.byte_op;
  ins.src = c.src;
  ins.dst = c.dst;
  const auto words = enc(ins);
  const auto d = dec(words);
  EXPECT_EQ(d.ins, ins);
  EXPECT_EQ(d.words, static_cast<int>(words.size()));
}

std::vector<rt_case> format1_cases() {
  std::vector<rt_case> out;
  const opcode ops[] = {opcode::mov,  opcode::add, opcode::addc,
                        opcode::subc, opcode::sub, opcode::cmp,
                        opcode::dadd, opcode::bit, opcode::bic,
                        opcode::bis,  opcode::xor_, opcode::and_};
  for (const opcode op : ops) {
    out.push_back({op, reg_op(10), reg_op(11), false});
    out.push_back({op, imm_op(0x1234), reg_op(15), false});
    out.push_back({op, ind_op(12), idx_op(13, 6), false});
    out.push_back({op, ind_inc_op(14), abs_op(0x0200), false});
    out.push_back({op, idx_op(9, 0xfffe), reg_op(7), true});
    out.push_back({op, abs_op(0x0019), reg_op(15), true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(all_ops, format1_roundtrip,
                         ::testing::ValuesIn(format1_cases()));

// ---------------------------------------------------------------------------
// Constant generators
// ---------------------------------------------------------------------------

struct cg_case {
  std::int32_t value;
  int expected_words;
};

class cg_encoding : public ::testing::TestWithParam<cg_case> {};

TEST_P(cg_encoding, immediate_uses_constant_generator_when_possible) {
  const auto& c = GetParam();
  instruction ins;
  ins.op = opcode::mov;
  ins.src = imm_op(static_cast<std::uint16_t>(c.value));
  ins.dst = reg_op(15);
  EXPECT_EQ(encoded_words(ins, true), c.expected_words);
  const auto words = enc(ins);
  EXPECT_EQ(static_cast<int>(words.size()), c.expected_words);
  const auto d = dec(words);
  EXPECT_EQ(d.ins.src.mode, addr_mode::immediate);
  EXPECT_EQ(d.ins.src.ext, static_cast<std::uint16_t>(c.value));
  EXPECT_EQ(d.cg_src, c.expected_words == 1);
}

INSTANTIATE_TEST_SUITE_P(values, cg_encoding,
                         ::testing::Values(cg_case{0, 1}, cg_case{1, 1},
                                           cg_case{2, 1}, cg_case{4, 1},
                                           cg_case{8, 1}, cg_case{-1, 1},
                                           cg_case{3, 2}, cg_case{5, 2},
                                           cg_case{16, 2}, cg_case{0x1234, 2},
                                           cg_case{static_cast<std::int32_t>(
                                                       0xfffe),
                                                   2}));

TEST(cg, disabled_forces_extension_word) {
  instruction ins;
  ins.op = opcode::mov;
  ins.src = imm_op(1);
  ins.dst = reg_op(15);
  EXPECT_EQ(encoded_words(ins, false), 2);
  const auto words = enc(ins, 0xc000, false);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[1], 1);
}

// ---------------------------------------------------------------------------
// Format II and jumps
// ---------------------------------------------------------------------------

TEST(format2, roundtrip_core_ops) {
  for (const opcode op :
       {opcode::rrc, opcode::swpb, opcode::rra, opcode::sxt, opcode::push,
        opcode::call}) {
    instruction ins;
    ins.op = op;
    ins.dst = reg_op(11);
    const auto d = dec(enc(ins));
    EXPECT_EQ(d.ins, ins) << mnemonic(op);
  }
}

TEST(format2, push_immediate) {
  instruction ins;
  ins.op = opcode::push;
  ins.dst = imm_op(0x55aa);
  const auto d = dec(enc(ins));
  EXPECT_EQ(d.ins.dst.mode, addr_mode::immediate);
  EXPECT_EQ(d.ins.dst.ext, 0x55aa);
}

TEST(format2, reti_is_single_word) {
  instruction ins;
  ins.op = opcode::reti;
  const auto words = enc(ins);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0x1300);
  EXPECT_EQ(dec(words).ins.op, opcode::reti);
}

TEST(format2, call_has_no_byte_form) {
  instruction ins;
  ins.op = opcode::call;
  ins.byte_op = true;
  ins.dst = reg_op(10);
  EXPECT_THROW(enc(ins), error);
}

class jump_roundtrip : public ::testing::TestWithParam<opcode> {};

TEST_P(jump_roundtrip, forward_and_backward_targets) {
  for (const int delta : {-1024, -2, 0, 2, 64, 1022}) {
    instruction ins;
    ins.op = GetParam();
    ins.target = static_cast<std::uint16_t>(0xc100 + delta);
    const auto words = encode(ins, 0xc0fe);
    ASSERT_EQ(words.size(), 1u);
    const auto d = decode(words, 0xc0fe);
    EXPECT_EQ(d.ins.op, ins.op);
    EXPECT_EQ(d.ins.target, ins.target) << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(all_jumps, jump_roundtrip,
                         ::testing::Values(opcode::jne, opcode::jeq,
                                           opcode::jnc, opcode::jc,
                                           opcode::jn, opcode::jge,
                                           opcode::jl, opcode::jmp));

TEST(jump, out_of_range_rejected) {
  instruction ins;
  ins.op = opcode::jmp;
  ins.target = 0xd000;  // 4KB away
  EXPECT_THROW(encode(ins, 0xc000), error);
}

TEST(jump, odd_offset_rejected) {
  instruction ins;
  ins.op = opcode::jmp;
  ins.target = 0xc003;
  EXPECT_THROW(encode(ins, 0xc000), error);
}

// ---------------------------------------------------------------------------
// Symbolic (PC-relative) mode
// ---------------------------------------------------------------------------

TEST(symbolic, roundtrip_preserves_absolute_target) {
  instruction ins;
  ins.op = opcode::mov;
  ins.src = {addr_mode::symbolic, REG_PC, 0xd234};
  ins.dst = reg_op(15);
  const auto words = enc(ins, 0xc000);
  const auto d = decode(words, 0xc000);
  EXPECT_EQ(d.ins.src.mode, addr_mode::symbolic);
  EXPECT_EQ(d.ins.src.ext, 0xd234);
}

// ---------------------------------------------------------------------------
// Cycle model (SLAU049 tables)
// ---------------------------------------------------------------------------

struct cycle_case {
  instruction ins;
  bool cg;
  int expected;
};

class cycle_model : public ::testing::TestWithParam<cycle_case> {};

TEST_P(cycle_model, matches_family_guide) {
  const auto& c = GetParam();
  EXPECT_EQ(cycles(c.ins, c.cg), c.expected);
}

instruction f1(opcode op, operand s, operand d) {
  instruction i;
  i.op = op;
  i.src = s;
  i.dst = d;
  return i;
}
instruction f2(opcode op, operand d) {
  instruction i;
  i.op = op;
  i.dst = d;
  return i;
}
instruction jmp_ins() {
  instruction i;
  i.op = opcode::jmp;
  i.target = 0xc000;
  return i;
}

INSTANTIATE_TEST_SUITE_P(
    slau049, cycle_model,
    ::testing::Values(
        // Format I
        cycle_case{f1(opcode::mov, reg_op(4), reg_op(5)), false, 1},
        cycle_case{f1(opcode::mov, reg_op(4), reg_op(REG_PC)), false, 2},
        cycle_case{f1(opcode::mov, imm_op(100), reg_op(5)), false, 2},
        cycle_case{f1(opcode::mov, imm_op(1), reg_op(5)), true, 1},
        cycle_case{f1(opcode::mov, ind_op(4), reg_op(5)), false, 2},
        cycle_case{f1(opcode::mov, ind_inc_op(4), reg_op(REG_PC)), false, 3},
        cycle_case{f1(opcode::mov, idx_op(4, 2), reg_op(5)), false, 3},
        cycle_case{f1(opcode::mov, reg_op(4), idx_op(5, 2)), false, 4},
        cycle_case{f1(opcode::add, ind_op(4), idx_op(5, 2)), false, 5},
        cycle_case{f1(opcode::add, idx_op(4, 2), idx_op(5, 4)), false, 6},
        cycle_case{f1(opcode::add, abs_op(0x200), abs_op(0x202)), false, 6},
        cycle_case{f1(opcode::mov, imm_op(100), idx_op(5, 2)), false, 5},
        // RET == mov @sp+, pc
        cycle_case{f1(opcode::mov, ind_inc_op(REG_SP), reg_op(REG_PC)),
                   false, 3},
        // Format II
        cycle_case{f2(opcode::rra, reg_op(5)), false, 1},
        cycle_case{f2(opcode::rra, ind_op(5)), false, 3},
        cycle_case{f2(opcode::rra, idx_op(5, 2)), false, 4},
        cycle_case{f2(opcode::push, reg_op(5)), false, 3},
        cycle_case{f2(opcode::push, imm_op(100)), false, 4},
        cycle_case{f2(opcode::call, reg_op(5)), false, 4},
        cycle_case{f2(opcode::call, imm_op(0xc000)), false, 5},
        // Jumps: always 2
        cycle_case{jmp_ins(), false, 2}));

TEST(cycles, reti_is_five) {
  instruction i;
  i.op = opcode::reti;
  EXPECT_EQ(cycles(i, false), 5);
}

// ---------------------------------------------------------------------------
// Misc
// ---------------------------------------------------------------------------

TEST(mnemonics, lookup_both_ways) {
  EXPECT_EQ(mnemonic(opcode::xor_), "xor");
  EXPECT_EQ(opcode_from_mnemonic("xor"), opcode::xor_);
  EXPECT_EQ(opcode_from_mnemonic("jz"), opcode::jeq);
  EXPECT_EQ(opcode_from_mnemonic("jlo"), opcode::jnc);
  EXPECT_EQ(opcode_from_mnemonic("jhs"), opcode::jc);
  EXPECT_EQ(opcode_from_mnemonic("nonsense"), std::nullopt);
}

TEST(decode, rejects_illegal_opcode_word) {
  const std::vector<std::uint16_t> words = {0x0000};
  EXPECT_THROW(decode(words, 0xc000), error);
}

TEST(decode, rejects_truncated_stream) {
  // mov #imm, r15 needs an extension word.
  instruction ins;
  ins.op = opcode::mov;
  ins.src = imm_op(0x1234);
  ins.dst = reg_op(15);
  auto words = enc(ins);
  words.pop_back();
  EXPECT_THROW(decode(words, 0xc000), error);
}

std::string decode_message(std::span<const std::uint16_t> words) {
  try {
    (void)decode(words, 0xc000);
  } catch (const error& e) {
    return e.what();
  }
  return "";
}

decode_error try_decode_error(std::span<const std::uint16_t> words) {
  decoded out;
  return try_decode(words, 0xc000, out);
}

TEST(decode, errors_are_typed_and_messages_name_them) {
  // try_decode reports the kind; decode throws the text replay findings
  // quote.
  EXPECT_EQ(try_decode_error({}), decode_error::truncated);
  EXPECT_EQ(decode_message({}), "isa: truncated instruction stream");
  const std::array<std::uint16_t, 1> illegal = {0x0123};
  EXPECT_EQ(try_decode_error(illegal), decode_error::illegal_opcode);
  EXPECT_EQ(decode_message(illegal),
            "isa: illegal opcode word 0x0123 at 0xc000");
  const std::array<std::uint16_t, 1> format2 = {0x1380};
  EXPECT_EQ(try_decode_error(format2), decode_error::bad_format2);
  EXPECT_EQ(decode_message(format2), "isa: bad format-II opcode bits");
  const std::array<std::uint16_t, 1> needs_ext = {0x4030};  // mov #N, pc
  EXPECT_EQ(try_decode_error(needs_ext), decode_error::truncated);
  EXPECT_EQ(decode_message(needs_ext), "isa: truncated instruction stream");
  const std::array<std::uint16_t, 2> whole = {0x4030, 0xc000};
  EXPECT_EQ(try_decode_error(whole), decode_error::none);
  EXPECT_EQ(decode_message(whole), "");
}

TEST(to_string, renders_readably) {
  instruction ins;
  ins.op = opcode::mov;
  ins.byte_op = true;
  ins.src = ind_op(15);
  ins.dst = reg_op(14);
  EXPECT_EQ(to_string(ins), "mov.b @r15, r14");
}

TEST(modes, memory_touch_classification) {
  EXPECT_FALSE(mode_touches_memory(addr_mode::reg));
  EXPECT_FALSE(mode_touches_memory(addr_mode::immediate));
  EXPECT_TRUE(mode_touches_memory(addr_mode::indexed));
  EXPECT_TRUE(mode_touches_memory(addr_mode::absolute));
  EXPECT_TRUE(mode_touches_memory(addr_mode::indirect));
  EXPECT_TRUE(mode_touches_memory(addr_mode::indirect_inc));
}

}  // namespace
}  // namespace dialed::isa
