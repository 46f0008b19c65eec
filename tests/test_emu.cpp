// CPU core semantics (flags, addressing modes, byte ops, control transfer,
// interrupts) and the peripherals, exercised through small assembly
// programs run on the machine.
#include <gtest/gtest.h>

#include "helpers.h"

namespace dialed::emu {
namespace {

using test::run_asm;

std::uint16_t reg_after(const std::string& body, int reg) {
  auto m = run_asm(body + "        mov #1, &HALT_PORT\n");
  EXPECT_TRUE(m->halted());
  return m->get_cpu().regs()[static_cast<std::size_t>(reg)];
}

std::uint16_t sr_after(const std::string& body) {
  return reg_after(body, isa::REG_SR);
}

// ---------------------------------------------------------------------------
// Arithmetic flags
// ---------------------------------------------------------------------------

TEST(flags, add_carry_and_zero) {
  const auto sr = sr_after(
      "        mov #0xffff, r15\n"
      "        add #1, r15\n");
  EXPECT_TRUE(sr & isa::SR_C);
  EXPECT_TRUE(sr & isa::SR_Z);
  EXPECT_FALSE(sr & isa::SR_N);
  EXPECT_FALSE(sr & isa::SR_V);
}

TEST(flags, add_signed_overflow) {
  const auto sr = sr_after(
      "        mov #0x7fff, r15\n"
      "        add #1, r15\n");
  EXPECT_TRUE(sr & isa::SR_V);
  EXPECT_TRUE(sr & isa::SR_N);
  EXPECT_FALSE(sr & isa::SR_C);
}

TEST(flags, sub_borrow_clears_carry) {
  // 3 - 5: borrow -> C=0, negative result.
  const auto sr = sr_after(
      "        mov #3, r15\n"
      "        sub #5, r15\n");
  EXPECT_FALSE(sr & isa::SR_C);
  EXPECT_TRUE(sr & isa::SR_N);
}

TEST(flags, sub_no_borrow_sets_carry) {
  const auto sr = sr_after(
      "        mov #5, r15\n"
      "        sub #3, r15\n");
  EXPECT_TRUE(sr & isa::SR_C);
  EXPECT_FALSE(sr & isa::SR_N);
}

TEST(flags, cmp_does_not_write_destination) {
  EXPECT_EQ(reg_after("        mov #7, r15\n"
                      "        cmp #3, r15\n",
                      15),
            7);
}

TEST(flags, mov_preserves_flags) {
  const auto sr = sr_after(
      "        mov #0, r15\n"
      "        add #0, r15\n"  // sets Z
      "        mov #5, r14\n");
  EXPECT_TRUE(sr & isa::SR_Z);
}

TEST(alu, addc_uses_carry_chain) {
  EXPECT_EQ(reg_after("        mov #0xffff, r15\n"
                      "        add #1, r15\n"   // C=1
                      "        mov #10, r14\n"
                      "        addc #0, r14\n",  // r14 = 10 + 0 + C
                      14),
            11);
}

TEST(alu, subc_borrow_chain) {
  // 0 - 1 across two words: low: 0-1 -> 0xffff, C=0; high: 0 - 0 - !C.
  EXPECT_EQ(reg_after("        mov #0, r15\n"
                      "        mov #0, r14\n"
                      "        sub #1, r15\n"
                      "        subc #0, r14\n",
                      14),
            0xffff);
}

TEST(alu, dadd_bcd_addition) {
  EXPECT_EQ(reg_after("        clrc\n"
                      "        mov #0x0199, r15\n"
                      "        dadd #0x0001, r15\n",
                      15),
            0x0200);
}

TEST(alu, logic_ops) {
  EXPECT_EQ(reg_after("        mov #0x0ff0, r15\n"
                      "        and #0x00ff, r15\n",
                      15),
            0x00f0);
  EXPECT_EQ(reg_after("        mov #0x0f00, r15\n"
                      "        bis #0x00f0, r15\n",
                      15),
            0x0ff0);
  EXPECT_EQ(reg_after("        mov #0xffff, r15\n"
                      "        bic #0x00ff, r15\n",
                      15),
            0xff00);
  EXPECT_EQ(reg_after("        mov #0xaaaa, r15\n"
                      "        xor #0xffff, r15\n",
                      15),
            0x5555);
}

TEST(alu, bit_sets_flags_without_writeback) {
  const auto m = run_asm(
      "        mov #0x0001, r15\n"
      "        bit #1, r15\n"
      "        mov #1, &HALT_PORT\n");
  const auto sr = m->get_cpu().regs()[isa::REG_SR];
  EXPECT_FALSE(sr & isa::SR_Z);
  EXPECT_TRUE(sr & isa::SR_C);  // C = NOT Z
  EXPECT_EQ(m->get_cpu().regs()[15], 1);
}

TEST(alu, shifts_and_rotates) {
  EXPECT_EQ(reg_after("        mov #0x8001, r15\n"
                      "        rra r15\n",
                      15),
            0xc000);  // arithmetic: sign preserved
  EXPECT_EQ(reg_after("        mov #0x8000, r15\n"
                      "        setc\n"
                      "        rrc r15\n",
                      15),
            0xc000);  // carry into MSB
  EXPECT_EQ(reg_after("        mov #3, r15\n"
                      "        rla r15\n",
                      15),
            6);
}

TEST(alu, swpb_and_sxt) {
  EXPECT_EQ(reg_after("        mov #0x1234, r15\n"
                      "        swpb r15\n",
                      15),
            0x3412);
  EXPECT_EQ(reg_after("        mov #0x0080, r15\n"
                      "        sxt r15\n",
                      15),
            0xff80);
  EXPECT_EQ(reg_after("        mov #0x007f, r15\n"
                      "        sxt r15\n",
                      15),
            0x007f);
}

// ---------------------------------------------------------------------------
// Byte operations
// ---------------------------------------------------------------------------

TEST(byte_ops, register_write_clears_high_byte) {
  EXPECT_EQ(reg_after("        mov #0xffff, r15\n"
                      "        mov.b #0x12, r15\n",
                      15),
            0x0012);
}

TEST(byte_ops, memory_byte_store_leaves_neighbor) {
  auto m = run_asm(
      "        mov #0x5678, &0x0200\n"
      "        mov.b #0xaa, &0x0200\n"
      "        mov #1, &HALT_PORT\n");
  EXPECT_EQ(m->get_bus().peek16(0x0200), 0x56aa);
}

TEST(byte_ops, byte_add_flags_from_byte) {
  const auto sr = sr_after(
      "        mov #0x00ff, r15\n"
      "        add.b #1, r15\n");
  EXPECT_TRUE(sr & isa::SR_Z);
  EXPECT_TRUE(sr & isa::SR_C);
}

// ---------------------------------------------------------------------------
// Addressing modes + memory
// ---------------------------------------------------------------------------

TEST(modes, indexed_and_indirect) {
  auto m = run_asm(
      "        mov #0x0200, r14\n"
      "        mov #0x1111, 0(r14)\n"
      "        mov #0x2222, 2(r14)\n"
      "        mov @r14, r15\n"
      "        mov 2(r14), r13\n"
      "        mov #1, &HALT_PORT\n");
  EXPECT_EQ(m->get_cpu().regs()[15], 0x1111);
  EXPECT_EQ(m->get_cpu().regs()[13], 0x2222);
}

TEST(modes, autoincrement_word_and_byte) {
  auto m = run_asm(
      "        mov #0x1234, &0x0200\n"
      "        mov #0x0200, r14\n"
      "        mov @r14+, r15\n"
      "        mov #0x0200, r13\n"
      "        mov.b @r13+, r12\n"
      "        mov #1, &HALT_PORT\n");
  EXPECT_EQ(m->get_cpu().regs()[14], 0x0202);  // +2 for word
  EXPECT_EQ(m->get_cpu().regs()[13], 0x0201);  // +1 for byte
  EXPECT_EQ(m->get_cpu().regs()[15], 0x1234);
  EXPECT_EQ(m->get_cpu().regs()[12], 0x0034);
}

TEST(modes, push_pop_and_stack) {
  auto m = run_asm(
      "        mov #STACK_INIT, sp\n"
      "        mov #0xaaaa, r15\n"
      "        push r15\n"
      "        mov #0xbbbb, r15\n"
      "        push r15\n"
      "        pop r14\n"
      "        pop r13\n"
      "        mov #1, &HALT_PORT\n");
  EXPECT_EQ(m->get_cpu().regs()[14], 0xbbbb);
  EXPECT_EQ(m->get_cpu().regs()[13], 0xaaaa);
  EXPECT_EQ(m->get_cpu().regs()[isa::REG_SP], m->map().stack_init);
}

// ---------------------------------------------------------------------------
// Control transfer
// ---------------------------------------------------------------------------

TEST(control, call_and_ret) {
  auto m = run_asm(
      "        mov #STACK_INIT, sp\n"
      "        call #sub\n"
      "        mov #1, &HALT_PORT\n"
      "sub:    mov #0x77, r15\n"
      "        ret\n");
  EXPECT_EQ(m->get_cpu().regs()[15], 0x77);
  EXPECT_EQ(m->halt_code(), 1);
}

TEST(control, conditional_jumps_signed_vs_unsigned) {
  // jl is signed: -1 < 1. jlo is unsigned: 0xffff > 1.
  auto m = run_asm(
      "        mov #0xffff, r15\n"
      "        cmp #1, r15\n"
      "        jl signed_less\n"
      "        mov #0, r14\n"
      "        jmp next\n"
      "signed_less: mov #1, r14\n"
      "next:   cmp #1, r15\n"
      "        jlo unsigned_less\n"
      "        mov #0, r13\n"
      "        jmp done\n"
      "unsigned_less: mov #1, r13\n"
      "done:   mov #1, &HALT_PORT\n");
  EXPECT_EQ(m->get_cpu().regs()[14], 1);  // signed: -1 < 1
  EXPECT_EQ(m->get_cpu().regs()[13], 0);  // unsigned: 0xffff >= 1
}

TEST(control, br_via_pc) {
  auto m = run_asm(
      "        br #target\n"
      "        mov #99, r15\n"
      "        mov #1, &HALT_PORT\n"
      "target: mov #42, r15\n"
      "        mov #1, &HALT_PORT\n");
  EXPECT_EQ(m->get_cpu().regs()[15], 42);
}

TEST(control, cycle_counting_matches_model) {
  auto m = run_asm(
      "        mov #5, r15\n"          // 2 cycles (#N->Rn)
      "        add r15, r15\n"         // 1
      "        mov r15, &0x0200\n"     // 4
      "        mov #1, &HALT_PORT\n"); // 5 (CG #1 -> &abs = 1+0+3... CG+abs=4)
  // mov #1 uses CG: 1 + 0 + 3 = 4 cycles.
  EXPECT_EQ(m->cycles(), 2u + 1u + 4u + 4u);
}

// ---------------------------------------------------------------------------
// Interrupts
// ---------------------------------------------------------------------------

TEST(interrupts, serviced_when_gie_set) {
  emu::memory_map map;
  const std::string text =
      "        .org 0xc000\n"
      "__start:\n"
      "        mov #STACK_INIT, sp\n"
      "        eint\n"
      "loop:   jmp loop\n"
      "isr:    mov #0xbeef, r15\n"
      "        mov #1, &HALT_PORT\n"
      "        reti\n"
      "        .org 0xffe0\n"
      "        .word isr\n"
      "        .org RESET_VECTOR\n"
      "        .word __start\n";
  auto img = masm::assemble_text(text, map.predefined_symbols());
  machine m(map);
  m.load(img);
  m.reset();
  m.run(100);  // spin a little
  EXPECT_FALSE(m.halted());
  m.get_cpu().request_interrupt(0);
  m.run(10'000);
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.get_cpu().regs()[15], 0xbeef);
}

TEST(interrupts, masked_when_gie_clear) {
  emu::memory_map map;
  const std::string text =
      "        .org 0xc000\n"
      "__start:\n"
      "        mov #STACK_INIT, sp\n"
      "        dint\n"
      "        mov #100, r14\n"
      "loop:   dec r14\n"
      "        jne loop\n"
      "        mov #1, &HALT_PORT\n"
      "isr:    mov #0xbeef, r15\n"
      "        reti\n"
      "        .org 0xffe0\n"
      "        .word isr\n"
      "        .org RESET_VECTOR\n"
      "        .word __start\n";
  auto img = masm::assemble_text(text, map.predefined_symbols());
  machine m(map);
  m.load(img);
  m.reset();
  m.get_cpu().request_interrupt(0);
  m.run(100'000);
  EXPECT_TRUE(m.halted());
  EXPECT_NE(m.get_cpu().regs()[15], 0xbeef);
}

// ---------------------------------------------------------------------------
// Peripherals
// ---------------------------------------------------------------------------

TEST(peripherals, gpio_records_history_with_cycles) {
  auto m = run_asm(
      "        mov.b #1, &P3OUT\n"
      "        mov.b #0, &P3OUT\n"
      "        mov #1, &HALT_PORT\n");
  const auto& h = m->gpio().history();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].value, 1);
  EXPECT_EQ(h[1].value, 0);
  EXPECT_LT(h[0].cycle, h[1].cycle);
}

TEST(peripherals, net_fifo_idempotent_read_with_ack) {
  emu::memory_map map;
  auto img = masm::assemble_text(
      "        .org 0xc000\n"
      "__start:\n"
      "        mov.b &NET_DATA, r15\n"
      "        mov.b &NET_DATA, r14\n"  // same byte again (no ack yet)
      "        mov.b #0, &NET_DATA\n"   // ack
      "        mov.b &NET_DATA, r13\n"  // next byte
      "        mov.b &NET_AVAIL, r12\n"
      "        mov #1, &HALT_PORT\n"
      "        .org RESET_VECTOR\n"
      "        .word __start\n",
      map.predefined_symbols());
  machine m(map);
  m.load(img);
  m.net().push_rx(0x41);
  m.net().push_rx(0x42);
  m.reset();
  m.run(10'000);
  EXPECT_EQ(m.get_cpu().regs()[15], 0x41);
  EXPECT_EQ(m.get_cpu().regs()[14], 0x41);
  EXPECT_EQ(m.get_cpu().regs()[13], 0x42);
  EXPECT_EQ(m.get_cpu().regs()[12], 1);  // one byte left
}

TEST(peripherals, net_tx_collects_bytes) {
  auto m = run_asm(
      "        mov.b #0x58, &NET_TX\n"
      "        mov.b #0x59, &NET_TX\n"
      "        mov #1, &HALT_PORT\n");
  EXPECT_EQ(m->net().tx(), (std::vector<std::uint8_t>{0x58, 0x59}));
}

TEST(peripherals, adc_trigger_then_read) {
  emu::memory_map map;
  auto img = masm::assemble_text(
      "        .org 0xc000\n"
      "__start:\n"
      "        mov #1, &ADC_MEM\n"   // trigger conversion
      "        mov &ADC_MEM, r15\n"
      "        mov &ADC_MEM, r14\n"  // idempotent re-read
      "        mov #1, &ADC_MEM\n"
      "        mov &ADC_MEM, r13\n"
      "        mov #1, &HALT_PORT\n"
      "        .org RESET_VECTOR\n"
      "        .word __start\n",
      map.predefined_symbols());
  machine m(map);
  m.load(img);
  m.adc().push_sample(0x123);
  m.adc().push_sample(0x456);
  m.reset();
  m.run(10'000);
  EXPECT_EQ(m.get_cpu().regs()[15], 0x123);
  EXPECT_EQ(m.get_cpu().regs()[14], 0x123);
  EXPECT_EQ(m.get_cpu().regs()[13], 0x456);
}

TEST(peripherals, mailbox_args_and_result) {
  emu::memory_map map;
  auto img = masm::assemble_text(
      "        .org 0xc000\n"
      "__start:\n"
      "        mov &ARGS_BASE, r15\n"
      "        mov &ARGS_BASE+2, r14\n"
      "        add r14, r15\n"
      "        mov r15, &RESULT\n"
      "        mov #1, &HALT_PORT\n"
      "        .org RESET_VECTOR\n"
      "        .word __start\n",
      map.predefined_symbols());
  machine m(map);
  m.load(img);
  m.mailbox().set_arg(0, 30);
  m.mailbox().set_arg(1, 12);
  m.reset();
  m.run(10'000);
  EXPECT_EQ(m.mailbox().result(), 42);
}

TEST(peripherals, timer_tracks_cycles) {
  auto m = run_asm(
      "        mov &TAR, r15\n"
      "        nop\n"
      "        nop\n"
      "        mov &TAR, r14\n"
      "        mov #1, &HALT_PORT\n");
  EXPECT_GT(m->get_cpu().regs()[14], m->get_cpu().regs()[15]);
}

TEST(machine, dma_visible_to_watchers) {
  struct probe : watcher {
    int dma_writes = 0;
    void on_access(const bus_access& a) override {
      if (a.dma && a.write) ++dma_writes;
    }
  };
  machine m{};
  probe p;
  m.get_bus().add_watcher(&p);
  m.dma_write16(0x0200, 0x1234);
  EXPECT_EQ(p.dma_writes, 1);
  EXPECT_EQ(m.get_bus().peek16(0x0200), 0x1234);
  m.get_bus().remove_watcher(&p);
}

TEST(machine, cycle_limit_run_result) {
  auto img = masm::assemble_text(
      "        .org 0xc000\n"
      "__start:\n"
      "loop:   jmp loop\n"
      "        .org 0xfffe\n"
      "        .word __start\n");
  machine m{};
  m.load(img);
  m.reset();
  EXPECT_EQ(m.run(1'000), machine::run_result::cycle_limit);
  EXPECT_FALSE(m.halted());
}

TEST(machine, halt_code_word_write) {
  auto m = run_asm("        mov #0x0203, &HALT_PORT\n");
  EXPECT_TRUE(m->halted());
}

TEST(bus, peek_is_authoritative_for_mmio_addresses) {
  // Regression (PR 10): peek8/peek16 used to read the raw RAM array under
  // device-owned addresses, so a host observation of a peripheral register
  // disagreed with what the program would read. The page table now gives
  // the device the one authoritative answer for both paths.
  emu::memory_map map;
  machine m{};
  m.get_bus().write8(map.p3out, 0x5a);
  m.gpio().set_input(0x07);
  EXPECT_EQ(m.gpio().output(), 0x5a);
  EXPECT_EQ(m.get_bus().peek8(map.p3out), 0x5a);
  EXPECT_EQ(m.get_bus().peek8(map.p3in), 0x07);
  // p3in/p3out are adjacent (0x18/0x19): a 16-bit peek must compose the
  // same per-byte device answers.
  EXPECT_EQ(m.get_bus().peek16(map.p3in), 0x5a07);

  m.adc().push_sample(0x0123);
  m.get_bus().write8(map.adc_mem, 0);  // trigger a conversion
  EXPECT_EQ(m.get_bus().peek16(map.adc_mem), 0x0123);
}

TEST(bus, peek_does_not_consume_the_net_fifo) {
  // Observation must be side-effect-free: peeking the RX head leaves the
  // FIFO depth untouched, and only the program's ack (a write to net_data)
  // advances it.
  emu::memory_map map;
  machine m{};
  m.net().push_rx(0xaa);
  m.net().push_rx(0xbb);
  EXPECT_EQ(m.get_bus().peek8(map.net_data), 0xaa);
  EXPECT_EQ(m.get_bus().peek8(map.net_data), 0xaa);
  EXPECT_EQ(m.get_bus().peek8(map.net_avail), 2);
  m.get_bus().write8(map.net_data, 0);  // ack: pop the head
  EXPECT_EQ(m.get_bus().peek8(map.net_data), 0xbb);
  EXPECT_EQ(m.get_bus().peek8(map.net_avail), 1);
}

TEST(bus, page_table_routes_devices_and_plain_ram) {
  // The dispatch page table must route a device address to its device,
  // for writes and peeks alike.
  emu::memory_map map;
  machine m{};
  m.get_bus().write8(map.p3out, 0x22);
  EXPECT_EQ(m.get_bus().peek8(map.p3out), 0x22);
  EXPECT_EQ(m.gpio().output(), 0x22);
  // Plain RAM reads and writes through the no-device fast path.
  m.get_bus().write8(0x0200, 0x33);
  EXPECT_EQ(m.get_bus().peek8(0x0200), 0x33);
}

}  // namespace
}  // namespace dialed::emu
