// Verifier: MAC/EXEC gating, abstract execution, and every attack-detection
// class (control-flow, data-only, forgery, tamper, policies).
#include <gtest/gtest.h>

#include <thread>

#include "common/error.h"
#include "helpers.h"
#include "rot/attest.h"
#include "verifier/verifier.h"

namespace dialed::verifier {
namespace {

using test::build_op;
using test::test_key;

struct bench_rig {
  instr::linked_program prog;
  std::unique_ptr<proto::prover_device> dev;
  std::unique_ptr<op_verifier> vrf;

  bench_rig(const std::string& src,
            instr::instrumentation mode = instr::instrumentation::dialed)
      : prog(build_op(src, "op", mode)) {
    dev = std::make_unique<proto::prover_device>(prog, test_key());
    vrf = std::make_unique<op_verifier>(prog, test_key());
  }

  attestation_report invoke(const proto::invocation& inv,
                            std::uint8_t chal_seed = 7) {
    std::array<std::uint8_t, 16> chal{};
    chal.fill(chal_seed);
    return dev->invoke(chal, inv);
  }
};

proto::invocation args(std::uint16_t a0 = 0, std::uint16_t a1 = 0) {
  proto::invocation inv;
  inv.args[0] = a0;
  inv.args[1] = a1;
  return inv;
}

constexpr const char* adder = "int op(int a, int b) { return a + b; }";

/// Re-MAC `rep` under `key`, as an attacker holding a MAC oracle would.
void resign(attestation_report& rep, const instr::linked_program& prog,
            std::span<const std::uint8_t> key) {
  rot::attest_input in;
  in.er_min = rep.er_min;
  in.er_max = rep.er_max;
  in.or_min = rep.or_min;
  in.or_max = rep.or_max;
  in.exec = true;
  in.challenge = rep.challenge;
  const auto er = prog.er_bytes();
  in.er_bytes = er;
  in.or_bytes = rep.or_bytes;
  rep.mac = rot::compute_attestation_mac(key, in);
}

// ---------------------------------------------------------------------------
// Happy path
// ---------------------------------------------------------------------------

TEST(verify, benign_run_accepted_with_replayed_result) {
  bench_rig rig(adder);
  const auto rep = rig.invoke(args(40, 2));
  const auto v = rig.vrf->verify(rep);
  EXPECT_TRUE(v.accepted);
  EXPECT_EQ(v.replayed_result, 42);
  EXPECT_GT(v.replay_instructions, 0u);
  EXPECT_GE(v.log_slots_consumed, 9);
}

TEST(verify, annotated_log_classifies_entries) {
  bench_rig rig(
      "int g = 5;"
      "int op(int a, int b) { return g + a; }");
  const auto rep = rig.invoke(args(1, 2));
  const auto v = rig.vrf->verify(rep);
  ASSERT_TRUE(v.accepted);
  forensics fx;
  replay_operation(*rig.vrf->artifact(), rep, {}, &fx);
  int saved_sp = 0, entry_args = 0, cf = 0, inputs = 0;
  for (const auto& e : fx.annotated_log) {
    switch (e.kind) {
      case logfmt::entry_kind::saved_sp: ++saved_sp; break;
      case logfmt::entry_kind::entry_arg: ++entry_args; break;
      case logfmt::entry_kind::cf_destination: ++cf; break;
      case logfmt::entry_kind::data_input: ++inputs; break;
      default: break;
    }
  }
  EXPECT_EQ(saved_sp, 1);
  EXPECT_EQ(entry_args, 8);
  EXPECT_GE(cf, 1);    // at least the final ret
  EXPECT_GE(inputs, 1);  // the global read
}

TEST(verify, challenge_binding_enforced_when_requested) {
  bench_rig rig(adder);
  const auto rep = rig.invoke(args(1, 2), 0x11);
  std::array<std::uint8_t, 16> expected{};
  expected.fill(0x11);
  EXPECT_TRUE(rig.vrf->verify(rep, expected).accepted);
  expected.fill(0x22);
  const auto v = rig.vrf->verify(rep, expected);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::stale_challenge));
}

// ---------------------------------------------------------------------------
// Forgery and tamper classes
// ---------------------------------------------------------------------------

TEST(attack, flipped_mac_bit_rejected) {
  bench_rig rig(adder);
  auto rep = rig.invoke(args(1, 2));
  rep.mac[5] ^= 0x10;
  const auto v = rig.vrf->verify(rep);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::mac_invalid));
}

TEST(attack, tampered_or_bytes_break_the_mac) {
  bench_rig rig(adder);
  auto rep = rig.invoke(args(1, 2));
  rep.or_bytes[rep.or_bytes.size() - 3] ^= 0xff;
  const auto v = rig.vrf->verify(rep);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::mac_invalid));
}

TEST(attack, forged_logs_with_valid_mac_caught_by_replay) {
  // Even if an attacker had a MAC oracle (simulated here with the real
  // key), logs inconsistent with the program are caught by abstract
  // execution: we flip a CF entry and re-MAC.
  bench_rig rig(adder);
  auto rep = rig.invoke(args(1, 2));
  rep.or_bytes[rep.or_bytes.size() - 20] ^= 0x01;  // inside consumed slots
  resign(rep, rig.prog, test_key());
  const auto v = rig.vrf->verify(rep);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::replay_divergence) ||
              v.has(attack_kind::control_flow_attack) ||
              v.has(attack_kind::uninitialized_read));
}

TEST(attack, consumed_or_tail_is_compared_byte_for_byte) {
  // Flip each byte of the consumed region [final_r4+2, or_max+1] in turn:
  // wherever the replay re-produces the original byte, the in-place OR
  // compare must name exactly that address, as the last finding.
  bench_rig rig(adder);
  const auto rep = rig.invoke(args(1, 2));
  const auto v = rig.vrf->verify(rep);
  ASSERT_TRUE(v.accepted);
  const std::size_t first = rep.or_bytes.size() - v.log_bytes;
  int pinpointed = 0;
  for (std::size_t i = first; i < rep.or_bytes.size(); ++i) {
    auto bad = rep;
    bad.or_bytes[i] ^= 0x80;
    const auto r = replay_operation(*rig.vrf->artifact(), bad, {});
    const auto at = static_cast<std::uint16_t>(rep.or_min + i);
    if (r.completed && !r.findings.empty() && r.findings.back().addr == at) {
      const auto& f = r.findings.back();
      EXPECT_EQ(f.kind, attack_kind::replay_divergence) << i;
      EXPECT_EQ(f.detail,
                "attested OR differs from the replayed OR at " + hex16(at))
          << i;
      EXPECT_EQ(f.pc, 0) << i;
      ++pinpointed;
    }
  }
  EXPECT_GT(pinpointed, 0);
}

TEST(attack, modified_code_rejected_via_mac) {
  bench_rig rig(adder);
  proto::invocation inv = args(1, 2);
  const std::uint16_t fail_block = rig.prog.image.symbol("__er_fail");
  inv.before_run = [&](emu::machine& m) {
    // Patch the (benignly unreached) abort handler inside ER: execution is
    // unaffected, but SW-Att hashes the modified code and Vrf's reference
    // MAC no longer matches.
    m.get_bus().poke16(static_cast<std::uint16_t>(fail_block + 2), 0x4303);
  };
  const auto rep = rig.invoke(inv);
  const auto v = rig.vrf->verify(rep);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::mac_invalid));
}

TEST(attack, interrupt_mid_op_clears_exec_and_is_rejected) {
  bench_rig rig(
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + i; } return s; }");
  proto::invocation inv = args(10);
  bool fired = false;
  inv.on_step = [&](emu::machine& m, std::uint16_t pc) {
    if (!fired && pc > rig.prog.er_min + 40 && pc < rig.prog.er_max) {
      fired = true;
      m.get_cpu().regs()[isa::REG_SR] |= isa::SR_GIE;
      m.get_cpu().request_interrupt(0);
    }
  };
  // Point the ISR at crt0's post-op continuation so the device still
  // attests (with EXEC=0) and halts instead of re-running the op.
  inv.before_run = [&](emu::machine& m) {
    m.get_bus().poke16(m.map().ivt_start, rig.prog.op_return_addr);
  };
  const auto rep = rig.invoke(inv);
  EXPECT_FALSE(rep.exec);
  const auto v = rig.vrf->verify(rep);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::exec_cleared) ||
              v.has(attack_kind::mac_invalid));
}

TEST(attack, dma_mid_op_clears_exec_and_is_rejected) {
  bench_rig rig(
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + i; } return s; }");
  proto::invocation inv = args(10);
  bool fired = false;
  inv.on_step = [&](emu::machine& m, std::uint16_t pc) {
    if (!fired && pc > rig.prog.er_min + 40 && pc < rig.prog.er_max) {
      fired = true;
      m.dma_write16(0x0400, 0xdead);
    }
  };
  const auto rep = rig.invoke(inv);
  EXPECT_FALSE(rep.exec);
  EXPECT_FALSE(rig.vrf->verify(rep).accepted);
}

TEST(attack, forged_result_mailbox_detected) {
  bench_rig rig(adder);
  auto rep = rig.invoke(args(30, 12));
  rep.claimed_result = 9999;  // the mailbox is NOT covered by the MAC
  const auto v = rig.vrf->verify(rep);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::result_forged));
  EXPECT_EQ(v.replayed_result, 42);  // Vrf still learns the true output
}

TEST(attack, wrong_bounds_rejected_before_anything_else) {
  bench_rig rig(adder);
  auto rep = rig.invoke(args(1, 2));
  rep.er_max += 2;
  const auto v = rig.vrf->verify(rep);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::bounds_mismatch));
}

TEST(attack, or_length_mismatch_rejected_before_the_mac) {
  // An OR two bytes longer or shorter than its bounds, under a valid MAC:
  // a bounds_mismatch verdict, never an exception.
  bench_rig rig(adder);
  const std::size_t n = rig.invoke(args(1, 2)).or_bytes.size();
  for (const std::size_t len : {n + 2, n - 2}) {
    auto rep = rig.invoke(args(1, 2));
    rep.or_bytes.resize(len);
    resign(rep, rig.prog, test_key());
    verdict v;
    ASSERT_NO_THROW(v = rig.vrf->verify(rep)) << len;
    EXPECT_FALSE(v.accepted) << len;
    EXPECT_EQ(v.replay, replay_path::none) << len;  // step 1, never replayed
    ASSERT_EQ(v.findings.size(), 1u) << len;
    EXPECT_EQ(v.findings[0].kind, attack_kind::bounds_mismatch) << len;

    // The pure replay entry point fails closed with the same finding.
    replay_result r;
    ASSERT_NO_THROW(r = replay_operation(*rig.vrf->artifact(), rep, {}))
        << len;
    EXPECT_FALSE(r.completed) << len;
    ASSERT_EQ(r.findings.size(), 1u) << len;
    EXPECT_EQ(r.findings[0].kind, attack_kind::bounds_mismatch) << len;
    EXPECT_EQ(r.findings[0].detail, v.findings[0].detail) << len;
  }
}

TEST(attack, or_length_mismatch_rejected_through_the_hub) {
  const auto prog = build_op(adder, "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  const auto key = d.registry.derive_key(d.id);
  const std::size_t n = d.dev.invoke({}, args(1, 2)).or_bytes.size();
  for (const std::size_t len : {n + 2, n - 2}) {
    fleet::attest_result r;
    ASSERT_NO_THROW(r = d.round(args(1, 2), [&](attestation_report& rep) {
      rep.or_bytes.resize(len);
      resign(rep, prog, key);
    })) << len;
    EXPECT_EQ(r.error, proto::proto_error::none) << len;
    EXPECT_FALSE(r.accepted()) << len;
    EXPECT_TRUE(r.verdict.has(attack_kind::bounds_mismatch)) << len;
    EXPECT_EQ(r.verdict.replay, replay_path::none) << len;
  }
  EXPECT_TRUE(d.round(args(1, 2)).accepted());  // the hub keeps serving
}

TEST(attack, wrong_key_rejected) {
  bench_rig rig(adder);
  const auto rep = rig.invoke(args(1, 2));
  op_verifier wrong(rig.prog, byte_vec(32, 0x77));
  const auto v = wrong.verify(rep);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::mac_invalid));
}

// ---------------------------------------------------------------------------
// Runtime attacks through the op's own vulnerabilities
// ---------------------------------------------------------------------------

TEST(attack, oob_global_write_classified_data_only) {
  bench_rig rig(
      "int buf[4];"
      "int tail = 1111;"
      "int op(int i, int v) { buf[i] = v; return tail; }");
  // In-bounds: accepted.
  EXPECT_TRUE(rig.vrf->verify(rig.invoke(args(3, 5))).accepted);
  // Out-of-bounds write lands on `tail`: data-only attack.
  const auto v = rig.vrf->verify(rig.invoke(args(4, 2222)));
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::data_only_attack));
}

TEST(attack, oob_local_read_classified_data_only) {
  bench_rig rig(
      "int op(int i) { int a[3]; a[0] = 1; a[1] = 2; a[2] = 3;"
      "  return a[i]; }");
  EXPECT_TRUE(rig.vrf->verify(rig.invoke(args(2))).accepted);
  const auto v = rig.vrf->verify(rig.invoke(args(5)));
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::data_only_attack));
}

TEST(attack, stack_smash_classified_control_flow) {
  // A callee overflows its local buffer via memcpy (no access site, so the
  // bounds detector stays silent) and corrupts its return address; the
  // replay's return-address witness flags the control-flow attack.
  //
  // copy()'s frame: n@sp+0, local@sp+2..5, RA@sp+6; above it the op's
  // frame: n@+8, t2@+10, t3@+12, then the op's own RA. A 10-byte copy
  // plants rx[2] on copy's RA and rx[3]/rx[4] as the two gadget returns
  // that unwind back through the op's final ret (er_max).
  bench_rig rig(
      "int rx[8];"
      "int gadget() { return 13; }"
      "void copy(int n) { int local[2]; memcpy(local, rx, n); }"
      "int op(int n, int t2, int t3) {"
      "  rx[2] = 0; rx[3] = t2; rx[4] = t3; copy(n); return 1; }");
  // benign: n=4 copies only the local words.
  EXPECT_TRUE(rig.vrf->verify(rig.invoke(args(4, 0))).accepted);

  const std::uint16_t gadget = rig.prog.image.symbol("gadget");
  bench_rig rig2(
      "int rx[8];"
      "int gadget() { return 13; }"
      "void copy(int n) { int local[2]; memcpy(local, rx, n); }"
      "int op(int n, int t2, int t3) {"
      "  rx[2] = " + std::to_string(gadget) + ";"
      "  rx[3] = t2; rx[4] = t3; copy(n); return 1; }");
  proto::invocation inv;
  inv.args[0] = 10;                  // overflow: rx[0..4]
  inv.args[1] = rig2.prog.er_max;    // gadget's return -> op's final ret
  inv.args[2] = rig2.prog.er_max;    // second unwind -> pops the real RA
  const auto v = rig2.vrf->verify(rig2.invoke(inv));
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::control_flow_attack));
}

TEST(attack, uninitialized_stack_read_flagged) {
  bench_rig rig("int op(int a) { int x; return x + a; }");
  const auto v = rig.vrf->verify(rig.invoke(args(1)));
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::uninitialized_read));
}

// ---------------------------------------------------------------------------
// Replay halt latch and isolation between replays
// ---------------------------------------------------------------------------

TEST(replay, or_overflow_halts_through_the_abort_latch) {
  // n = 5000 overflows the OR: the replayed instrumentation writes
  // HALT_ABORT to the halt port, and the replay must stop there, short of
  // the op's final return, naming the abort.
  bench_rig rig(
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + 1; } return s; }");
  const auto r =
      replay_operation(*rig.vrf->artifact(), rig.invoke(args(5000)), {});
  EXPECT_FALSE(r.completed);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, attack_kind::instrumentation_abort);
  EXPECT_EQ(r.findings[0].detail,
            "replayed instrumentation aborted (F5 check or log overflow)");
  // The abort block's first instruction is the halt-port store.
  EXPECT_EQ(r.findings[0].pc, rig.prog.image.symbol("__er_fail"));
  EXPECT_EQ(r.findings[0].addr, 0);
}

TEST(replay, back_to_back_replays_match_fresh_threads) {
  // One thread replays a self-modifying op, the Fig. 2 attack and a
  // benign SyringePump round in a row; each verdict must equal the same
  // verify run alone on a thread that never replayed before, so nothing
  // of one replay (code bytes, fed memory, halt latch) reaches the next.
  struct round {
    std::string label;
    std::unique_ptr<op_verifier> vrf;
    attestation_report rep;
  };
  std::vector<round> rounds;
  std::array<std::uint8_t, 16> chal{};
  chal.fill(0x3c);

  // The op stores `mov #2, r15` over its own `mov #1, r15`; re-MACed with
  // EXEC=1 so verify replays it instead of stopping at the MAC.
  const auto smc = build_op(
      "int op(int a, int b) { __mmio_w16(a, b); return 1; }", "op",
      instr::instrumentation::dialed);
  auto smc_vrf = std::make_unique<op_verifier>(smc, test_key());
  const auto& img = smc_vrf->artifact()->flat_image();
  std::vector<std::uint16_t> mov1_at;
  for (std::uint32_t pc = smc.er_min; pc <= smc.er_max; pc += 2) {
    if ((img[pc] | img[pc + 1] << 8) == 0x431f) {
      mov1_at.push_back(static_cast<std::uint16_t>(pc));
    }
  }
  ASSERT_EQ(mov1_at.size(), 1u);
  auto smc_rep = proto::prover_device(smc, test_key())
                     .invoke(chal, args(mov1_at[0], 0x432f));
  ASSERT_EQ(smc_rep.claimed_result, 2);
  resign(smc_rep, smc, test_key());
  rounds.push_back({"self-modifying", std::move(smc_vrf), smc_rep});

  const auto fig2 =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  rounds.push_back({"fig2 attack",
                    std::make_unique<op_verifier>(fig2, test_key()),
                    proto::prover_device(fig2, test_key())
                        .invoke(chal, apps::fig2_attack())});

  const auto pump = apps::evaluation_apps().front();
  ASSERT_EQ(pump.name, "SyringePump");
  const auto pump_prog = apps::build_app(pump, instr::instrumentation::dialed);
  rounds.push_back({"SyringePump",
                    std::make_unique<op_verifier>(pump_prog, test_key()),
                    proto::prover_device(pump_prog, test_key())
                        .invoke(chal, pump.representative_input)});

  std::vector<verdict> in_a_row;
  for (const auto& r : rounds) in_a_row.push_back(r.vrf->verify(r.rep, chal));
  EXPECT_EQ(in_a_row[0].replayed_result, 2);
  EXPECT_TRUE(in_a_row[1].has(attack_kind::data_only_attack));
  EXPECT_TRUE(in_a_row[2].accepted);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    verdict alone;
    std::thread([&] { alone = rounds[i].vrf->verify(rounds[i].rep, chal); })
        .join();
    test::expect_same_verdict(in_a_row[i], alone, rounds[i].label);
  }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

namespace {
class forbid_port_writes final : public policy {
 public:
  std::string name() const override { return "forbid-p3out"; }
  void on_write(const replay_state&, std::uint16_t addr, std::uint16_t value,
                std::uint16_t pc, std::vector<finding>& out) override {
    if (addr == 0x0019 && value != 0) {
      out.push_back({attack_kind::policy_violation, "P3OUT driven", pc,
                     addr});
    }
  }
};
}  // namespace

TEST(policy, custom_policy_evaluated_over_replay) {
  bench_rig rig(
      "int op(int v) { __mmio_w8(25, v); __mmio_w8(25, 0); return v; }");
  rig.vrf->add_policy(std::make_shared<forbid_port_writes>());
  EXPECT_TRUE(rig.vrf->verify(rig.invoke(args(0))).accepted);
  const auto v = rig.vrf->verify(rig.invoke(args(1)));
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::policy_violation));
}

// ---------------------------------------------------------------------------
// Non-DIALED modes: MAC/EXEC-only verification
// ---------------------------------------------------------------------------

TEST(render, verdict_report_mentions_status_findings_and_provenance) {
  bench_rig rig(
      "int op(int v) { __mmio_w8(25, v); __mmio_w8(25, 0); return v; }");
  const auto rep_good = rig.invoke(args(3));
  forensics fx;
  replay_operation(*rig.vrf->artifact(), rep_good, {}, &fx);
  const auto text = render(rig.vrf->verify(rep_good), &fx);
  EXPECT_NE(text.find("ACCEPTED"), std::string::npos);
  EXPECT_NE(text.find("replayed result: 0x0003"), std::string::npos);
  EXPECT_NE(text.find("input-derived"), std::string::npos);

  auto rep = rig.invoke(args(3));
  rep.mac[0] ^= 1;
  const auto bad = render(rig.vrf->verify(rep));
  EXPECT_NE(bad.find("REJECTED"), std::string::npos);
  EXPECT_NE(bad.find("mac-invalid"), std::string::npos);
}

TEST(modes, tinycfa_only_reports_verify_without_replay) {
  bench_rig rig(adder, instr::instrumentation::tinycfa);
  const auto rep = rig.invoke(args(2, 3));
  const auto v = rig.vrf->verify(rep);
  EXPECT_TRUE(v.accepted);
  EXPECT_EQ(v.replay_instructions, 0u);
}

TEST(modes, uninstrumented_op_verifies_mac_only) {
  bench_rig rig(adder, instr::instrumentation::none);
  const auto rep = rig.invoke(args(2, 3));
  EXPECT_TRUE(rig.vrf->verify(rep).accepted);
}

}  // namespace
}  // namespace dialed::verifier
