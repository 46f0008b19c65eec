// Challenge-response protocol: nonce freshness, replay rejection, metering.
#include <gtest/gtest.h>

#include "common/error.h"
#include "helpers.h"

namespace dialed::proto {
namespace {

using test::build_op;
using test::test_key;

constexpr const char* adder = "int op(int a, int b) { return a + b; }";

invocation args(std::uint16_t a0, std::uint16_t a1 = 0) {
  invocation inv;
  inv.args[0] = a0;
  inv.args[1] = a1;
  return inv;
}

TEST(round, accepts_fresh_report) {
  const auto prog = build_op(adder, "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  const auto r = d.round(args(20, 22));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 42);
}

TEST(round, replayed_report_rejected) {
  const auto prog = build_op(adder, "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  const auto grant = d.hub.challenge(d.id);
  const auto rep = d.dev.invoke(grant.nonce, args(1, 2));
  EXPECT_TRUE(d.submit(grant, rep).accepted());
  // Same report again: the nonce was consumed.
  const auto r = d.submit(grant, rep);
  EXPECT_FALSE(r.accepted());
  EXPECT_EQ(r.error, proto_error::replayed_report);
}

TEST(round, old_report_for_new_challenge_rejected) {
  const auto prog = build_op(adder, "op", instr::instrumentation::dialed);
  fleet::hub_config cfg;
  cfg.max_outstanding = 1;
  test::hub_device d(prog, cfg);
  const auto g1 = d.hub.challenge(d.id);
  const auto rep1 = d.dev.invoke(g1.nonce, args(1, 2));
  // Vrf moved on; rep1's challenge is now superseded.
  EXPECT_EQ(d.hub.challenge(d.id).note, proto_error::challenge_superseded);
  const auto r = d.submit(g1, rep1);
  EXPECT_FALSE(r.accepted());
  EXPECT_EQ(r.error, proto_error::challenge_superseded);
}

TEST(round, challenges_are_distinct) {
  const auto prog = build_op(adder, "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  const auto c1 = d.hub.challenge(d.id);
  const auto c2 = d.hub.challenge(d.id);
  EXPECT_NE(c1.nonce, c2.nonce);
}

TEST(round, deterministic_under_seed) {
  const auto prog = build_op(adder, "op", instr::instrumentation::dialed);
  fleet::hub_config cfg;
  cfg.seed = 42;
  test::hub_device a(prog, cfg);
  test::hub_device b(prog, cfg);
  EXPECT_EQ(a.hub.challenge(a.id).nonce, b.hub.challenge(b.id).nonce);
}

TEST(round, delta_frame_and_full_frame_fallback) {
  // v2.1 delta frames verify against the hub's baseline, and a desynced
  // delta is the typed baseline_mismatch that drives the fallback.
  const auto prog = build_op(adder, "op", instr::instrumentation::dialed);
  test::hub_device d(prog);

  // Full v2 frame: accepted, and its OR becomes the delta baseline.
  const auto g1 = d.hub.challenge(d.id);
  const auto rep1 = d.dev.invoke(g1.nonce, args(20, 22));
  const auto r1 = d.submit(g1, rep1);
  ASSERT_TRUE(r1.accepted());
  EXPECT_EQ(r1.verdict.replayed_result, 42);

  // v2.1 delta frame against the just-accepted baseline.
  const auto g2 = d.hub.challenge(d.id);
  const auto rep2 = d.dev.invoke(g2.nonce, args(7, 8));
  delta_emitter emitter;
  emitter.note_result(d.id, r1.seq, rep1, proto_error::none, true);
  const auto frame2 = emitter.encode(d.id, g2.seq, rep2);
  ASSERT_EQ(frame2[2], wire_v21);
  const auto r2 = d.hub.submit(frame2);
  ASSERT_TRUE(r2.accepted());
  EXPECT_EQ(r2.verdict.replayed_result, 15);

  // A desynced delta is the typed error, and the challenge survives for
  // the full-frame retry.
  const auto g3 = d.hub.challenge(d.id);
  const auto rep3 = d.dev.invoke(g3.nonce, args(1, 1));
  const auto bogus = encode_delta_frame(
      frame_info{.version = wire_v21, .device_id = d.id, .seq = g3.seq},
      rep3, 424242, byte_vec(32, 0x9e));
  EXPECT_EQ(d.hub.submit(bogus).error, proto_error::baseline_mismatch);
  EXPECT_EQ(d.hub.outstanding(d.id), 1u);
  const auto r4 = d.submit(g3, rep3);
  ASSERT_TRUE(r4.accepted());
  EXPECT_EQ(r4.verdict.replayed_result, 2);

  // Damaged frames come back as typed transport errors.
  auto torn = encode_frame(frame_info{.device_id = d.id, .seq = g3.seq},
                           rep3);
  torn.resize(torn.size() / 2);
  EXPECT_EQ(d.hub.submit(torn).error, proto_error::bad_length);
}

TEST(metering, op_cycles_exclude_startup_and_swatt) {
  const auto prog = build_op(adder, "op", instr::instrumentation::dialed);
  prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  dev.invoke(chal, args(1, 2));
  EXPECT_GT(dev.last_op_cycles(), 0u);
  EXPECT_LT(dev.last_op_cycles(), dev.last_total_cycles());
  // SW-Att alone costs far more than this trivial op.
  EXPECT_LT(dev.last_op_cycles(), dev.last_total_cycles() / 10);
}

TEST(metering, log_bytes_zero_for_uninstrumented_op) {
  const auto prog = build_op(adder, "op", instr::instrumentation::none);
  prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  dev.invoke(chal, args(1, 2));
  EXPECT_EQ(dev.last_log_bytes(), 0);
}

TEST(metering, runtime_scales_with_workload) {
  const auto prog = build_op(
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + i; } return s; }",
      "op", instr::instrumentation::none);
  prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  dev.invoke(chal, args(5));
  const auto small = dev.last_op_cycles();
  dev.invoke(chal, args(50));
  const auto large = dev.last_op_cycles();
  EXPECT_GT(large, small * 5);
}

TEST(metering, log_grows_with_control_flow) {
  const auto prog = build_op(
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + i; } return s; }",
      "op", instr::instrumentation::tinycfa);
  prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  dev.invoke(chal, args(2));
  const auto small = dev.last_log_bytes();
  dev.invoke(chal, args(20));
  const auto large = dev.last_log_bytes();
  EXPECT_GT(large, small);
}

TEST(device, consecutive_invocations_are_independent) {
  const auto prog = build_op(
      "int acc = 0;"
      "int op(int a) { acc = acc + a; return acc; }",
      "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  // Globals are re-initialized by crt0 on every boot: acc restarts at 0.
  for (int round = 0; round < 3; ++round) {
    const auto r = d.round(args(10));
    EXPECT_TRUE(r.accepted()) << "round " << round;
    EXPECT_EQ(r.verdict.replayed_result, 10);
  }
}

TEST(device, cycle_budget_exhaustion_throws) {
  const auto prog = build_op(
      "int op(int n) { while (1) { n = n + 1; } return n; }", "op",
      instr::instrumentation::none);
  prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  invocation inv;
  inv.max_cycles = 100'000;
  EXPECT_THROW(dev.invoke(chal, inv), error);
}

}  // namespace
}  // namespace dialed::proto
