// Execution tracer/coverage, and the DoorLock extension app (a byte-
// granularity data-only attack beyond the paper's Fig. 2).
#include <gtest/gtest.h>

#include "emu/trace.h"
#include "rot/rot.h"
#include "helpers.h"

namespace dialed {
namespace {

using test::build_op;
using test::test_key;

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(tracer, counts_and_sequence) {
  emu::memory_map map;
  const auto img = masm::assemble_text(
      "        .org 0xc000\n"
      "__start:\n"
      "        mov #3, r14\n"
      "loop:   dec r14\n"
      "        jne loop\n"
      "        mov #1, &HALT_PORT\n"
      "        .org RESET_VECTOR\n"
      "        .word __start\n",
      map.predefined_symbols());
  emu::machine m(map);
  emu::tracer::options opts;
  opts.record_sequence = true;
  emu::tracer tr(opts);
  m.get_bus().add_watcher(&tr);
  m.load(img);
  m.reset();
  m.run(10'000);
  m.get_bus().remove_watcher(&tr);

  // mov(1) + 3x(dec+jne) + halt-mov(1) = 8 retired instructions.
  EXPECT_EQ(tr.total_executed(), 8u);
  EXPECT_EQ(tr.counts().at(img.symbol("loop")), 3u);
  EXPECT_EQ(tr.sequence().size(), 8u);
  EXPECT_EQ(tr.sequence().front().pc, 0xc000);
}

TEST(tracer, hotspots_ranked_descending) {
  emu::memory_map map;
  const auto img = masm::assemble_text(
      "        .org 0xc000\n"
      "__start:\n"
      "        mov #10, r14\n"
      "loop:   dec r14\n"
      "        jne loop\n"
      "        mov #1, &HALT_PORT\n"
      "        .org RESET_VECTOR\n"
      "        .word __start\n",
      map.predefined_symbols());
  emu::machine m(map);
  emu::tracer tr;
  m.get_bus().add_watcher(&tr);
  m.load(img);
  m.reset();
  m.run(10'000);
  const auto hs = tr.hotspots(2);
  ASSERT_EQ(hs.size(), 2u);
  EXPECT_GE(hs[0].second, hs[1].second);
  EXPECT_EQ(hs[0].second, 10u);
  m.get_bus().remove_watcher(&tr);
}

TEST(tracer, coverage_reflects_untaken_branch) {
  const auto prog = build_op(
      "int op(int a) { if (a > 5) { return 1; } return 2; }", "op",
      instr::instrumentation::none);
  auto run_with = [&](std::uint16_t arg, emu::tracer& tr) {
    emu::machine m(prog.options.map);
    rot::root_of_trust rt(m);  // crt0 invokes SW-Att after the op
    rt.vrased().provision_key(test_key());
    m.get_bus().add_watcher(&tr);
    m.load(prog.image);
    m.mailbox().set_arg(0, arg);
    m.reset();
    m.run(100'000'000);
    m.get_bus().remove_watcher(&tr);
  };

  emu::tracer tr;
  run_with(3, tr);  // takes the else path
  const auto cov = tr.cover(prog.image, prog.er_min, prog.er_max);
  EXPECT_GT(cov.total, 0);
  EXPECT_GT(cov.executed, 0);
  EXPECT_FALSE(cov.never_executed.empty());  // the then-arm never ran
  EXPECT_LT(cov.percent(), 100.0);

  // Running the other input exercises a different never-executed set.
  emu::tracer tr2;
  run_with(9, tr2);
  const auto cov2 = tr2.cover(prog.image, prog.er_min, prog.er_max);
  EXPECT_NE(cov2.never_executed, cov.never_executed);
}

TEST(tracer, clear_resets_state) {
  emu::tracer tr;
  tr.on_exec(0x1000, {});
  EXPECT_EQ(tr.total_executed(), 1u);
  tr.clear();
  EXPECT_EQ(tr.total_executed(), 0u);
  EXPECT_TRUE(tr.counts().empty());
}

// ---------------------------------------------------------------------------
// DoorLock app
// ---------------------------------------------------------------------------

TEST(door_lock, correct_pin_opens) {
  const auto prog =
      apps::build_app(apps::door_lock_app(), instr::instrumentation::dialed);
  proto::prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto rep = dev.invoke(chal, apps::door_lock_try({3, 1, 4, 1, 5, 9}));
  EXPECT_EQ(rep.claimed_result, 1);
  EXPECT_EQ(dev.machine().gpio().output(), 1);  // latch energized
}

TEST(door_lock, wrong_pin_stays_locked) {
  const auto prog =
      apps::build_app(apps::door_lock_app(), instr::instrumentation::dialed);
  proto::prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto rep = dev.invoke(chal, apps::door_lock_try({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(rep.claimed_result, 0);
  EXPECT_EQ(dev.machine().gpio().output(), 0);
}

TEST(door_lock, overflow_attack_opens_with_attacker_pin) {
  const auto prog =
      apps::build_app(apps::door_lock_app(), instr::instrumentation::dialed);
  proto::prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto rep =
      dev.invoke(chal, apps::door_lock_attack({7, 7, 7, 7, 7, 7}));
  EXPECT_EQ(rep.claimed_result, 1);               // the door opened...
  EXPECT_EQ(dev.machine().gpio().output(), 1);
  EXPECT_TRUE(rep.exec);                          // ...and APEX saw nothing
}

TEST(door_lock, attack_detected_as_data_only) {
  const auto prog =
      apps::build_app(apps::door_lock_app(), instr::instrumentation::dialed);
  test::hub_device d(prog);

  EXPECT_TRUE(d.round(apps::door_lock_try({3, 1, 4, 1, 5, 9})).accepted());

  const auto r = d.round(apps::door_lock_attack({7, 7, 7, 7, 7, 7}));
  ASSERT_EQ(r.error, proto::proto_error::none);
  EXPECT_FALSE(r.accepted());
  EXPECT_TRUE(r.verdict.has(verifier::attack_kind::data_only_attack));
  EXPECT_FALSE(r.verdict.has(verifier::attack_kind::control_flow_attack));
}

TEST(door_lock, master_code_adjacent_to_buffer) {
  const auto prog =
      apps::build_app(apps::door_lock_app(), instr::instrumentation::dialed);
  EXPECT_EQ(prog.global_addrs.at("master"),
            prog.global_addrs.at("entered") + 6);
}

}  // namespace
}  // namespace dialed
