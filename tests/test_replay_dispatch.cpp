// Replay decode-path suite. The replay loop has one decode rule — the
// artifact's predecoded index while the code window is pristine, a live
// decode once replayed code overwrote it or outside the index — and it is
// judged by oracles that share no code with the loop: the decode-cache
// oracle (every cached entry is isa::decode of the flat image), the
// prover (benign rounds replay to the result the device returned, also
// through self-modifying code) and the detectors' findings on attack
// rounds. Around that: reuse of a device's last accepted round must give
// field-identical verdicts, plus the reuse rule's security invariants,
// the capture differential (a replay with a forensics sink decides
// exactly like one without) and the top-of-address-space fail-closed
// behavior. test_differential runs both decode paths on generated
// programs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "apps/apps.h"
#include "common/error.h"
#include "emu/memmap.h"
#include "fleet/verifier_hub.h"
#include "helpers.h"
#include "proto/wire.h"
#include "store/fleet_store.h"
#include "verifier/firmware_artifact.h"

namespace dialed::verifier {
namespace {

namespace fs = std::filesystem;
using fleet::device_registry;
using fleet::verifier_hub;
using test::build_op;

byte_vec master_key() { return byte_vec(32, 0x42); }

std::vector<apps::app_spec> four_apps() {
  auto specs = apps::evaluation_apps();  // SyringePump, FireSensor, Ranger
  specs.push_back(apps::door_lock_app());
  return specs;
}

/// Verify one report, then offer the verdict back as the device's prior
/// round (reused when it was accepted); require the reused verdict to be
/// field-identical to the replayed one. Returns the replayed verdict.
verdict verify_then_reuse(const firmware_artifact& fw,
                          const attestation_report& rep,
                          const std::array<std::uint8_t, 16>& chal,
                          const std::string& label) {
  const auto ks = crypto::hmac_keystate::derive(test::test_key());
  const std::vector<std::shared_ptr<policy>> no_policies;

  const verdict v = fw.verify(rep, ks, no_policies, chal);
  const accepted_round prior{fw.id(), rep.or_bytes, v};
  const verdict again =
      fw.verify(rep, ks, no_policies, chal, nullptr, &prior);
  const bool reusable = v.accepted && v.replay == replay_path::replayed;
  EXPECT_EQ(again.replay, reusable ? replay_path::reused : v.replay)
      << label;
  test::expect_same_verdict(v, again, label + "/reused-vs-replayed");
  return v;
}

// ---------------------------------------------------------------------------
// The prover as judge: replayed vs device, then reused vs replayed
// ---------------------------------------------------------------------------

TEST(dispatch, all_apps_benign_rounds_identical) {
  for (const auto& app : four_apps()) {
    const auto prog =
        apps::build_app(app, instr::instrumentation::dialed);
    proto::prover_device dev(prog, test::test_key());
    std::array<std::uint8_t, 16> chal{};
    chal.fill(0x7e);
    const auto rep = dev.invoke(chal, app.representative_input);
    const auto fw = firmware_artifact::build(prog);
    const auto v = verify_then_reuse(*fw, rep, chal, app.name);
    EXPECT_TRUE(v.accepted) << app.name;
    EXPECT_EQ(v.replayed_result, rep.claimed_result) << app.name;
  }
}

TEST(dispatch, attack_and_forged_rounds_identical) {
  const auto prog =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto fw = firmware_artifact::build(prog);

  // Fig. 2 data-only attack: the bounds detector fires, and the replay
  // still reproduces what the device returned.
  const auto attack = dev.invoke(chal, apps::fig2_attack());
  const auto v_attack = verify_then_reuse(*fw, attack, chal, "fig2");
  EXPECT_TRUE(v_attack.has(attack_kind::data_only_attack));
  EXPECT_EQ(v_attack.replayed_result, attack.claimed_result);

  // Forged claimed result: caught by the replayed-result comparison.
  auto forged = dev.invoke(chal, apps::fig2_benign(1, 3));
  const std::uint16_t honest = forged.claimed_result;
  forged.claimed_result = 0xbeef;
  const auto v_forged = verify_then_reuse(*fw, forged, chal, "fig2-forged");
  EXPECT_TRUE(v_forged.has(attack_kind::result_forged));
  EXPECT_EQ(v_forged.replayed_result, honest);
}

TEST(dispatch, cfa_rounds_identical) {
  // Tiny-CFA mode never replays (no I-Log), but an offered prior round
  // must not change its verdict either.
  const auto prog =
      apps::build_app(apps::fig1_app(), instr::instrumentation::tinycfa);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto fw = firmware_artifact::build(prog);

  const auto benign =
      verify_then_reuse(*fw, dev.invoke(chal, apps::fig1_benign(5)), chal,
                        "fig1-benign");
  EXPECT_TRUE(benign.accepted);
  const auto attack = verify_then_reuse(
      *fw, dev.invoke(chal, apps::fig1_attack(prog, 15)), chal,
      "fig1-attack");
  EXPECT_FALSE(attack.accepted);
}

TEST(dispatch, hub_over_fuzz_corpus) {
  // One hub: a valid round is accepted with the prover's result, then
  // every checked-in wire fuzz corpus frame gets an answer, not a throw.
  device_registry reg(master_key());
  const auto prog = build_op("int op(int a, int b) { return a + b; }",
                             "op", instr::instrumentation::dialed);
  const auto id = reg.provision(prog);

  verifier_hub hub(reg);
  proto::prover_device dev(prog, reg.derive_key(id));
  {
    const auto grant = hub.challenge(id);
    proto::invocation inv;
    inv.args[0] = 20;
    inv.args[1] = 22;
    const auto rep = dev.invoke(grant.nonce, inv);
    ASSERT_EQ(rep.claimed_result, 42);
    const auto r = hub.submit(proto::encode_frame(
        proto::frame_info{.device_id = id, .seq = grant.seq}, rep));
    EXPECT_TRUE(r.accepted());
    EXPECT_EQ(r.verdict.replayed_result, rep.claimed_result);
  }

  const fs::path dir = DIALED_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(fs::exists(dir)) << dir << " missing";
  std::size_t frames = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".bin") continue;
    std::ifstream in(e.path(), std::ios::binary);
    const byte_vec bytes((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NO_THROW(hub.submit(bytes)) << e.path().filename();
    ++frames;
  }
  EXPECT_GT(frames, 10u);
}

// ---------------------------------------------------------------------------
// Decode-path oracles
// ---------------------------------------------------------------------------

TEST(decode_paths, cache_matches_image_on_apps_in_both_modes) {
  auto specs = four_apps();
  specs.push_back(apps::fig1_app());
  specs.push_back(apps::fig2_app());
  for (const auto mode : {instr::instrumentation::dialed,
                          instr::instrumentation::tinycfa}) {
    for (const auto& app : specs) {
      const auto fw = firmware_artifact::build(apps::build_app(app, mode));
      test::expect_decode_cache_matches_image(
          *fw, app.name + (mode == instr::instrumentation::dialed
                               ? "/dialed"
                               : "/tinycfa"));
    }
  }
}

TEST(decode_paths, self_modifying_op_replays_what_the_device_ran) {
  // The op overwrites its own `mov #1, r15` with `mov #2, r15` before
  // reaching it. The device returns 2; only a replay that decodes live
  // after the store does too. APEX clears EXEC on the ER write, so the
  // full verify still rejects the round.
  const auto prog =
      build_op("int op(int a, int b) { __mmio_w16(a, b); return 1; }", "op",
               instr::instrumentation::dialed);
  const auto fw = firmware_artifact::build(prog);
  std::vector<std::uint16_t> mov1_at;
  for (std::uint32_t pc = prog.er_min; pc <= prog.er_max; pc += 2) {
    const isa::decoded* d = fw->decoded_at(static_cast<std::uint16_t>(pc));
    if (d != nullptr && d->words == 1 &&
        (fw->flat_image()[pc] | fw->flat_image()[pc + 1] << 8) == 0x431f) {
      mov1_at.push_back(static_cast<std::uint16_t>(pc));
    }
  }
  ASSERT_EQ(mov1_at.size(), 1u);

  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};
  proto::invocation inv;
  inv.args[0] = mov1_at[0];
  inv.args[1] = 0x432f;  // mov #2, r15
  const auto rep = dev.invoke(chal, inv);
  ASSERT_EQ(rep.claimed_result, 2);

  const auto r = replay_operation(*fw, rep, {});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.final_r15, 2);
  EXPECT_TRUE(r.findings.empty());

  const auto v = fw->verify(
      rep, crypto::hmac_keystate::derive(test::test_key()), {}, chal);
  EXPECT_FALSE(v.accepted);
  EXPECT_TRUE(v.has(attack_kind::mac_invalid));
}

// ---------------------------------------------------------------------------
// Replay reuse: the device's last accepted round
// ---------------------------------------------------------------------------

instr::linked_program adder() {
  return build_op("int op(int a, int b) { return a + b; }", "op",
                  instr::instrumentation::dialed);
}

proto::invocation args(std::uint16_t a, std::uint16_t b) {
  proto::invocation inv;
  inv.args[0] = a;
  inv.args[1] = b;
  return inv;
}

/// One challenge -> invoke -> v2 frame -> submit round; `tamper` edits
/// the report in transit. Returns the report with the result.
std::pair<attestation_report, fleet::attest_result> round_on(
    test::hub_device& dut, const proto::invocation& inv,
    const std::function<void(attestation_report&)>& tamper = {}) {
  const auto grant = dut.hub.challenge(dut.id);
  auto rep = dut.dev.invoke(grant.nonce, inv);
  if (tamper) tamper(rep);
  auto r = dut.submit(grant, rep);
  return {std::move(rep), std::move(r)};
}

TEST(reuse, identical_rounds_replay_once_then_reuse_on_all_apps) {
  for (const auto& app : four_apps()) {
    const auto prog = apps::build_app(app, instr::instrumentation::dialed);
    test::hub_device dut(prog);
    const op_verifier fresh(prog, dut.registry.derive_key(dut.id));
    for (int round = 0; round < 3; ++round) {
      const auto label = app.name + " round " + std::to_string(round);
      const auto [rep, r] = round_on(dut, app.representative_input);
      ASSERT_TRUE(r.accepted()) << label;
      EXPECT_EQ(r.verdict.replay,
                round == 0 ? replay_path::replayed : replay_path::reused)
          << label;
      test::expect_same_verdict(fresh.verify(rep, rep.challenge), r.verdict,
                                label);
    }
    const auto s = dut.hub.stats();
    EXPECT_EQ(s.replay_memo_misses, 1u) << app.name;
    EXPECT_EQ(s.replay_memo_hits, 2u) << app.name;
  }
}

TEST(reuse, rejected_round_is_never_reused) {
  test::hub_device dut(adder());
  // The forged claim leaves the OR untouched, so the honest rounds that
  // follow carry byte-identical OR bytes: the first must still replay.
  const auto [forged_rep, forged] =
      round_on(dut, args(1, 2), [](attestation_report& rep) {
        rep.claimed_result = 0x1234;
      });
  EXPECT_FALSE(forged.accepted());
  EXPECT_TRUE(forged.verdict.has(attack_kind::result_forged));
  const auto [rep1, r1] = round_on(dut, args(1, 2));
  ASSERT_EQ(rep1.or_bytes, forged_rep.or_bytes);
  EXPECT_TRUE(r1.accepted());
  EXPECT_EQ(r1.verdict.replay, replay_path::replayed);
  const auto [rep2, r2] = round_on(dut, args(1, 2));
  EXPECT_TRUE(r2.accepted());
  EXPECT_EQ(r2.verdict.replay, replay_path::reused);
  const auto s = dut.hub.stats();
  EXPECT_EQ(s.replay_memo_misses, 2u);
  EXPECT_EQ(s.replay_memo_hits, 1u);
}

TEST(reuse, forged_claimed_result_is_caught_on_a_reused_round) {
  const auto prog = adder();
  test::hub_device dut(prog);
  const op_verifier fresh(prog, dut.registry.derive_key(dut.id));
  ASSERT_TRUE(round_on(dut, args(20, 22)).second.accepted());

  // The claimed result is covered by neither the OR nor the MAC.
  const auto [rep, r] =
      round_on(dut, args(20, 22), [](attestation_report& rep) {
        rep.claimed_result ^= 0x5a5a;
      });
  EXPECT_EQ(r.verdict.replay, replay_path::reused);
  EXPECT_FALSE(r.accepted());
  ASSERT_EQ(r.verdict.findings.size(), 1u);
  EXPECT_EQ(r.verdict.findings[0].kind, attack_kind::result_forged);
  test::expect_same_verdict(fresh.verify(rep, rep.challenge), r.verdict,
                            "forged-on-reuse");

  // The rejection did not displace the accepted round.
  const auto [rep3, r3] = round_on(dut, args(20, 22));
  EXPECT_TRUE(r3.accepted());
  EXPECT_EQ(r3.verdict.replay, replay_path::reused);
}

TEST(reuse, mac_is_verified_before_any_reuse) {
  test::hub_device dut(adder());
  ASSERT_TRUE(round_on(dut, args(20, 22)).second.accepted());

  const auto flip_or = round_on(dut, args(20, 22), [](auto& rep) {
    rep.or_bytes[rep.or_bytes.size() / 2] ^= 0x01;
  });
  EXPECT_TRUE(flip_or.second.verdict.has(attack_kind::mac_invalid));
  EXPECT_EQ(flip_or.second.verdict.replay, replay_path::none);

  // Byte-identical OR under a forged MAC: still no reuse.
  const auto flip_mac = round_on(dut, args(20, 22),
                                 [](auto& rep) { rep.mac[0] ^= 0x01; });
  EXPECT_TRUE(flip_mac.second.verdict.has(attack_kind::mac_invalid));
  EXPECT_EQ(flip_mac.second.verdict.replay, replay_path::none);

  const auto s = dut.hub.stats();
  EXPECT_EQ(s.replay_memo_misses, 1u);
  EXPECT_EQ(s.replay_memo_hits, 0u);
}

TEST(reuse, second_device_with_identical_or_replays) {
  fleet::device_registry reg(test::test_key());
  const auto prog = adder();
  const auto id_a = reg.provision(prog);
  const auto id_b = reg.provision(prog);
  verifier_hub hub(reg);
  std::vector<attestation_report> reps;
  for (const auto id : {id_a, id_b}) {
    proto::prover_device dev(prog, reg.derive_key(id));
    const auto grant = hub.challenge(id);
    reps.push_back(dev.invoke(grant.nonce, args(20, 22)));
    const auto r = hub.submit(proto::encode_frame(
        proto::frame_info{.device_id = id, .seq = grant.seq}, reps.back()));
    ASSERT_TRUE(r.accepted());
    EXPECT_EQ(r.verdict.replay, replay_path::replayed);
  }
  // Same firmware, same inputs: the OR bytes do not depend on the key.
  EXPECT_EQ(reps[0].or_bytes, reps[1].or_bytes);
  const auto s = hub.stats();
  EXPECT_EQ(s.replay_memo_misses, 2u);
  EXPECT_EQ(s.replay_memo_hits, 0u);
}

TEST(reuse, reopened_store_replays_the_first_round_then_reuses) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "dialed-reuse-reopened-store";
  fs::remove_all(dir);
  store::fleet_store::options opts;
  opts.master_key = master_key();

  fleet::device_id id = 0;
  byte_vec or_bytes;
  {
    auto st = store::fleet_store::open(dir.string(), opts);
    id = st.registry->provision(adder());
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    const auto rep = dev.invoke(g.nonce, args(20, 22));
    ASSERT_TRUE(st.hub->submit(proto::encode_frame(
                                   {.device_id = id, .seq = g.seq}, rep))
                    .accepted());
    or_bytes = rep.or_bytes;
  }  // "crash"

  // The restarted hub holds no accepted round for the device: the first
  // identical round replays, and the one after it reuses that replay.
  {
    auto st = store::fleet_store::open(dir.string(), opts);
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    for (const auto want : {replay_path::replayed, replay_path::reused}) {
      const auto g = st.hub->challenge(id);
      const auto rep = dev.invoke(g.nonce, args(20, 22));
      ASSERT_EQ(rep.or_bytes, or_bytes);
      const auto r = st.hub->submit(
          proto::encode_frame({.device_id = id, .seq = g.seq}, rep));
      ASSERT_TRUE(r.accepted());
      EXPECT_EQ(r.verdict.replay, want);
    }
    const auto s = st.hub->stats();
    EXPECT_EQ(s.replay_memo_misses, 1u);
    EXPECT_EQ(s.replay_memo_hits, 1u);
  }
  fs::remove_all(dir);
}

TEST(reuse, concurrent_rounds_of_one_device) {
  // Four threads submit rounds of ONE device at once while accepted
  // rounds swap its baseline (run under TSan in CI). Two input vectors
  // interleave, so reuse hits and replays both race with the swaps. A
  // round whose bytes and verdict came from different rounds would
  // carry the wrong replayed result and fail the claimed-result check.
  fleet::hub_config cfg;
  cfg.max_outstanding = 32;
  test::hub_device dut(adder(), cfg);
  ASSERT_TRUE(round_on(dut, args(20, 22)).second.accepted());

  std::vector<byte_vec> frames;
  std::vector<attestation_report> reps;
  for (int i = 0; i < 24; ++i) {
    const auto grant = dut.hub.challenge(dut.id);
    reps.push_back(dut.dev.invoke(
        grant.nonce, i % 3 == 2 ? args(1, 2) : args(20, 22)));
    frames.push_back(proto::encode_frame(
        {.device_id = dut.id, .seq = grant.seq}, reps.back()));
  }
  std::vector<fleet::attest_result> results(frames.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < frames.size(); i += 4) {
        results[i] = dut.hub.submit(frames[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].accepted()) << i;
    EXPECT_EQ(results[i].verdict.replayed_result, i % 3 == 2 ? 3 : 42)
        << i;
  }
  const auto s = dut.hub.stats();
  EXPECT_EQ(s.replay_memo_hits + s.replay_memo_misses, 25u);

  // The baseline is the newest round (inputs 1, 2): a delta against the
  // previous round is the typed mismatch, one against the newest
  // reconstructs — and reuses, so its verdict matches its bytes.
  const auto grant = dut.hub.challenge(dut.id);
  const auto rep = dut.dev.invoke(grant.nonce, args(1, 2));
  const proto::frame_info info{.device_id = dut.id, .seq = grant.seq};
  const auto n = results.size();
  EXPECT_EQ(dut.hub
                .submit(proto::encode_delta_frame(info, rep,
                                                  results[n - 2].seq,
                                                  reps[n - 2].or_bytes))
                .error,
            proto::proto_error::baseline_mismatch);
  const auto r = dut.hub.submit(proto::encode_delta_frame(
      info, rep, results.back().seq, reps.back().or_bytes));
  EXPECT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replay, replay_path::reused);
  EXPECT_EQ(r.verdict.replayed_result, 3);
}

TEST(reuse, artifact_checks_artifact_policies_acceptance_and_bytes) {
  const auto prog = adder();
  const auto fw = firmware_artifact::build(prog);
  const auto other = firmware_artifact::build(
      build_op("int op(int a, int b) { return a - b; }", "op",
               instr::instrumentation::dialed));
  ASSERT_NE(fw->id(), other->id());
  proto::prover_device dev(prog, test::test_key());
  const auto ks = crypto::hmac_keystate::derive(test::test_key());
  std::array<std::uint8_t, 16> chal{};
  chal.fill(0x33);
  const auto rep = dev.invoke(chal, args(20, 22));
  const verdict v0 = fw->verify(rep, ks, {}, chal);
  ASSERT_TRUE(v0.accepted);
  ASSERT_EQ(v0.replay, replay_path::replayed);

  struct noop_policy : policy {
    std::string name() const override { return "noop"; }
  };
  const std::vector<std::shared_ptr<policy>> none;
  const std::vector<std::shared_ptr<policy>> one{
      std::make_shared<noop_policy>()};
  const auto path_with = [&](const accepted_round& prior,
                             const std::vector<std::shared_ptr<policy>>&
                                 policies) {
    return fw->verify(rep, ks, policies, chal, nullptr, &prior).replay;
  };

  EXPECT_EQ(path_with({fw->id(), rep.or_bytes, v0}, none),
            replay_path::reused);
  EXPECT_EQ(path_with({other->id(), rep.or_bytes, v0}, none),
            replay_path::replayed);
  EXPECT_EQ(path_with({fw->id(), rep.or_bytes, v0}, one),
            replay_path::replayed);
  auto rejected = v0;
  rejected.accepted = false;
  EXPECT_EQ(path_with({fw->id(), rep.or_bytes, rejected}, none),
            replay_path::replayed);
  auto flipped = rep.or_bytes;
  flipped.back() ^= 0x01;
  EXPECT_EQ(path_with({fw->id(), flipped, v0}, none), replay_path::replayed);
  const byte_vec shorter(rep.or_bytes.begin(), rep.or_bytes.end() - 2);
  EXPECT_EQ(path_with({fw->id(), shorter, v0}, none), replay_path::replayed);
}

// ---------------------------------------------------------------------------
// Capture differential: forensics on demand never change a decision
// ---------------------------------------------------------------------------

TEST(capture, forensics_sink_leaves_app_rounds_unchanged) {
  struct round {
    std::string label;
    apps::app_spec app;
    proto::invocation inv;
    bool fig1 = false;  ///< inv is built against the program below
  };
  std::vector<round> rounds;
  for (const auto& app : four_apps()) {
    rounds.push_back({app.name, app, app.representative_input});
  }
  rounds.push_back({"DoorLock-attack", apps::door_lock_app(),
                    apps::door_lock_attack({1, 2, 3, 4, 5, 6})});
  rounds.push_back({"fig1-benign", apps::fig1_app(), apps::fig1_benign(5)});
  rounds.push_back({"fig1-attack", apps::fig1_app(), {}, true});
  rounds.push_back({"fig2-benign", apps::fig2_app(), apps::fig2_benign(1, 3)});
  rounds.push_back({"fig2-attack", apps::fig2_app(), apps::fig2_attack()});

  std::array<std::uint8_t, 16> chal{};
  chal.fill(0x5d);
  for (const auto& r : rounds) {
    const auto prog = apps::build_app(r.app, instr::instrumentation::dialed);
    const auto fw = firmware_artifact::build(prog);
    proto::prover_device dev(prog, test::test_key());
    const auto rep =
        dev.invoke(chal, r.fig1 ? apps::fig1_attack(prog, 15) : r.inv);
    const auto fx = test::expect_capture_neutral(*fw, rep, r.label);
    EXPECT_FALSE(fx.annotated_log.empty()) << r.label;

    // Logs that disagree with the binary: one OR byte flipped at a time
    // (re-signing is moot — replay never reads the MAC), including the
    // consumed tail that the in-place OR compare covers.
    const std::size_t n = rep.or_bytes.size();
    for (const std::size_t at : {n - 1, n - 3, n - 20, n / 2, std::size_t{0}}) {
      auto flipped = rep;
      flipped.or_bytes[at] ^= 0x01;
      test::expect_capture_neutral(*fw, flipped,
                             r.label + " flip@" + std::to_string(at));
    }
  }
}

TEST(capture, forensics_sink_leaves_fuzz_corpus_unchanged) {
  // Every decodable corpus frame replayed against the adder artifact:
  // both arms must agree whatever the frame's bounds and OR length.
  const auto fw = firmware_artifact::build(
      build_op("int op(int a, int b) { return a + b; }", "op",
               instr::instrumentation::dialed));
  const fs::path dir = DIALED_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(fs::exists(dir)) << dir << " missing";
  std::size_t replayed = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".bin") continue;
    std::ifstream in(e.path(), std::ios::binary);
    const byte_vec bytes((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    const auto d = proto::decode_frame(bytes);
    if (!d.ok()) continue;
    test::expect_capture_neutral(*fw, d.frame.report, e.path().filename());
    ++replayed;
  }
  EXPECT_GT(replayed, 3u);
}

// ---------------------------------------------------------------------------
// Top-of-address-space fail-closed behavior
// ---------------------------------------------------------------------------

TEST(wraparound, artifact_rejects_layouts_abutting_top_of_memory) {
  auto prog = build_op("int op(int a, int b) { return a + b; }", "op",
                       instr::instrumentation::dialed);
  auto bad_or = prog;
  bad_or.options.map.or_max = 0xffff;
  EXPECT_THROW(firmware_artifact::build(bad_or), error);

  auto bad_er = prog;
  bad_er.er_max = 0xfffc;
  EXPECT_THROW(firmware_artifact::build(bad_er), error);

  // The unmodified layout builds fine.
  EXPECT_NE(firmware_artifact::build(prog), nullptr);
}

TEST(wraparound, replay_operation_fails_closed_on_wrapping_bounds) {
  const auto prog = build_op("int op(int a, int b) { return a + b; }",
                             "op", instr::instrumentation::dialed);
  const auto fw = firmware_artifact::build(prog);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};
  proto::invocation inv;
  inv.args[0] = 1;
  inv.args[1] = 2;
  auto rep = dev.invoke(chal, inv);

  rep.or_max = 0xffff;
  const auto r = replay_operation(*fw, rep, {});
  EXPECT_FALSE(r.completed);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, attack_kind::bounds_mismatch);

  rep.or_max = prog.options.map.or_max;
  rep.er_max = 0xfffc;
  const auto r2 = replay_operation(*fw, rep, {});
  EXPECT_FALSE(r2.completed);
  ASSERT_EQ(r2.findings.size(), 1u);
  EXPECT_EQ(r2.findings[0].kind, attack_kind::bounds_mismatch);
}

TEST(wraparound, memmap_in_or_does_not_wrap_empty) {
  emu::memory_map m;
  m.or_min = 0xff00;
  m.or_max = 0xffff;  // rejected by the verifier, but the predicate must
                      // still describe the region truthfully
  EXPECT_TRUE(m.in_or(0xffff));
  EXPECT_TRUE(m.in_or(0xff00));
  EXPECT_FALSE(m.in_or(0xfeff));
  EXPECT_FALSE(m.in_or(0x0000));
}

}  // namespace
}  // namespace dialed::verifier
