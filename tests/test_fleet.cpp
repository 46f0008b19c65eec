// Fleet layer: device registry (KDF, provisioning), verifier hub
// (challenge tables, expiry, anti-replay, typed errors) and the
// multi-device end-to-end protocol over wire v2.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "common/error.h"
#include "fleet/stats_render.h"
#include "fleet/verifier_hub.h"
#include "helpers.h"
#include "proto/wire.h"

namespace dialed::fleet {
namespace {

using test::build_op;

constexpr const char* adder = "int op(int a, int b) { return a + b; }";

byte_vec master_key() { return byte_vec(32, 0x42); }

instr::linked_program adder_prog() {
  return build_op(adder, "op", instr::instrumentation::dialed);
}

proto::invocation args(std::uint16_t a0, std::uint16_t a1 = 0) {
  proto::invocation inv;
  inv.args[0] = a0;
  inv.args[1] = a1;
  return inv;
}

byte_vec frame_for(device_id id, const challenge_grant& grant,
                   const verifier::attestation_report& rep) {
  proto::frame_info info;
  info.device_id = id;
  info.seq = grant.seq;
  return proto::encode_frame(info, rep);
}

/// Frame `rep` as a v2 report for (`id`, `seq`) and submit it.
attest_result submit_report(verifier_hub& hub, device_id id,
                            std::uint32_t seq,
                            const verifier::attestation_report& rep) {
  proto::frame_info info;
  info.device_id = id;
  info.seq = seq;
  return hub.submit(proto::encode_frame(info, rep));
}

// ---------------------------------------------------------------------------
// Registry / KDF
// ---------------------------------------------------------------------------

TEST(registry, kdf_is_deterministic_and_id_dependent) {
  device_registry a(master_key());
  device_registry b(master_key());
  EXPECT_EQ(a.derive_key(7), b.derive_key(7));
  EXPECT_NE(a.derive_key(7), a.derive_key(8));
  EXPECT_EQ(a.derive_key(7).size(), 32u);
  device_registry other(byte_vec(32, 0x43));
  EXPECT_NE(a.derive_key(7), other.derive_key(7));
}

TEST(registry, provision_assigns_stable_ids_and_derived_keys) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id1 = reg.provision(prog);
  const auto id2 = reg.provision(prog);
  EXPECT_NE(id1, id2);
  ASSERT_NE(reg.find(id1), nullptr);
  EXPECT_EQ(reg.find(id1)->key, reg.derive_key(id1));
  EXPECT_EQ(reg.find(id2)->key, reg.derive_key(id2));
  EXPECT_EQ(reg.find(9999), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(registry, explicit_ids_rejected_when_taken_or_zero) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  EXPECT_EQ(reg.provision(17, prog), 17u);
  EXPECT_THROW(reg.provision(17, prog), error);
  EXPECT_THROW(reg.provision(0, prog), error);
  // Auto-assignment walks past explicitly taken ids.
  device_registry reg2(master_key());
  reg2.provision(1, prog);
  reg2.provision(2, prog);
  const auto id = reg2.provision(prog);
  EXPECT_EQ(reg2.find(id)->id, id);
  EXPECT_NE(id, 1u);
  EXPECT_NE(id, 2u);
}

TEST(registry, misuse_raises_typed_errors) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  reg.provision(9, prog);

  // Duplicate re-provisioning never silently overwrites the record.
  const auto* before = reg.find(9);
  try {
    reg.provision(9, build_op("int op(int x) { return x; }", "op",
                              instr::instrumentation::dialed));
    FAIL() << "duplicate id accepted";
  } catch (const registry_error& e) {
    EXPECT_EQ(e.kind(), registry_error_kind::duplicate_id);
  }
  EXPECT_EQ(reg.find(9), before);
  EXPECT_EQ(reg.size(), 1u);
  // The rejected program must not pollute the catalog either.
  EXPECT_EQ(reg.catalog()->size(), 1u);

  try {
    reg.provision(0, prog);
    FAIL() << "reserved id accepted";
  } catch (const registry_error& e) {
    EXPECT_EQ(e.kind(), registry_error_kind::reserved_id);
  }

  // Empty keys are rejected instead of silently enrolling an
  // unattestable device.
  try {
    reg.enroll(prog, byte_vec{});
    FAIL() << "empty device key accepted";
  } catch (const registry_error& e) {
    EXPECT_EQ(e.kind(), registry_error_kind::empty_key);
  }
  EXPECT_EQ(reg.size(), 1u);

  try {
    device_registry bad(byte_vec{});
    FAIL() << "empty master key accepted";
  } catch (const registry_error& e) {
    EXPECT_EQ(e.kind(), registry_error_kind::empty_master_key);
  }
}

// ---------------------------------------------------------------------------
// Hub: challenge lifecycle
// ---------------------------------------------------------------------------

TEST(hub, unknown_device_is_a_typed_error) {
  device_registry reg(master_key());
  verifier_hub hub(reg);
  EXPECT_EQ(hub.challenge(5).error, proto_error::unknown_device);
  verifier::attestation_report rep;
  EXPECT_EQ(submit_report(hub, 5, 1, rep).error,
            proto_error::unknown_device);
}

TEST(hub, accepts_fresh_report_and_rejects_replay) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto grant = hub.challenge(id);
  ASSERT_TRUE(grant.ok());
  const auto rep = dev.invoke(grant.nonce, args(20, 22));
  const auto r = submit_report(hub, id, grant.seq, rep);
  EXPECT_EQ(r.error, proto_error::none);
  EXPECT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 42);
  // The nonce is consumed: an identical report is a typed replay error.
  const auto replay = submit_report(hub, id, grant.seq, rep);
  EXPECT_EQ(replay.error, proto_error::replayed_report);
  EXPECT_FALSE(replay.accepted());
}

TEST(hub, many_outstanding_challenges_complete_out_of_order) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g1 = hub.challenge(id);
  const auto g2 = hub.challenge(id);
  const auto g3 = hub.challenge(id);
  EXPECT_EQ(hub.outstanding(id), 3u);
  EXPECT_LT(g1.seq, g2.seq);
  EXPECT_LT(g2.seq, g3.seq);

  // Answer newest first: per-challenge consumption, not strict ordering.
  const auto r3 = submit_report(hub, id, g3.seq, dev.invoke(g3.nonce, args(3)));
  const auto r1 = submit_report(hub, id, g1.seq, dev.invoke(g1.nonce, args(1)));
  const auto r2 = submit_report(hub, id, g2.seq, dev.invoke(g2.nonce, args(2)));
  EXPECT_TRUE(r1.accepted());
  EXPECT_TRUE(r2.accepted());
  EXPECT_TRUE(r3.accepted());
  EXPECT_EQ(r1.verdict.replayed_result, 1);
  EXPECT_EQ(r2.verdict.replayed_result, 2);
  EXPECT_EQ(r3.verdict.replayed_result, 3);
  EXPECT_EQ(hub.outstanding(id), 0u);
}

TEST(hub, capacity_eviction_is_explicit_challenge_superseded) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  hub_config cfg;
  cfg.max_outstanding = 2;
  verifier_hub hub(reg, cfg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g1 = hub.challenge(id);
  const auto g2 = hub.challenge(id);
  EXPECT_EQ(g1.note, proto_error::none);
  EXPECT_EQ(g2.note, proto_error::none);
  const auto rep1 = dev.invoke(g1.nonce, args(1));  // answer g1... too late:
  const auto g3 = hub.challenge(id);                // g3 evicts g1
  EXPECT_EQ(g3.note, proto_error::challenge_superseded);
  const auto r1 = submit_report(hub, id, g1.seq, rep1);
  EXPECT_EQ(r1.error, proto_error::challenge_superseded);
  // g2 and g3 still verify.
  EXPECT_TRUE(submit_report(hub, id, g2.seq, dev.invoke(g2.nonce, args(2)))
                  .accepted());
  EXPECT_TRUE(submit_report(hub, id, g3.seq, dev.invoke(g3.nonce, args(3)))
                  .accepted());
}

TEST(hub, challenges_expire_on_the_tick_clock) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  hub_config cfg;
  cfg.challenge_ttl = 10;
  verifier_hub hub(reg, cfg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g1 = hub.challenge(id);
  const auto rep1 = dev.invoke(g1.nonce, args(1));
  hub.tick(5);
  const auto g2 = hub.challenge(id);  // younger: survives the cutoff
  hub.tick(6);                        // g1 is now 11 ticks old, g2 only 6
  const auto r1 = submit_report(hub, id, g1.seq, rep1);
  EXPECT_EQ(r1.error, proto_error::challenge_expired);
  const auto r2 = submit_report(hub, id, g2.seq, dev.invoke(g2.nonce, args(2)));
  EXPECT_TRUE(r2.accepted());
}

TEST(hub, sequence_mismatch_is_detected) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g1 = hub.challenge(id);
  const auto g2 = hub.challenge(id);
  // A frame carrying g1's nonce but claiming g2's seq is inconsistent.
  const auto rep = dev.invoke(g1.nonce, args(1));
  EXPECT_EQ(submit_report(hub, id, g2.seq, rep).error,
            proto_error::sequence_mismatch);
  // A wire seq of 0 is NOT a skip token: it must mismatch too.
  EXPECT_EQ(submit_report(hub, id, 0, rep).error,
            proto_error::sequence_mismatch);
  // A mismatch burns nothing: the consistent (nonce, seq) still verifies.
  EXPECT_TRUE(submit_report(hub, id, g1.seq, rep).accepted());
}

TEST(hub, never_issued_nonce_is_stale) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev(prog, reg.derive_key(id));
  std::array<std::uint8_t, 16> bogus{};
  bogus.fill(0xee);
  const auto rep = dev.invoke(bogus, args(1));
  EXPECT_EQ(submit_report(hub, id, 1, rep).error, proto_error::stale_nonce);
}

// ---------------------------------------------------------------------------
// Cross-device isolation
// ---------------------------------------------------------------------------

TEST(hub, report_mac_from_device_a_rejected_for_device_b) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id_a = reg.provision(prog);
  const auto id_b = reg.provision(prog);
  ASSERT_NE(reg.derive_key(id_a), reg.derive_key(id_b));
  verifier_hub hub(reg);
  proto::prover_device dev_a(prog, reg.derive_key(id_a));

  // Device A answers a challenge issued to B (same program, wrong key):
  // the MAC cannot verify under K_dev(B).
  const auto grant_b = hub.challenge(id_b);
  const auto rep = dev_a.invoke(grant_b.nonce, args(20, 22));
  const auto r = submit_report(hub, id_b, grant_b.seq, rep);
  EXPECT_EQ(r.error, proto_error::none);  // protocol-level fine...
  EXPECT_FALSE(r.accepted());             // ...but cryptographically rejected
  EXPECT_TRUE(r.verdict.has(verifier::attack_kind::mac_invalid));
}

TEST(hub, frame_rerouted_to_another_device_rejected) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id_a = reg.provision(prog);
  const auto id_b = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev_a(prog, reg.derive_key(id_a));

  const auto grant_a = hub.challenge(id_a);
  const auto rep = dev_a.invoke(grant_a.nonce, args(20, 22));
  // An attacker rewrites the frame header to claim device B's identity.
  proto::frame_info forged;
  forged.device_id = id_b;
  forged.seq = grant_a.seq;
  const auto r = hub.submit(proto::encode_frame(forged, rep));
  // B never saw this nonce — typed protocol error, no MAC work done.
  EXPECT_EQ(r.error, proto_error::stale_nonce);
}

// ---------------------------------------------------------------------------
// End-to-end: a three-device fleet over wire v2
// ---------------------------------------------------------------------------

TEST(hub, three_device_fleet_end_to_end) {
  device_registry reg(master_key());
  const auto prog_add = adder_prog();
  const auto prog_mul =
      build_op("int op(int a, int b) { return a * b; }", "op",
               instr::instrumentation::dialed);
  const auto id1 = reg.provision(prog_add);
  const auto id2 = reg.provision(prog_mul);
  const auto id3 = reg.provision(prog_add);
  verifier_hub hub(reg);

  proto::prover_device dev1(prog_add, reg.derive_key(id1));
  proto::prover_device dev2(prog_mul, reg.derive_key(id2));
  proto::prover_device dev3(prog_add, reg.derive_key(id3));

  // All three challenges outstanding concurrently before any report.
  const auto g1 = hub.challenge(id1);
  const auto g2 = hub.challenge(id2);
  const auto g3 = hub.challenge(id3);
  ASSERT_TRUE(g1.ok() && g2.ok() && g3.ok());

  const auto f1 = frame_for(id1, g1, dev1.invoke(g1.nonce, args(6, 7)));
  const auto f2 = frame_for(id2, g2, dev2.invoke(g2.nonce, args(6, 7)));
  const auto f3 = frame_for(id3, g3, dev3.invoke(g3.nonce, args(40, 2)));

  // Submit out of order, as fleet traffic arrives.
  const auto r2 = hub.submit(f2);
  const auto r1 = hub.submit(f1);
  const auto r3 = hub.submit(f3);
  EXPECT_TRUE(r1.accepted());
  EXPECT_TRUE(r2.accepted());
  EXPECT_TRUE(r3.accepted());
  EXPECT_EQ(r1.verdict.replayed_result, 13);
  EXPECT_EQ(r2.verdict.replayed_result, 42);
  EXPECT_EQ(r3.verdict.replayed_result, 42);
  EXPECT_EQ(r1.device, id1);
  EXPECT_EQ(r2.device, id2);

  // A frame replayed across challenges is rejected with a typed error.
  EXPECT_EQ(hub.submit(f2).error, proto_error::replayed_report);
}

TEST(hub, batch_verification_matches_individual_submits) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id1 = reg.provision(prog);
  const auto id2 = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev1(prog, reg.derive_key(id1));
  proto::prover_device dev2(prog, reg.derive_key(id2));

  std::vector<byte_vec> frames;
  std::vector<std::uint16_t> expect;
  for (int round = 0; round < 3; ++round) {
    const auto g1 = hub.challenge(id1);
    const auto g2 = hub.challenge(id2);
    const auto a = static_cast<std::uint16_t>(10 * (round + 1));
    frames.push_back(frame_for(id1, g1, dev1.invoke(g1.nonce, args(a, 1))));
    frames.push_back(frame_for(id2, g2, dev2.invoke(g2.nonce, args(a, 2))));
    expect.push_back(static_cast<std::uint16_t>(a + 1));
    expect.push_back(static_cast<std::uint16_t>(a + 2));
  }
  // One corrupted frame in the middle must not poison the batch.
  frames.insert(frames.begin() + 3, byte_vec(20, 0));
  expect.insert(expect.begin() + 3, 0);

  const auto results = hub.verify_batch(frames);
  ASSERT_EQ(results.size(), frames.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) {
      EXPECT_EQ(results[i].error, proto_error::bad_magic);
      continue;
    }
    EXPECT_TRUE(results[i].accepted()) << "frame " << i;
    EXPECT_EQ(results[i].verdict.replayed_result, expect[i]);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: one hub under multi-threaded traffic
// ---------------------------------------------------------------------------

// A cheap, wire-valid frame for hammering the hub's locking: the challenge
// nonce/device/seq are real, the rest of the report is default garbage, so
// the nonce bookkeeping (the part under the hub's mutex) runs in full but
// verification exits early with bounds_mismatch — error == none either way.
byte_vec dummy_frame(device_id id, const challenge_grant& grant) {
  verifier::attestation_report rep;
  rep.challenge = grant.nonce;
  proto::frame_info info;
  info.device_id = id;
  info.seq = grant.seq;
  return proto::encode_frame(info, rep);
}

TEST(hub_concurrency, hammered_challenge_submit_never_loses_or_dupes_nonces) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  std::vector<device_id> ids;
  for (int d = 0; d < 6; ++d) ids.push_back(reg.provision(prog));

  constexpr int threads = 8;
  constexpr int iterations = 40;
  hub_config cfg;
  cfg.max_outstanding = threads * 2;  // headroom: no supersede noise
  // The duplicate-submit check below needs the consumed nonce still in the
  // retired history; between a thread's two submits the OTHER 7 threads
  // can retire up to 7 * iterations entries on the same device, so the
  // window must exceed threads * iterations to be schedule-proof.
  cfg.retired_memory = threads * iterations * 2;
  verifier_hub hub(reg, cfg);

  // Every thread hits EVERY device each iteration — maximal overlap on the
  // hub's mutex and the per-device tables.
  std::atomic<int> failures{0};
  std::vector<std::vector<std::array<std::uint8_t, 16>>> nonces(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < iterations; ++i) {
        for (const auto id : ids) {
          const auto grant = hub.challenge(id);
          if (!grant.ok() || grant.note != proto_error::none) {
            ++failures;
            continue;
          }
          nonces[t].push_back(grant.nonce);
          const auto frame = dummy_frame(id, grant);
          // Exactly one submit consumes the nonce...
          const auto first = hub.submit(frame);
          if (first.error != proto_error::none ||
              first.device != id || first.seq != grant.seq) {
            ++failures;
          }
          // ...and the duplicate is a typed replay, never a second verify.
          const auto second = hub.submit(frame);
          if (second.error != proto_error::replayed_report) ++failures;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every issued nonce was consumed: nothing left outstanding anywhere.
  for (const auto id : ids) EXPECT_EQ(hub.outstanding(id), 0u);

  // No nonce collisions across devices or threads.
  std::set<std::array<std::uint8_t, 16>> unique;
  std::size_t total = 0;
  for (const auto& per_thread : nonces) {
    total += per_thread.size();
    unique.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(unique.size(), total);
  EXPECT_EQ(total,
            static_cast<std::size_t>(threads) * iterations * ids.size());
}

TEST(hub, delta_fallback_negotiation_keeps_the_nonce_alive) {
  // Wire v2.1 negotiation: a delta frame naming a baseline the hub does
  // not hold is the typed baseline_mismatch, the challenge SURVIVES, and
  // the full-frame resend for the same nonce verifies. The delta_emitter
  // drives exactly this loop.
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev(prog, reg.derive_key(id));
  proto::delta_emitter emitter;

  // A desynced emitter: it believes in a baseline the hub never adopted.
  const auto g1 = hub.challenge(id);
  const auto rep1 = dev.invoke(g1.nonce, args(20, 22));
  emitter.note_result(id, 999, rep1, proto_error::none, true);
  ASSERT_TRUE(emitter.has_baseline(id));

  const auto delta_frame = emitter.encode(id, g1.seq, rep1);
  const auto r1 = hub.submit(delta_frame);
  EXPECT_EQ(r1.error, proto_error::baseline_mismatch);
  EXPECT_EQ(hub.outstanding(id), 1u);  // NOT burned
  emitter.note_result(id, g1.seq, rep1, r1.error, false);
  EXPECT_FALSE(emitter.has_baseline(id));  // mirror dropped

  // The re-encode of the SAME report now goes out full and verifies
  // against the SAME challenge.
  const auto full_frame = emitter.encode(id, g1.seq, rep1);
  const auto r2 = hub.submit(full_frame);
  ASSERT_TRUE(r2.accepted());
  emitter.note_result(id, g1.seq, rep1, r2.error, true);

  // Lockstep from here: round 2 rides a delta frame and verifies.
  const auto g2 = hub.challenge(id);
  const auto rep2 = dev.invoke(g2.nonce, args(7, 8));
  const auto frame2 = emitter.encode(id, g2.seq, rep2);
  EXPECT_LT(frame2.size(), full_frame.size());
  const auto r3 = hub.submit(frame2);
  ASSERT_TRUE(r3.accepted());
  EXPECT_EQ(r3.verdict.replayed_result, 15);

  // The histogram sees the mismatch, attributed to the device.
  const auto stats = hub.stats();
  EXPECT_EQ(stats.rejected_by_error[static_cast<std::size_t>(
                proto_error::baseline_mismatch)],
            1u);
  EXPECT_EQ(stats.per_device.at(id).rejected_protocol, 1u);
}

TEST(hub, adopted_baseline_survives_frame_buffer_reuse) {
  // The zero-copy decode hands verify a view INTO the submitted frame.
  // The baseline adopted from an accepted round must be a COPY of those
  // bytes — if adoption ever stored the span, reusing (or clobbering)
  // the frame buffer would tear every later delta reconstruction.
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g1 = hub.challenge(id);
  const auto rep1 = dev.invoke(g1.nonce, args(20, 22));
  auto frame1 = frame_for(id, g1, rep1);
  ASSERT_TRUE(hub.submit(frame1).accepted());

  // Clobber the buffer the hub borrowed during that submit, the way a
  // network receive loop reuses its read buffer for the next frame.
  std::fill(frame1.begin(), frame1.end(), std::uint8_t{0xcc});

  // A delta against the adopted baseline still reconstructs and
  // verifies: the hub kept its own bytes, not the dead view.
  const auto g2 = hub.challenge(id);
  const auto rep2 = dev.invoke(g2.nonce, args(6, 7));
  proto::frame_info info;
  info.device_id = id;
  info.seq = g2.seq;
  const auto r =
      hub.submit(proto::encode_delta_frame(info, rep2, g1.seq,
                                           rep1.or_bytes));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 13);
}

TEST(hub_concurrency, delta_submit_hammer_keeps_baselines_untorn) {
  // 8 threads × delta/full/tampered submissions on ONE device (maximal
  // contention on the baseline under the hub's mutex). Run under TSan in
  // CI. After the dust settles: the baseline must be EXACTLY the OR of the
  // newest-seq ACCEPTED round — tampered rounds never steer it, and a
  // torn write (interleaved bytes of two rounds) would match no round.
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);

  constexpr int threads = 8;
  constexpr int rounds_per_thread = 8;
  constexpr int total_rounds = threads * rounds_per_thread;
  hub_config cfg;
  cfg.max_outstanding = total_rounds;
  cfg.retired_memory = total_rounds * 2;
  verifier_hub hub(reg, cfg);

  // Pre-phase (single-threaded: the prover device is not): one grant and
  // one genuine report per round, args varied so every round's OR is
  // distinct — a torn baseline cannot masquerade as a valid one.
  struct round_data {
    challenge_grant grant;
    verifier::attestation_report rep;
    byte_vec full;
    byte_vec delta_vs_round0;  ///< valid only while round 0 is baseline
    byte_vec tampered;
  };
  proto::prover_device dev(prog, reg.derive_key(id));
  std::vector<round_data> rounds(total_rounds);
  for (int r = 0; r < total_rounds; ++r) {
    auto& rd = rounds[r];
    rd.grant = hub.challenge(id);
    rd.rep = dev.invoke(rd.grant.nonce,
                        args(static_cast<std::uint16_t>(r),
                             static_cast<std::uint16_t>(r * 3 + 1)));
    proto::frame_info info;
    info.device_id = id;
    info.seq = rd.grant.seq;
    rd.full = proto::encode_frame(info, rd.rep);
    auto forged = rd.rep;
    forged.claimed_result ^= 0xbeef;
    rd.tampered = proto::encode_frame(info, forged);
    if (r > 0) {
      rd.delta_vs_round0 = proto::encode_delta_frame(
          info, rd.rep, rounds[0].grant.seq, rounds[0].rep.or_bytes);
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::vector<std::uint32_t>> accepted_seqs(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < rounds_per_thread; ++i) {
        const int r = t * rounds_per_thread + i;
        const auto& rd = rounds[r];
        if (r % 5 == 4) {
          // Tampered round: reaches the verdict, must NOT be accepted
          // (and must never move the baseline — checked below).
          const auto res = hub.submit(rd.tampered);
          if (res.error != proto_error::none || res.verdict.accepted) {
            ++failures;
          }
        } else if (r % 2 == 1) {
          // Delta against round 0: races the baseline table. Accepted
          // only while round 0 IS the baseline; otherwise the typed
          // mismatch keeps the nonce alive for the full-frame fallback.
          const auto res = hub.submit(rd.delta_vs_round0);
          if (res.accepted()) {
            accepted_seqs[t].push_back(res.seq);
          } else if (res.error == proto_error::baseline_mismatch) {
            const auto full = hub.submit(rd.full);
            if (!full.accepted()) {
              ++failures;
            } else {
              accepted_seqs[t].push_back(full.seq);
            }
          } else {
            ++failures;
          }
        } else {
          const auto res = hub.submit(rd.full);
          if (!res.accepted()) {
            ++failures;
          } else {
            accepted_seqs[t].push_back(res.seq);
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  ASSERT_EQ(failures.load(), 0);

  // Accepted-verdict-only + newest-wins: the surviving baseline is the
  // max accepted seq's OR, byte for byte (a torn write or an adopted
  // tampered round would fail the delta against it), and nothing older:
  // a delta against the previous accepted round is the typed mismatch,
  // with the challenge kept for the delta that does reconstruct.
  std::vector<std::uint32_t> seqs;
  for (const auto& per_thread : accepted_seqs) {
    seqs.insert(seqs.end(), per_thread.begin(), per_thread.end());
  }
  ASSERT_GT(seqs.size(), 1u);
  std::sort(seqs.begin(), seqs.end());
  const std::uint32_t max_seq = seqs.back();
  const std::uint32_t prev_seq = seqs[seqs.size() - 2];
  // Grants were drawn in round order, so round r holds seq r + 1.
  const auto& newest = rounds[max_seq - 1];
  const auto& previous = rounds[prev_seq - 1];
  ASSERT_EQ(newest.grant.seq, max_seq);
  ASSERT_EQ(previous.grant.seq, prev_seq);

  const auto g = hub.challenge(id);
  const auto rep = dev.invoke(g.nonce, args(500, 1));
  proto::frame_info info;
  info.device_id = id;
  info.seq = g.seq;
  const auto stale = hub.submit(proto::encode_delta_frame(
      info, rep, prev_seq, previous.rep.or_bytes));
  EXPECT_EQ(stale.error, proto_error::baseline_mismatch);
  EXPECT_EQ(hub.outstanding(id), 1u);
  const auto r = hub.submit(
      proto::encode_delta_frame(info, rep, max_seq, newest.rep.or_bytes));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 501);
}

TEST(hub_concurrency, parallel_batch_results_are_order_stable) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  std::vector<device_id> ids;
  for (int d = 0; d < 4; ++d) ids.push_back(reg.provision(prog));

  hub_config cfg;
  cfg.max_outstanding = 64;
  verifier_hub hub(reg, cfg);

  // 4 devices x 32 rounds, interleaved round-robin so adjacent batch
  // entries hit different devices.
  std::vector<byte_vec> frames;
  std::vector<std::pair<device_id, std::uint32_t>> expect;
  for (int round = 0; round < 32; ++round) {
    for (const auto id : ids) {
      const auto grant = hub.challenge(id);
      ASSERT_TRUE(grant.ok());
      frames.push_back(dummy_frame(id, grant));
      expect.emplace_back(id, grant.seq);
    }
  }

  // Four threads each verify one quarter of the frames as a batch, all
  // at once: every device is in every quarter, so the threads contend on
  // the same devices. Each batch comes back in its input order.
  constexpr std::size_t threads = 4;
  const auto verify_all = [&] {
    const std::span<const byte_vec> all(frames);
    const std::size_t quarter = frames.size() / threads;
    std::vector<std::vector<attest_result>> parts(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        parts[t] = hub.verify_batch(all.subspan(t * quarter, quarter));
      });
    }
    for (auto& th : pool) th.join();
    std::vector<attest_result> results;
    for (auto& p : parts) results.insert(results.end(), p.begin(), p.end());
    return results;
  };

  const auto results = verify_all();
  ASSERT_EQ(results.size(), frames.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].error, proto_error::none) << "slot " << i;
    EXPECT_EQ(results[i].device, expect[i].first) << "slot " << i;
    EXPECT_EQ(results[i].seq, expect[i].second) << "slot " << i;
  }
  // Re-submitting the whole batch: every slot is a replay, still in order.
  const auto replays = verify_all();
  for (std::size_t i = 0; i < replays.size(); ++i) {
    EXPECT_EQ(replays[i].error, proto_error::replayed_report);
    EXPECT_EQ(replays[i].device, expect[i].first);
  }
}

TEST(hub_concurrency, outstanding_count_is_expiry_aware) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  hub_config cfg;
  cfg.challenge_ttl = 10;
  verifier_hub hub(reg, cfg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g1 = hub.challenge(id);
  const auto rep1 = dev.invoke(g1.nonce, args(1));
  hub.tick(5);
  hub.challenge(id);
  EXPECT_EQ(hub.outstanding(id), 2u);
  // g1 dies at age 11. No challenge/verify runs on this device in
  // between, so only the lazily-swept table holds it — the count must
  // still exclude it.
  hub.tick(6);
  EXPECT_EQ(hub.outstanding(id), 1u);
  hub.tick(5);  // now g2 (age 11) is dead too
  EXPECT_EQ(hub.outstanding(id), 0u);
  // The late report still gets its precise typed error.
  EXPECT_EQ(submit_report(hub, id, g1.seq, rep1).error,
            proto_error::challenge_expired);
}

TEST(hub_concurrency, many_devices_one_firmware_verify_in_parallel) {
  // The fleet's dominant shape under the firmware catalog: every device
  // shares ONE immutable artifact, verified concurrently by four threads
  // (TSan checks the shared-artifact reads; each replay runs over a
  // memory of its own).
  device_registry reg(master_key());
  const auto prog = adder_prog();
  std::vector<device_id> ids;
  for (int d = 0; d < 12; ++d) ids.push_back(reg.provision(prog));
  EXPECT_EQ(reg.catalog()->size(), 1u);
  const auto* shared_fw = reg.find(ids[0])->firmware.get();
  for (const auto id : ids) {
    ASSERT_EQ(reg.find(id)->firmware.get(), shared_fw);
  }

  hub_config cfg;
  cfg.max_outstanding = 8;
  verifier_hub hub(reg, cfg);

  // Real (cryptographically valid) frames: the threads all run full MAC
  // + replay against the one shared artifact.
  std::vector<byte_vec> frames;
  std::vector<std::uint16_t> expect;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t d = 0; d < ids.size(); ++d) {
      const auto grant = hub.challenge(ids[d]);
      ASSERT_TRUE(grant.ok());
      proto::prover_device dev(prog, reg.derive_key(ids[d]));
      const auto a = static_cast<std::uint16_t>(100 * round + d);
      frames.push_back(
          frame_for(ids[d], grant, dev.invoke(grant.nonce, args(a, 1))));
      expect.push_back(static_cast<std::uint16_t>(a + 1));
    }
  }

  std::vector<attest_result> results(frames.size());
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < frames.size(); i += 4) {
        results[i] = hub.submit(frames[i]);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].accepted()) << "frame " << i;
    EXPECT_EQ(results[i].verdict.replayed_result, expect[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Challenge nonces: a per-hub keyed PRF over (device, seq)
// ---------------------------------------------------------------------------

TEST(hub, default_config_draws_a_fresh_nonce_key_per_hub) {
  // Two hubs with the default config serve the same registry: the same
  // device gets seq 1 from both, but the nonce key comes from
  // getrandom(2), so the nonces differ. A pinned seed reproduces them.
  device_registry reg(master_key());
  const auto id = reg.provision(adder_prog());
  hub_config cfg;
  verifier_hub a(reg, cfg);
  verifier_hub b(reg, cfg);
  const auto ga = a.challenge(id);
  const auto gb = b.challenge(id);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga.seq, gb.seq);
  EXPECT_NE(ga.nonce, gb.nonce);

  cfg.seed = 7;
  verifier_hub c(reg, cfg);
  verifier_hub d(reg, cfg);
  const auto gc = c.challenge(id);
  EXPECT_EQ(gc.nonce, d.challenge(id).nonce);
  // Same key, next seq: a different nonce.
  EXPECT_NE(gc.nonce, c.challenge(id).nonce);
  cfg.seed = 8;
  verifier_hub e(reg, cfg);
  EXPECT_NE(gc.nonce, e.challenge(id).nonce);
}

// ---------------------------------------------------------------------------
// Hub metrics
// ---------------------------------------------------------------------------

TEST(hub, stats_count_accepts_rejects_and_challenge_lifecycle) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  hub_config cfg;
  cfg.challenge_ttl = 10;
  cfg.max_outstanding = 2;
  verifier_hub hub(reg, cfg);
  proto::prover_device dev(prog, reg.derive_key(id));

  EXPECT_EQ(hub.stats().reports_submitted(), 0u);

  // Accept one report, replay it (typed rejection), feed garbage
  // (transport rejection), and verify a forged result (verdict
  // rejection).
  const auto g1 = hub.challenge(id);
  const auto rep1 = dev.invoke(g1.nonce, args(20, 22));
  EXPECT_TRUE(submit_report(hub, id, g1.seq, rep1).accepted());
  EXPECT_EQ(submit_report(hub, id, g1.seq, rep1).error,
            proto_error::replayed_report);
  EXPECT_EQ(hub.submit(byte_vec(16, 0)).error, proto_error::bad_magic);

  const auto g2 = hub.challenge(id);
  auto forged = dev.invoke(g2.nonce, args(1, 2));
  forged.claimed_result = 0x1234;
  const auto r = submit_report(hub, id, g2.seq, forged);
  EXPECT_EQ(r.error, proto_error::none);
  EXPECT_FALSE(r.accepted());

  // Expire a challenge on the tick clock; the sweep happens lazily on the
  // next challenge for that device.
  hub.challenge(id);
  hub.tick(11);
  const auto g4 = hub.challenge(id);
  ASSERT_TRUE(g4.ok());

  // Fill the table (max_outstanding = 2) and overflow it: the eviction
  // must show up as a superseded challenge.
  hub.challenge(id);
  const auto g6 = hub.challenge(id);
  EXPECT_EQ(g6.note, proto_error::challenge_superseded);

  const auto s = hub.stats();
  EXPECT_EQ(s.challenges_issued, 6u);
  EXPECT_EQ(s.challenges_expired, 1u);
  EXPECT_EQ(s.challenges_superseded, 1u);
  EXPECT_EQ(s.reports_accepted, 1u);
  EXPECT_EQ(s.reports_rejected_verdict, 1u);
  EXPECT_EQ(s.rejected_by_error[static_cast<std::size_t>(
                proto_error::replayed_report)],
            1u);
  EXPECT_EQ(
      s.rejected_by_error[static_cast<std::size_t>(proto_error::bad_magic)],
      1u);
  EXPECT_EQ(s.reports_rejected_protocol(), 2u);
  EXPECT_EQ(s.reports_submitted(), 4u);
  EXPECT_EQ(s.rejected_by_error[0], 0u);  // proto_error::none never counts
}

TEST(hub, stats_break_down_per_device) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id_a = reg.provision(prog);
  const auto id_b = reg.provision(prog);
  verifier_hub hub(reg, {});
  proto::prover_device dev_a(prog, reg.derive_key(id_a));
  proto::prover_device dev_b(prog, reg.derive_key(id_b));

  // Device A: two accepts, then a replay of the second report.
  for (int i = 0; i < 2; ++i) {
    const auto g = hub.challenge(id_a);
    EXPECT_TRUE(
        submit_report(hub, id_a, g.seq, dev_a.invoke(g.nonce, args(1, 2)))
            .accepted());
  }
  const auto ga = hub.challenge(id_a);
  const auto rep_a = dev_a.invoke(ga.nonce, args(3, 4));
  EXPECT_TRUE(submit_report(hub, id_a, ga.seq, rep_a).accepted());
  EXPECT_EQ(submit_report(hub, id_a, ga.seq, rep_a).error,
            proto_error::replayed_report);

  // Device B: one verdict rejection (forged result) and one protocol
  // rejection (sequence mismatch).
  const auto gb = hub.challenge(id_b);
  auto forged = dev_b.invoke(gb.nonce, args(1, 2));
  forged.claimed_result = 0x1234;
  EXPECT_FALSE(submit_report(hub, id_b, gb.seq, forged).accepted());
  const auto gb2 = hub.challenge(id_b);
  EXPECT_EQ(submit_report(hub, id_b, gb2.seq + 7,
                              dev_b.invoke(gb2.nonce, args(1, 2)))
                .error,
            proto_error::sequence_mismatch);

  // A submission for an unprovisioned id must NOT grow the map.
  verifier::attestation_report bogus;
  EXPECT_EQ(submit_report(hub, 9999, 1, bogus).error,
            proto_error::unknown_device);

  const auto s = hub.stats();
  ASSERT_EQ(s.per_device.size(), 2u);
  EXPECT_EQ(s.per_device.at(id_a).accepted, 3u);
  EXPECT_EQ(s.per_device.at(id_a).replayed, 1u);
  EXPECT_EQ(s.per_device.at(id_a).rejected_verdict, 0u);
  EXPECT_EQ(s.per_device.at(id_a).rejected_protocol, 0u);
  EXPECT_EQ(s.per_device.at(id_b).accepted, 0u);
  EXPECT_EQ(s.per_device.at(id_b).rejected_verdict, 1u);
  EXPECT_EQ(s.per_device.at(id_b).rejected_protocol, 1u);
  EXPECT_EQ(s.per_device.at(id_b).total(), 2u);
  EXPECT_EQ(s.per_device.count(9999), 0u);
  // The per-device rows sum to the hub-level totals they break down.
  EXPECT_EQ(s.per_device.at(id_a).total() + s.per_device.at(id_b).total(),
            s.reports_submitted() - 1);  // minus the unknown-device one
}

// ---------------------------------------------------------------------------
// Single-outstanding devices through the wire front door
// ---------------------------------------------------------------------------

TEST(front_door, single_outstanding_device_reports_superseded) {
  const auto prog = adder_prog();
  hub_config cfg;
  cfg.max_outstanding = 1;
  test::hub_device d(prog, cfg);
  const auto g1 = d.hub.challenge(d.id);
  const auto rep1 = d.dev.invoke(g1.nonce, args(1, 2));
  // A new challenge supersedes g1, and the grant says so.
  const auto g2 = d.hub.challenge(d.id);
  EXPECT_EQ(g2.note, proto_error::challenge_superseded);
  // The late report gets the precise typed error, not a verdict.
  const auto r = d.submit(g1, rep1);
  EXPECT_FALSE(r.accepted());
  EXPECT_EQ(r.error, proto_error::challenge_superseded);
  // The superseding challenge is still good.
  EXPECT_TRUE(d.submit(g2, d.dev.invoke(g2.nonce, args(1, 2))).accepted());
}

// ---------------------------------------------------------------------------
// Stats renderers: Prometheus exposition format, strictly parsed
// ---------------------------------------------------------------------------

/// Strict line parser for the Prometheus text exposition format — the
/// subset our renderers emit. Returns false (with a reason) on anything
/// a real scraper would reject: malformed names, unescaped quote /
/// backslash / newline in a label value, trailing junk, NaN-ish values.
bool parse_exposition_line(const std::string& line, std::string& why) {
  const auto name_ok = [](const std::string& n) {
    if (n.empty()) return false;
    for (std::size_t i = 0; i < n.size(); ++i) {
      const char c = n[i];
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      const bool digit = c >= '0' && c <= '9';
      if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) {
        return false;
      }
    }
    return true;
  };
  if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
    const auto rest = line.substr(7);
    const auto sp = rest.find(' ');
    if (sp == std::string::npos || !name_ok(rest.substr(0, sp)) ||
        sp + 1 >= rest.size()) {
      why = "malformed comment: " + line;
      return false;
    }
    if (line[2] == 'T') {
      const auto type = rest.substr(sp + 1);
      if (type != "counter" && type != "gauge") {
        why = "unknown TYPE: " + line;
        return false;
      }
    }
    return true;
  }

  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  if (!name_ok(line.substr(0, i))) {
    why = "bad metric name: " + line;
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (true) {
      std::size_t j = i;
      while (j < line.size() && line[j] != '=') ++j;
      if (j >= line.size() || !name_ok(line.substr(i, j - i)) ||
          j + 1 >= line.size() || line[j + 1] != '"') {
        why = "bad label name: " + line;
        return false;
      }
      i = j + 2;
      // Label value: only \\, \" and \n escapes; a raw quote ends it, a
      // raw backslash without a legal escape (or a raw newline, which
      // cannot appear in a line) is a renderer bug.
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= line.size() ||
              (line[i + 1] != '\\' && line[i + 1] != '"' &&
               line[i + 1] != 'n')) {
            why = "illegal escape: " + line;
            return false;
          }
          ++i;
        }
        ++i;
      }
      if (i >= line.size()) {
        why = "unterminated label value: " + line;
        return false;
      }
      ++i;  // closing quote
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (i >= line.size() || line[i] != '}') {
      why = "unterminated label set: " + line;
      return false;
    }
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    why = "missing value separator: " + line;
    return false;
  }
  const auto value = line.substr(i + 1);
  if (value.empty() ||
      value.find_first_not_of("0123456789.+-e") != std::string::npos) {
    why = "bad sample value: " + line;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pipeline observability (PR 9): stage histograms + flight recorder
// threaded through verify
// ---------------------------------------------------------------------------

TEST(hub_obs, accepted_report_times_every_stage) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg, {});
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g = hub.challenge(id);
  ASSERT_TRUE(
      submit_report(hub, id, g.seq, dev.invoke(g.nonce, args(2, 3)))
          .accepted());

  const auto p = hub.pipeline();
  // Every stage saw exactly one sample (0ns at clock granularity still
  // counts).
  using obs::stage;
  EXPECT_EQ(p.stages[static_cast<std::size_t>(stage::decode)].count, 1u);
  EXPECT_EQ(p.stages[static_cast<std::size_t>(stage::journal)].count, 1u);
  EXPECT_EQ(p.stages[static_cast<std::size_t>(stage::mac)].count, 1u);
  EXPECT_EQ(p.stages[static_cast<std::size_t>(stage::replay)].count, 1u);
  EXPECT_EQ(p.stages[static_cast<std::size_t>(stage::verdict)].count, 1u);
  // The replay dominates an accepted verify; its time must be nonzero
  // and no stage's sum may exceed the total recorded wall time.
  EXPECT_GT(p.stages[static_cast<std::size_t>(stage::replay)].sum_ns, 0u);

  // The (only) report is by definition the slowest: flight-recorded.
  const auto traces = hub.traces();
  ASSERT_EQ(traces.slow.size(), 1u);
  EXPECT_TRUE(traces.slow[0].accepted);
  EXPECT_EQ(traces.slow[0].device, id);
  EXPECT_GT(traces.slowest_ns, 0u);
  EXPECT_TRUE(traces.rejected.empty());
}

TEST(hub_obs, submit_times_decode_and_records_rejections) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg, {});
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g = hub.challenge(id);
  const auto rep = dev.invoke(g.nonce, args(7, 8));
  proto::frame_info info;
  info.device_id = id;
  info.seq = g.seq;
  const auto frame = proto::encode_frame(info, rep);
  ASSERT_TRUE(hub.submit(frame).accepted());
  // Same frame again: the replay rejection must land in the rejected
  // ring with the typed error and the device identity attached.
  EXPECT_EQ(hub.submit(frame).error, proto_error::replayed_report);

  const auto p = hub.pipeline();
  using obs::stage;
  EXPECT_EQ(p.stages[static_cast<std::size_t>(stage::decode)].count, 2u);
  // The replayed submit never reached mac/replay.
  EXPECT_EQ(p.stages[static_cast<std::size_t>(stage::mac)].count, 1u);
  EXPECT_EQ(p.stages[static_cast<std::size_t>(stage::journal)].count, 2u);

  const auto traces = hub.traces();
  ASSERT_EQ(traces.rejected.size(), 1u);
  EXPECT_EQ(traces.rejected[0].device, id);
  EXPECT_EQ(traces.rejected[0].error,
            static_cast<std::uint8_t>(proto_error::replayed_report));
  EXPECT_FALSE(traces.rejected[0].accepted);
}

TEST(hub_obs, disabled_observability_records_nothing) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  hub_config cfg;
  cfg.obs.enabled = false;
  verifier_hub hub(reg, cfg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto g = hub.challenge(id);
  ASSERT_TRUE(
      submit_report(hub, id, g.seq, dev.invoke(g.nonce, args(1, 1)))
          .accepted());

  const auto p = hub.pipeline();
  for (const auto& st : p.stages) EXPECT_EQ(st.count, 0u);
  const auto traces = hub.traces();
  EXPECT_TRUE(traces.slow.empty());
  EXPECT_TRUE(traces.rejected.empty());
  EXPECT_EQ(traces.slowest_ns, 0u);
}

TEST(stats_render, escape_label_value_covers_the_three_escapes) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("two\nlines"), "two\\nlines");
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
  // Everything else passes through untouched.
  EXPECT_EQ(escape_label_value("ümlaut {x=1}"), "ümlaut {x=1}");
}

TEST(stats_render, parser_rejects_unescaped_label_values) {
  std::string why;
  // Sanity-check the parser itself: an escaped hostile value passes...
  EXPECT_TRUE(parse_exposition_line(
      "m{reason=\"" + escape_label_value("evil\"\\\n") + "\"} 1", why))
      << why;
  // ...and the same value dropped in raw breaks the line.
  EXPECT_FALSE(parse_exposition_line("m{reason=\"evil\"\\\"} 1", why));
  EXPECT_FALSE(parse_exposition_line("m{reason=\"trailing\\\"} 1", why));
  EXPECT_FALSE(parse_exposition_line("m{reason=\"x\" 1", why));
  EXPECT_FALSE(parse_exposition_line("1badname 2", why));
}

TEST(stats_render, every_rendered_line_survives_a_strict_scraper) {
  // A hub_stats with every family populated, including the per-device
  // breakdown and the full rejection histogram.
  hub_stats s;
  s.challenges_issued = 12;
  s.challenges_expired = 1;
  s.challenges_superseded = 2;
  s.reports_accepted = 7;
  s.reports_rejected_verdict = 3;
  for (std::size_t i = 1; i < s.rejected_by_error.size(); ++i) {
    s.rejected_by_error[i] = i;
  }
  s.per_device[3] = device_counters{4, 1, 2, 0};
  s.per_device[900000001] = device_counters{1, 0, 0, 9};

  std::string out;
  render_stats_prometheus(s, out);
  hub_stats p1 = s;
  p1.challenges_issued = 99;
  render_partition_prometheus(std::vector<hub_stats>{s, p1}, out);

  std::size_t samples = 0;
  std::size_t partition_samples = 0;
  std::size_t start = 0;
  ASSERT_FALSE(out.empty());
  ASSERT_EQ(out.back(), '\n');
  while (start < out.size()) {
    const auto end = out.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const auto line = out.substr(start, end - start);
    start = end + 1;
    std::string why;
    EXPECT_TRUE(parse_exposition_line(line, why)) << why;
    if (line.rfind("# ", 0) != 0) {
      ++samples;
      if (line.rfind("dialed_partition_", 0) == 0) ++partition_samples;
    }
  }
  // The 7 scalar families, one histogram line per typed error, 4 outcome
  // lines per device, and the 4 per-partition families x 2 partitions.
  EXPECT_GE(samples, 7u + (proto::proto_error_count - 1) + 8u + 8u);
  EXPECT_EQ(partition_samples, 8u);

  // Empty partition span: unpartitioned scrape bodies are unchanged.
  std::string unchanged = out;
  render_partition_prometheus({}, unchanged);
  EXPECT_EQ(unchanged, out);
}

}  // namespace
}  // namespace dialed::fleet
