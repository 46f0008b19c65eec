// Firmware catalog + artifact layer: content-addressed interning, shared
// per-firmware verifier state, and the byte-equivalence guarantee — the
// shared-artifact/reused-machine verify path must produce verdicts
// identical to a fresh per-device op_verifier on the same frames.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "common/error.h"
#include "fleet/verifier_hub.h"
#include "helpers.h"
#include "proto/wire.h"
#include "store/codec.h"
#include "verifier/cfa_check.h"
#include "verifier/firmware_artifact.h"

namespace dialed::fleet {
namespace {

using test::build_op;
using test::expect_same_verdict;
using verifier::firmware_artifact;

constexpr const char* adder = "int op(int a, int b) { return a + b; }";

byte_vec master_key() { return byte_vec(32, 0x42); }

instr::linked_program adder_prog() {
  return build_op(adder, "op", instr::instrumentation::dialed);
}

// ---------------------------------------------------------------------------
// Fingerprint / content addressing
// ---------------------------------------------------------------------------

TEST(firmware_id, deterministic_across_independent_builds) {
  // Two separately compiled+linked builds of the same source intern to
  // the same content address.
  const auto a = firmware_artifact::fingerprint(adder_prog());
  const auto b = firmware_artifact::fingerprint(adder_prog());
  EXPECT_EQ(a, b);
}

TEST(firmware_id, distinguishes_source_mode_and_entry) {
  const auto base = firmware_artifact::fingerprint(adder_prog());
  const auto other_src = firmware_artifact::fingerprint(
      build_op("int op(int a, int b) { return a - b; }", "op",
               instr::instrumentation::dialed));
  const auto other_mode = firmware_artifact::fingerprint(
      build_op(adder, "op", instr::instrumentation::tinycfa));
  EXPECT_NE(base, other_src);
  EXPECT_NE(base, other_mode);
  EXPECT_NE(other_src, other_mode);
}

TEST(firmware_id, golden_ids_are_stable) {
  // The store persists firmware ids and re-checks them on open, so the
  // canonical fingerprint must never drift: these hex ids were computed
  // by the original one-update-per-field hasher.
  EXPECT_EQ(to_hex(firmware_artifact::fingerprint(adder_prog())),
            "1b2280df4a14c6e0ddfe68019f2d9c50f62f2f83bd43e3867387c36af39586cb");
  EXPECT_EQ(to_hex(firmware_artifact::fingerprint(apps::build_app(
                apps::evaluation_apps().front(),
                instr::instrumentation::dialed))),
            "55266c57c7733e2478b3617ace0294460bd95d24d6e1fb0986e53d91cfc8fd6b");
  EXPECT_EQ(to_hex(firmware_artifact::fingerprint(apps::build_app(
                apps::fig2_app(), instr::instrumentation::tinycfa))),
            "e1f6a47c872fae7b6dfa16e5a35b6a7082ea480c3505c794051ee3889cc14283");
}

// ---------------------------------------------------------------------------
// Catalog interning
// ---------------------------------------------------------------------------

TEST(catalog, interns_identical_programs_once) {
  firmware_catalog cat;
  const auto fw1 = cat.intern(adder_prog());
  const auto fw2 = cat.intern(adder_prog());
  ASSERT_NE(fw1, nullptr);
  EXPECT_EQ(fw1.get(), fw2.get());  // pointer-identical, not just equal id
  EXPECT_EQ(cat.size(), 1u);

  const auto fw3 = cat.intern(build_op(
      "int op(int x) { return x * 3; }", "op",
      instr::instrumentation::dialed));
  EXPECT_NE(fw3.get(), fw1.get());
  EXPECT_EQ(cat.size(), 2u);
  EXPECT_EQ(cat.find(fw1->id()).get(), fw1.get());
  EXPECT_EQ(cat.find(fw3->id()).get(), fw3.get());
  verifier::firmware_id bogus{};
  EXPECT_EQ(cat.find(bogus), nullptr);
  EXPECT_GT(cat.footprint_bytes(), 0u);
}

TEST(catalog, registry_shares_one_artifact_across_devices) {
  device_registry reg(master_key());
  const auto prog = adder_prog();
  std::vector<device_id> ids;
  for (int d = 0; d < 50; ++d) ids.push_back(reg.provision(prog));
  EXPECT_EQ(reg.catalog()->size(), 1u);

  const auto* first = reg.find(ids.front());
  ASSERT_NE(first, nullptr);
  for (const auto id : ids) {
    const auto* rec = reg.find(id);
    ASSERT_NE(rec, nullptr);
    // One artifact for the whole fleet slice...
    EXPECT_EQ(rec->firmware.get(), first->firmware.get());
    // ...and record.program aliases INTO it (no per-device copy).
    EXPECT_EQ(rec->program.get(), &rec->firmware->program());
  }
}

TEST(catalog, provisioning_from_a_const_program_leaves_it_intact) {
  // Provisioning takes the program by const reference: 64 devices on one
  // image intern it once and leave the caller's program as it was.
  const auto prog = apps::build_app(apps::evaluation_apps().front(),
                                    instr::instrumentation::dialed);
  const auto serialized = [](const instr::linked_program& p) {
    store::writer w;
    store::write_program(w, p);
    return w.take();
  };
  const byte_vec before = serialized(prog);
  device_registry reg(master_key());
  for (int d = 0; d < 64; ++d) (void)reg.provision(prog);
  EXPECT_EQ(reg.size(), 64u);
  EXPECT_EQ(reg.catalog()->size(), 1u);
  EXPECT_EQ(serialized(prog), before);
}

TEST(catalog, registries_can_share_a_catalog) {
  auto cat = std::make_shared<firmware_catalog>();
  device_registry east(master_key(), cat);
  device_registry west(byte_vec(32, 0x43), cat);
  const auto id_e = east.provision(adder_prog());
  const auto id_w = west.provision(adder_prog());
  EXPECT_EQ(cat->size(), 1u);
  EXPECT_EQ(east.find(id_e)->firmware.get(), west.find(id_w)->firmware.get());
}

// ---------------------------------------------------------------------------
// Verdict equivalence: shared artifact vs. fresh per-device op_verifier,
// across all four apps
// ---------------------------------------------------------------------------

std::vector<apps::app_spec> four_apps() {
  auto specs = apps::evaluation_apps();  // SyringePump, FireSensor, Ranger
  specs.push_back(apps::door_lock_app());
  return specs;
}

TEST(equivalence, shared_artifact_matches_fresh_verifier_all_apps) {
  firmware_catalog cat;
  for (const auto& app : four_apps()) {
    const auto prog =
        apps::build_app(app, instr::instrumentation::dialed);
    proto::prover_device dev(prog, test::test_key());
    std::array<std::uint8_t, 16> chal{};
    chal.fill(0x7e);
    const auto rep = dev.invoke(chal, app.representative_input);

    // Fresh per-device verifier (its own artifact) vs. the catalog's
    // shared artifact, verified twice in a row so the second run follows
    // a replay of the same artifact on the same thread.
    const verifier::op_verifier fresh(prog, test::test_key());
    const verifier::op_verifier shared(cat.intern(prog), test::test_key());
    const auto v_fresh = fresh.verify(rep, chal);
    const auto v_shared1 = shared.verify(rep, chal);
    const auto v_shared2 = shared.verify(rep, chal);
    expect_same_verdict(v_fresh, v_shared1, app.name.c_str());
    expect_same_verdict(v_fresh, v_shared2, app.name.c_str());
    EXPECT_TRUE(v_fresh.accepted) << app.name;
  }
  EXPECT_EQ(cat.size(), 4u);
}

TEST(equivalence, attack_findings_identical_on_shared_path) {
  // Fig. 2 data-only attack and a forged result: the finding-heavy paths
  // (bounds detector, OR comparison, result check) must classify
  // identically through the shared artifact.
  const auto prog =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};

  firmware_catalog cat;
  const verifier::op_verifier fresh(prog, test::test_key());
  const verifier::op_verifier shared(cat.intern(prog), test::test_key());

  const auto attack = dev.invoke(chal, apps::fig2_attack());
  expect_same_verdict(fresh.verify(attack, chal), shared.verify(attack, chal),
                    "fig2-attack");
  EXPECT_TRUE(shared.verify(attack, chal)
                  .has(verifier::attack_kind::data_only_attack));

  auto forged = dev.invoke(chal, apps::fig2_benign(1, 3));
  forged.claimed_result = 0xbeef;
  expect_same_verdict(fresh.verify(forged, chal), shared.verify(forged, chal),
                    "fig2-forged-result");
  EXPECT_TRUE(shared.verify(forged, chal)
                  .has(verifier::attack_kind::result_forged));
}

TEST(equivalence, hub_path_matches_direct_verifier) {
  // The full fleet pipeline (wire v2 frame -> hub -> shared artifact)
  // against a direct fresh op_verifier on the same report.
  device_registry reg(master_key());
  const auto prog = adder_prog();
  const auto id = reg.provision(prog);
  verifier_hub hub(reg);
  proto::prover_device dev(prog, reg.derive_key(id));

  const auto grant = hub.challenge(id);
  proto::invocation inv;
  inv.args[0] = 20;
  inv.args[1] = 22;
  const auto rep = dev.invoke(grant.nonce, inv);
  proto::frame_info info;
  info.device_id = id;
  info.seq = grant.seq;
  const auto result = hub.submit(proto::encode_frame(info, rep));
  ASSERT_EQ(result.error, proto::proto_error::none);

  const verifier::op_verifier fresh(prog, reg.derive_key(id));
  expect_same_verdict(fresh.verify(rep, grant.nonce), result.verdict,
                    "hub-vs-direct");
  EXPECT_TRUE(result.accepted());
}

TEST(equivalence, cfa_walker_matches_on_shared_artifact) {
  // Tiny-CFA deployments: the precomputed-table walker must reconstruct
  // the identical path and findings, benign and attacked.
  const auto prog =
      apps::build_app(apps::fig1_app(), instr::instrumentation::tinycfa);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto fw = firmware_artifact::build(prog);

  for (const auto& [label, inv] :
       {std::pair{"benign", apps::fig1_benign(5)},
        std::pair{"attack", apps::fig1_attack(prog, 15)}}) {
    const auto rep = dev.invoke(chal, inv);
    const auto fresh = verifier::check_cfa_log(prog, rep);
    const auto shared = verifier::check_cfa_log(*fw, rep);
    EXPECT_EQ(fresh.ok, shared.ok) << label;
    EXPECT_EQ(fresh.path, shared.path) << label;
    EXPECT_EQ(fresh.entries_consumed, shared.entries_consumed) << label;
    ASSERT_EQ(fresh.findings.size(), shared.findings.size()) << label;
    for (std::size_t i = 0; i < fresh.findings.size(); ++i) {
      EXPECT_EQ(fresh.findings[i].kind, shared.findings[i].kind) << label;
      EXPECT_EQ(fresh.findings[i].detail, shared.findings[i].detail)
          << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Artifact internals
// ---------------------------------------------------------------------------

TEST(artifact, precomputes_what_replay_used_to_rederive) {
  const auto prog = apps::build_app(apps::fig2_app(),
                                    instr::instrumentation::dialed);
  const auto fw = firmware_artifact::build(prog);

  // Canonical ER range for the MAC.
  EXPECT_EQ(byte_vec(fw->er_bytes().begin(), fw->er_bytes().end()),
            prog.er_bytes());

  // Access-site table resolved to code addresses.
  EXPECT_EQ(fw->sites().size(), prog.compile_info.access_sites.size());
  for (const auto& [pc, site] : fw->sites()) {
    EXPECT_GE(pc, prog.er_min);
    EXPECT_LE(pc, prog.er_max);
    EXPECT_GT(site.size_bytes, 0);
  }

  // The decoded index covers the ER entry and agrees with a live decode.
  const auto* d = fw->decoded_at(prog.er_min);
  ASSERT_NE(d, nullptr);
  const auto& flat = fw->flat_image();
  const std::array<std::uint16_t, 3> words = {
      static_cast<std::uint16_t>(flat[prog.er_min] |
                                 (flat[prog.er_min + 1] << 8)),
      static_cast<std::uint16_t>(flat[prog.er_min + 2] |
                                 (flat[prog.er_min + 3] << 8)),
      static_cast<std::uint16_t>(flat[prog.er_min + 4] |
                                 (flat[prog.er_min + 5] << 8))};
  const auto live = isa::decode(words, prog.er_min);
  EXPECT_EQ(d->ins.op, live.ins.op);
  EXPECT_EQ(d->words, live.words);

  // Outside the ER there is no cache entry.
  EXPECT_EQ(fw->decoded_at(static_cast<std::uint16_t>(prog.er_min - 2)),
            nullptr);
  EXPECT_EQ(fw->decoded_at(static_cast<std::uint16_t>(prog.er_min + 1)),
            nullptr);

  // Identity is exposed for operator tooling.
  EXPECT_EQ(fw->id_hex().size(), 64u);
  EXPECT_GT(fw->footprint_bytes(),
            firmware_artifact::program_footprint_bytes(prog));
}

}  // namespace
}  // namespace dialed::fleet
