// End-to-end: the full DIALED pipeline (compile -> instrument -> link ->
// execute under APEX -> SW-Att -> verify/abstract-execute) across mixed
// benign and adversarial rounds — the deployment loop of paper §III.
#include <gtest/gtest.h>

#include "common/error.h"
#include "helpers.h"
#include "verifier/verifier.h"

namespace dialed {
namespace {

using proto::proto_error;

TEST(e2e, fig1_full_story) {
  const auto prog =
      apps::build_app(apps::fig1_app(), instr::instrumentation::dialed);
  test::hub_device d(prog);
  // The dose policy runs on a verifier sharing the registry's artifact:
  // the hub itself attaches no app policies.
  const auto* rec = d.registry.find(d.id);
  verifier::op_verifier policy_vrf(rec->firmware, rec->key);
  policy_vrf.add_policy(apps::dose_actuation_policy());

  // Round 1: benign command, accepted; Vrf learns the true dose.
  const auto r1 = d.round(apps::fig1_benign(5));
  EXPECT_TRUE(r1.accepted());
  EXPECT_EQ(r1.verdict.replayed_result, 5);

  // Round 2: the paper's control-flow attack.
  const auto g2 = d.hub.challenge(d.id);
  const auto rep2 = d.dev.invoke(g2.nonce, apps::fig1_attack(prog, 15));
  const auto r2 = d.submit(g2, rep2);
  ASSERT_EQ(r2.error, proto_error::none);
  EXPECT_FALSE(r2.accepted());
  EXPECT_TRUE(r2.verdict.has(verifier::attack_kind::control_flow_attack));
  EXPECT_FALSE(r2.verdict.has(verifier::attack_kind::data_only_attack));
  // The same report through the policy verifier also trips the dose policy.
  const auto pv = policy_vrf.verify(rep2, g2.nonce);
  EXPECT_FALSE(pv.accepted);
  EXPECT_TRUE(pv.has(verifier::attack_kind::control_flow_attack));
  EXPECT_TRUE(pv.has(verifier::attack_kind::policy_violation));
  EXPECT_FALSE(pv.has(verifier::attack_kind::data_only_attack));

  // Round 3: the device recovers; a fresh benign round is accepted again.
  EXPECT_TRUE(d.round(apps::fig1_benign(3)).accepted());
}

TEST(e2e, fig2_full_story) {
  const auto prog =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  test::hub_device d(prog);

  EXPECT_TRUE(d.round(apps::fig2_benign(1, 3)).accepted());

  const auto r2 = d.round(apps::fig2_attack());
  ASSERT_EQ(r2.error, proto_error::none);
  EXPECT_FALSE(r2.accepted());
  EXPECT_TRUE(r2.verdict.has(verifier::attack_kind::data_only_attack));
  // Control flow was untouched — exactly the CFA blind spot.
  EXPECT_FALSE(r2.verdict.has(verifier::attack_kind::control_flow_attack));
}

TEST(e2e, every_evaluation_app_verifies_at_dialed_level) {
  for (const auto& app : apps::evaluation_apps()) {
    const auto prog = apps::build_app(app, instr::instrumentation::dialed);
    test::hub_device d(prog);
    for (int round = 0; round < 3; ++round) {
      EXPECT_TRUE(d.round(app.representative_input).accepted())
          << app.name << " round " << round;
    }
  }
}

TEST(e2e, sensor_values_reconstructed_from_ilog) {
  // The verifier learns the sensed value itself from the attested logs —
  // the PoX-style "authenticated sensing" use case.
  auto app = apps::evaluation_apps()[2];  // UltrasonicRanger
  const auto prog = apps::build_app(app, instr::instrumentation::dialed);
  test::hub_device d(prog);
  proto::invocation inv;
  inv.args[0] = 2;
  inv.adc_samples = {2320, 2320};  // 40 cm
  const auto r = d.round(inv);
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 40);
}

TEST(e2e, spoofed_sensor_claim_detected) {
  // A compromised device cannot claim a different result than its inputs
  // produce: the mailbox result is not attested, the replay output is.
  auto app = apps::evaluation_apps()[1];  // FireSensor
  const auto prog = apps::build_app(app, instr::instrumentation::dialed);
  test::hub_device d(prog);
  proto::invocation inv;
  inv.args[0] = 50;
  inv.adc_samples = {800};  // avg 100 -> alarm
  const auto r = d.round(inv, [](verifier::attestation_report& rep) {
    rep.claimed_result = 0;  // "all quiet here"
  });
  EXPECT_FALSE(r.accepted());
  EXPECT_TRUE(r.verdict.has(verifier::attack_kind::result_forged));
  EXPECT_EQ(r.verdict.replayed_result, 100);
}

TEST(e2e, post_execution_log_tamper_detected) {
  const auto prog =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  test::hub_device d(prog);
  const auto r =
      d.round(apps::fig2_benign(1, 2), [](verifier::attestation_report& rep) {
        // Attacker rewrites an I-Log slot after attestation (in transit).
        rep.or_bytes[rep.or_bytes.size() - 24] ^= 0x40;
      });
  EXPECT_FALSE(r.accepted());
  EXPECT_TRUE(r.verdict.has(verifier::attack_kind::mac_invalid));
}

TEST(e2e, abort_report_rejected_with_abort_hint) {
  // Overflow the OR: the device aborts before attestation; Vrf must reject
  // and can tell the operator the instrumentation tripped.
  const auto prog = test::build_op(
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + 1; } return s; }",
      "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  proto::invocation inv;
  inv.args[0] = 5000;
  const auto r = d.round(inv);
  EXPECT_FALSE(r.accepted());
  EXPECT_TRUE(r.verdict.has(verifier::attack_kind::instrumentation_abort) ||
              r.verdict.has(verifier::attack_kind::mac_invalid));
}

TEST(e2e, cross_app_isolation_of_verifiers) {
  // A report from app A must not verify against app B's reference build.
  const auto prog_a =
      apps::build_app(apps::fig1_app(), instr::instrumentation::dialed);
  const auto prog_b =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  test::hub_device b(prog_b);
  proto::prover_device dev_a(prog_a, b.registry.derive_key(b.id));
  const auto grant = b.hub.challenge(b.id);
  const auto r = b.submit(grant, dev_a.invoke(grant.nonce, apps::fig1_benign(2)));
  EXPECT_FALSE(r.accepted());
}

class e2e_ablation
    : public ::testing::TestWithParam<instr::pass_options> {};

TEST_P(e2e_ablation, benign_verifies_and_fig2_attack_detected) {
  // Every instrumentation configuration must stay sound end-to-end: the
  // replay executes whatever binary was deployed, so ablations change
  // cost, never verification correctness.
  const auto prog = apps::build_app(
      apps::fig2_app(), instr::instrumentation::dialed, GetParam());
  test::hub_device d(prog);

  const auto r1 = d.round(apps::fig2_benign(1, 3));
  EXPECT_TRUE(r1.accepted());
  EXPECT_EQ(r1.verdict.replayed_result, 5);

  const auto r2 = d.round(apps::fig2_attack());
  EXPECT_FALSE(r2.accepted());
  EXPECT_TRUE(r2.verdict.has(verifier::attack_kind::data_only_attack));
}

instr::pass_options opt_default() { return {}; }
instr::pass_options opt_cf() {
  instr::pass_options o;
  o.optimized_cf = true;
  return o;
}
instr::pass_options opt_logall() {
  instr::pass_options o;
  o.log_all_reads = true;
  return o;
}
instr::pass_options opt_dynamic() {
  instr::pass_options o;
  o.static_read_filter = false;
  o.static_write_filter = false;
  return o;
}

INSTANTIATE_TEST_SUITE_P(configs, e2e_ablation,
                         ::testing::Values(opt_default(), opt_cf(),
                                           opt_logall(), opt_dynamic()));

TEST(e2e, hundred_round_soak) {
  const auto prog = test::build_op(
      "int op(int a, int b) { int s = 0; int i;"
      "  for (i = 0; i < a; i++) { s = s + b; } return s; }",
      "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  for (std::uint16_t r = 0; r < 100; ++r) {
    proto::invocation inv;
    inv.args[0] = static_cast<std::uint16_t>(r % 7);
    inv.args[1] = static_cast<std::uint16_t>(r * 3);
    const auto res = d.round(inv);
    ASSERT_TRUE(res.accepted()) << "round " << r;
    ASSERT_EQ(res.verdict.replayed_result,
              static_cast<std::uint16_t>((r % 7) * (r * 3)));
  }
}

}  // namespace
}  // namespace dialed
