// The paper's running example (§II-B): a networked syringe pump with a
// dose-safety check, attacked two ways —
//
//   Fig. 1: a control-flow attack smashes a return address to reach the
//           actuation code while skipping `dose < 10`;
//   Fig. 2: a data-only attack overflows `settings[]` onto the adjacent
//           actuation mask `set`, disabling injection WITHOUT changing the
//           control flow (invisible to CFA; caught by DIALED).
//
// The verifier runs the protocol rounds through fleet::verifier_hub (the
// same front door dialed-serve uses); the dose-safety policy runs on a
// verifier::op_verifier that shares the registry's firmware artifact.
//
// Build & run:  ./examples/medical_device
// Exits 1 if any verdict contradicts its expectation (a benign round
// rejected or an attack round accepted), 0 otherwise.
#include <cstdio>

#include "apps/apps.h"
#include "fleet/verifier_hub.h"
#include "proto/prover.h"
#include "proto/wire.h"
#include "verifier/verifier.h"

using namespace dialed;

namespace {

void report_verdict(const char* label, const verifier::verdict& v) {
  std::printf("%-34s -> %s\n", label, v.accepted ? "ACCEPTED" : "REJECTED");
  for (const auto& f : v.findings) {
    std::printf("    %-22s %s\n", verifier::to_string(f.kind).c_str(),
                f.detail.c_str());
  }
}

void actuation_trace(emu::machine& m) {
  const auto& h = m.gpio().history();
  if (h.empty()) {
    std::printf("    actuation: none\n");
    return;
  }
  std::printf("    actuation:");
  for (const auto& w : h) std::printf(" P3OUT=%u", w.value);
  std::printf("\n");
}

/// One provisioned pump: its registry entry, the hub that challenges it,
/// the device itself, and a policy verifier on the shared artifact.
struct pump {
  pump(const instr::linked_program& prog, bool dose_policy)
      : registry(byte_vec(32, 0x99)),
        id(registry.provision(prog)),
        hub(registry),
        dev(prog, registry.find(id)->key),
        policy_vrf(registry.find(id)->firmware, registry.find(id)->key),
        check_policy(dose_policy) {
    if (dose_policy) policy_vrf.add_policy(apps::dose_actuation_policy());
  }

  /// challenge -> invoke -> v2 frame -> submit; with the dose policy on,
  /// the same report is also checked by policy_vrf. Prints the verdicts
  /// and returns whether they match `expect_accept`.
  bool round(const char* label, const proto::invocation& inv,
             bool expect_accept) {
    const auto grant = hub.challenge(id);
    const auto rep = dev.invoke(grant.nonce, inv);
    const auto r = hub.submit(proto::encode_frame(
        proto::frame_info{.device_id = id, .seq = grant.seq}, rep));
    if (r.error != proto::proto_error::none) {
      std::printf("%-34s -> protocol error %s\n", label,
                  proto::to_string(r.error).c_str());
      return false;
    }
    report_verdict(label, r.verdict);
    bool ok = r.verdict.accepted == expect_accept;
    if (check_policy) {
      const auto pv = policy_vrf.verify(rep, grant.nonce);
      report_verdict("  with the dose policy", pv);
      ok = ok && pv.accepted == expect_accept;
    }
    actuation_trace(dev.machine());
    if (!ok) {
      std::printf("    UNEXPECTED: this round should be %s\n",
                  expect_accept ? "accepted" : "rejected");
    }
    return ok;
  }

  fleet::device_registry registry;
  fleet::device_id id;
  fleet::verifier_hub hub;
  proto::prover_device dev;
  verifier::op_verifier policy_vrf;
  bool check_policy;
};

}  // namespace

int main() {
  bool all_as_expected = true;

  std::printf("=== Fig. 1: control-flow attack ===\n");
  {
    const auto prog =
        apps::build_app(apps::fig1_app(), instr::instrumentation::dialed);
    pump p(prog, /*dose_policy=*/true);

    all_as_expected &=
        p.round("benign: inject 5 units", apps::fig1_benign(5), true);
    all_as_expected &= p.round("benign: request 12 units (blocked)",
                               apps::fig1_benign(12), true);
    all_as_expected &= p.round("ATTACK: smash RA, dose 15",
                               apps::fig1_attack(prog, 15), false);
    std::printf("    (the pump DID inject 15 units — APEX saw a clean run,\n"
                "     only the CF-Log evidence betrays the attack)\n");
  }

  std::printf("\n=== Fig. 2: data-only attack ===\n");
  {
    const auto prog =
        apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
    pump p(prog, /*dose_policy=*/false);

    all_as_expected &=
        p.round("benign: settings[3] = 1", apps::fig2_benign(1, 3), true);
    all_as_expected &= p.round("ATTACK: settings[8] = 0 (hits `set`)",
                               apps::fig2_attack(), false);
    std::printf("    (no injection happened; same control flow as benign)\n");
  }

  std::printf("\n=== The CFA blind spot, demonstrated ===\n");
  {
    // With Tiny-CFA alone, the Fig. 2 attack's log is byte-identical to a
    // benign run: CFA cannot see data-only attacks (paper §II-B).
    const auto prog =
        apps::build_app(apps::fig2_app(), instr::instrumentation::tinycfa);
    proto::prover_device dev(prog, byte_vec(32, 0x99));
    std::array<std::uint8_t, 16> chal{};
    const auto benign = dev.invoke(chal, apps::fig2_benign(1, 3));
    const auto attack = dev.invoke(chal, apps::fig2_attack());
    std::printf("CFA-only OR logs identical between benign and attack: %s\n",
                benign.or_bytes == attack.or_bytes ? "YES (blind)" : "no");
    std::printf("both runs report EXEC=1: %s\n",
                (benign.exec && attack.exec) ? "YES" : "no");
  }
  if (!all_as_expected) {
    std::printf("\nFAILED: a verdict contradicted its expectation\n");
    return 1;
  }
  return 0;
}
