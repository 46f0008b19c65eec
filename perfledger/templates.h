// Report templates: the generator runs proto::prover_device once per
// template at set-up, over a seeded pool of inputs, and re-signs the
// template for every live challenge with the device key through
// rot::compute_attestation_mac — the MAC construction the device's SW-Att
// uses. Prover runs cost far more than the service's verify, so the
// generator could not keep up running one per report.
//
// The offline correctness gate runs here: every benign template must pass
// op_verifier::verify, every attack template must be rejected with its
// expected attack_kind, and re-signing each template for the prover's own
// challenge must reproduce the prover's MAC byte for byte. A mismatch
// throws gate_failure and the run prints no numbers.
#ifndef DIALED_PERFLEDGER_TEMPLATES_H
#define DIALED_PERFLEDGER_TEMPLATES_H

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "fleet_spec.h"
#include "verifier/report.h"

namespace ledger {

struct gate_failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What a template's report is, and so the verdict it must get.
enum class report_kind : std::uint8_t {
  benign,         ///< must be accepted
  door_lock,      ///< DoorLock keypad overflow (data-only)
  fig1,           ///< Fig. 1 return-address smash (control flow)
  fig2,           ///< Fig. 2 settings[8] overwrite (data-only)
  or_flip,        ///< one OR byte flipped after signing (MAC reject)
  forged_result,  ///< claimed_result differs from the replayed output
};
const char* to_string(report_kind k);

struct report_template {
  std::uint16_t group = 0;
  report_kind kind = report_kind::benign;
  /// The report as the prover produced it for challenge rep.challenge,
  /// signed with `signer`'s key (forged_result: claimed_result altered
  /// afterwards — it is outside the MAC).
  verifier::attestation_report rep;
  std::uint32_t signer = 0;
  std::uint16_t flip_offset = 0;  ///< or_flip: OR byte flipped after signing
  std::uint64_t op_cycles = 0;    ///< attested-op cycles of the prover run
  int log_bytes = 0;              ///< CF-Log + I-Log bytes in OR
};

struct device_plan {
  std::uint32_t id = 0;
  std::uint16_t group = 0;
  crypto::hmac_keystate key_state;
  std::vector<std::uint32_t> benign;   ///< template indices, cycled
  std::vector<std::uint32_t> attacks;  ///< attack template indices
  std::uint32_t cursor = 0;            ///< next benign template
  std::uint64_t rng = 0;               ///< per-device attack draws
};

/// The paper's Fig. 6 triple for one app's DIALED build on its
/// representative input.
struct fig6_row {
  std::string app;
  std::size_t er_bytes = 0;
  std::uint64_t op_cycles = 0;
  int log_bytes = 0;
};

struct template_pool {
  std::vector<app_group> groups;
  std::vector<instr::linked_program> progs;  ///< per group
  std::vector<byte_vec> er_bytes;            ///< per group
  std::vector<report_template> templates;
  std::vector<device_plan> devices;          ///< index = id - 1
  std::vector<fig6_row> fig6;
  double attack_frac = 0.0;
  std::size_t benign_templates = 0;
  std::size_t attack_templates = 0;
};

/// Build the pool for `w` from `seed` and run the offline gate (throws
/// gate_failure on any mismatch).
template_pool build_pool(const workload& w, std::uint64_t seed);

/// Pick the next template for device `d` (benign cycle, or with
/// probability attack_frac one of its attack templates). Deterministic per
/// device and seed.
std::uint32_t next_template(template_pool& pool, device_plan& d);

/// Re-sign template `t` for `nonce` with device `d`'s key into `out`
/// (applies the OR flip after signing).
void sign_for(const template_pool& pool, const report_template& t,
              const device_plan& d, const std::array<std::uint8_t, 16>& nonce,
              verifier::attestation_report& out);

inline bool expect_accept(report_kind k) { return k == report_kind::benign; }

std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace ledger

#endif  // DIALED_PERFLEDGER_TEMPLATES_H
