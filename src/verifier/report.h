// The attestation report a prover returns for one attested invocation, and
// the verifier's verdict structure.
#ifndef DIALED_VERIFIER_REPORT_H
#define DIALED_VERIFIER_REPORT_H

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "logfmt/logfmt.h"

namespace dialed::verifier {

/// Everything Prv ships back: the claimed configuration, the OR snapshot
/// (CF-Log + I-Log), the EXEC claim and the VRASED MAC binding them all.
struct attestation_report {
  std::uint16_t er_min = 0;
  std::uint16_t er_max = 0;
  std::uint16_t or_min = 0;
  std::uint16_t or_max = 0;
  bool exec = false;
  std::array<std::uint8_t, 16> challenge{};
  byte_vec or_bytes;  ///< [or_min, or_max+1]
  crypto::hmac_sha256::mac mac{};

  // Unattested device claims (useful for diagnosis; never trusted).
  std::uint16_t claimed_result = 0;
  std::uint16_t halt_code = 0;
};

/// Non-owning view of an attestation report: the scalar fields by value,
/// `or_bytes` as a span into storage the CALLER keeps alive — a decoded
/// wire frame, a WAL buffer, or an owning attestation_report (the implicit
/// conversion below, so every existing owning call site still compiles).
/// The whole verification pipeline consumes this view, which is what lets
/// a full-frame v2 submission verify without ever copying its OR.
struct report_view {
  std::uint16_t er_min = 0;
  std::uint16_t er_max = 0;
  std::uint16_t or_min = 0;
  std::uint16_t or_max = 0;
  bool exec = false;
  std::array<std::uint8_t, 16> challenge{};
  std::span<const std::uint8_t> or_bytes;  ///< [or_min, or_max+1]
  crypto::hmac_sha256::mac mac{};
  std::uint16_t claimed_result = 0;
  std::uint16_t halt_code = 0;

  report_view() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate implicit view.
  report_view(const attestation_report& r)
      : er_min(r.er_min),
        er_max(r.er_max),
        or_min(r.or_min),
        or_max(r.or_max),
        exec(r.exec),
        challenge(r.challenge),
        or_bytes(r.or_bytes),
        mac(r.mac),
        claimed_result(r.claimed_result),
        halt_code(r.halt_code) {}
};

enum class attack_kind : std::uint8_t {
  none,
  mac_invalid,           ///< MAC mismatch: code/OR/EXEC/challenge forged
  exec_cleared,          ///< EXEC=0: APEX detected an execution violation
  instrumentation_abort, ///< device aborted via the F5/log-overflow checks
  replay_divergence,     ///< replayed OR differs from the attested OR
  control_flow_attack,   ///< corrupted return address / CF target observed
  data_only_attack,      ///< out-of-bounds object access during replay
  policy_violation,      ///< app-specific safety policy failed
  uninitialized_read,    ///< op consumed an uninitialized stack value
  stale_challenge,       ///< challenge does not match the outstanding nonce
  bounds_mismatch,       ///< report's ER/OR bounds differ from expected
  result_forged,         ///< claimed result differs from the replayed output
};

std::string to_string(attack_kind k);

struct finding {
  attack_kind kind = attack_kind::none;
  std::string detail;
  std::uint16_t pc = 0;
  std::uint16_t addr = 0;
};

/// One replayed write into peripheral space, with input-taint provenance:
/// `tainted` means the written value (or the address selecting it) derives
/// from attested inputs — i.e. it was attacker-influencable.
struct io_event {
  std::uint16_t addr = 0;
  std::uint16_t value = 0;
  std::uint16_t pc = 0;
  bool tainted = false;
};

/// What a replay explains beyond the verdict. No decision reads it, so
/// verify() never builds it; replay_operation fills it on request. Taint
/// sources: the logged entry arguments and every I-Log-fed value.
struct forensics {
  std::vector<logfmt::annotated_entry> annotated_log;  ///< classified OR
  std::vector<io_event> io_trace;  ///< replayed peripheral writes
  bool result_tainted = false;     ///< replayed result is input-derived
};

/// Optional out-param of verify(): wall time the call spent in the MAC
/// check vs the ER replay, for per-stage latency attribution. Written only
/// when a non-null pointer is passed — the clock is never read otherwise.
struct verify_timings {
  std::uint64_t mac_ns = 0;
  std::uint64_t replay_ns = 0;
};

/// How a verdict's replay outcome was obtained. Provenance only: a reused
/// verdict is field-for-field the one a replay would produce.
enum class replay_path : std::uint8_t {
  none,      ///< rejected before replay, or a mode that never replays
  replayed,  ///< the abstract executor ran
  reused,    ///< the device's last accepted round had byte-identical OR
};

struct verdict {
  bool accepted = false;
  std::vector<finding> findings;

  /// The trustworthy op output derived from replay (r15 at the op's final
  /// return) — the value Vrf should use instead of the device's claim.
  std::uint16_t replayed_result = 0;

  // Replay statistics.
  std::uint64_t replay_instructions = 0;
  int log_slots_consumed = 0;
  int log_bytes = 0;

  replay_path replay = replay_path::none;

  bool has(attack_kind k) const {
    for (const auto& f : findings) {
      if (f.kind == k) return true;
    }
    return false;
  }
};

/// Whether `r`'s OR is exactly [or_min, or_max+1] long; if not, appends
/// the bounds_mismatch finding to `out`.
bool check_or_length(const report_view& r, std::vector<finding>& out);

/// Human-readable multi-line report of a verdict (status, findings, replay
/// statistics) for operator consoles/logs; `fx`, a forensic replay of the
/// same report, adds input-taint provenance and the peripheral writes.
std::string render(const verdict& v, const forensics* fx = nullptr);

}  // namespace dialed::verifier

#endif  // DIALED_VERIFIER_REPORT_H
