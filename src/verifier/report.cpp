#include "verifier/report.h"

namespace dialed::verifier {

std::string to_string(attack_kind k) {
  switch (k) {
    case attack_kind::none: return "none";
    case attack_kind::mac_invalid: return "mac-invalid";
    case attack_kind::exec_cleared: return "exec-cleared";
    case attack_kind::instrumentation_abort: return "instrumentation-abort";
    case attack_kind::replay_divergence: return "replay-divergence";
    case attack_kind::control_flow_attack: return "control-flow-attack";
    case attack_kind::data_only_attack: return "data-only-attack";
    case attack_kind::policy_violation: return "policy-violation";
    case attack_kind::uninitialized_read: return "uninitialized-read";
    case attack_kind::stale_challenge: return "stale-challenge";
    case attack_kind::bounds_mismatch: return "bounds-mismatch";
    case attack_kind::result_forged: return "result-forged";
  }
  return "?";
}

bool check_or_length(const report_view& r, std::vector<finding>& out) {
  if (r.or_bytes.size() == r.or_max + 2u - r.or_min) return true;
  out.push_back({attack_kind::bounds_mismatch,
                 "OR length " + std::to_string(r.or_bytes.size()) +
                     " disagrees with the attested OR bounds",
                 0, r.or_min});
  return false;
}

std::string render(const verdict& v, const forensics* fx) {
  char buf[160];
  std::string out;
  out += v.accepted ? "VERDICT: ACCEPTED\n" : "VERDICT: REJECTED\n";
  for (const auto& f : v.findings) {
    std::snprintf(buf, sizeof buf, "  finding: %-22s %s (pc=0x%04x)\n",
                  to_string(f.kind).c_str(), f.detail.c_str(), f.pc);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  replayed result: 0x%04x%s; %llu instructions; "
                "%d log slots (%d bytes)\n",
                v.replayed_result,
                fx != nullptr && fx->result_tainted ? " (input-derived)" : "",
                static_cast<unsigned long long>(v.replay_instructions),
                v.log_slots_consumed, v.log_bytes);
  out += buf;
  if (fx == nullptr) return out;
  for (const auto& e : fx->io_trace) {
    std::snprintf(buf, sizeof buf,
                  "  io: pc=0x%04x [0x%04x] <- 0x%04x %s\n", e.pc, e.addr,
                  e.value, e.tainted ? "(input-derived)" : "(constant)");
    out += buf;
  }
  return out;
}

}  // namespace dialed::verifier
