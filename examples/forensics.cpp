// Forensics: what the verifier can reconstruct from one attestation report.
// Dumps the instrumented ER disassembly head, the annotated CF-Log/I-Log
// (every slot classified by the abstract executor), and the replay
// statistics — for a benign run and for the Fig. 2 data-only attack. The
// verdict carries the decision only; the forensic record comes from
// replaying the same report again with a `forensics` sink.
//
// Build & run:  ./examples/forensics
#include <cstdio>

#include "apps/apps.h"
#include "fleet/registry.h"
#include "masm/disasm.h"
#include "proto/prover.h"
#include "verifier/replay.h"
#include "verifier/verifier.h"

using namespace dialed;

namespace {

void dump_log(const verifier::forensics& fx, int max_entries) {
  std::printf("  slot  value   kind         produced at\n");
  int shown = 0;
  for (const auto& e : fx.annotated_log) {
    if (shown++ >= max_entries) {
      std::printf("  ... (%zu entries total)\n", fx.annotated_log.size());
      break;
    }
    std::printf("  %4d  0x%04x  %-12s pc=0x%04x\n", e.slot, e.value,
                logfmt::to_string(e.kind).c_str(), e.source_pc);
  }
}

}  // namespace

int main() {
  // Provision the device fleet-style so the forensic record is tied to a
  // stable device id and its KDF-derived key.
  fleet::device_registry registry(byte_vec(32, 0x77));
  const auto prog =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  const auto id = registry.provision(prog);
  const auto& record = *registry.find(id);
  proto::prover_device dev(prog, record.key);  // burned in at the factory
  // The verifier context shares the registry's interned firmware artifact
  // — the same immutable precomputation every device on this image uses.
  verifier::op_verifier vrf(record.firmware, record.key);

  std::printf("=== Deployed operation ===\n");
  std::printf("firmware %s\n", record.firmware->id_hex().c_str());
  std::printf("ER [0x%04x, 0x%04x], %zu bytes; globals:\n", prog.er_min,
              prog.er_max, prog.code_size());
  for (const auto& [name, addr] : prog.global_addrs) {
    std::printf("  %-10s @ 0x%04x\n", name.c_str(), addr);
  }
  std::printf("bounds metadata: %zu compiler-recorded array access sites\n",
              prog.compile_info.access_sites.size());

  std::printf("\nfirst instructions of the instrumented ER:\n");
  const auto er = masm::disassemble(prog.er_bytes(), prog.er_min);
  for (std::size_t i = 0; i < er.size() && i < 10; ++i) {
    std::printf("  0x%04x  %s\n", er[i].address, er[i].text.c_str());
  }

  std::array<std::uint8_t, 16> chal{};
  chal.fill(0xc4);

  std::printf("\n=== Benign round: settings[3] = 1 ===\n");
  {
    const auto rep = dev.invoke(chal, apps::fig2_benign(1, 3));
    const auto v = vrf.verify(rep);
    std::printf("verdict: %s; %d log slots, %llu replayed instructions\n",
                v.accepted ? "ACCEPTED" : "REJECTED", v.log_slots_consumed,
                static_cast<unsigned long long>(v.replay_instructions));
    verifier::forensics fx;
    verifier::replay_operation(*record.firmware, rep, {}, &fx);
    dump_log(fx, 14);
  }

  std::printf("\n=== Attack round: settings[8] = 0 ===\n");
  {
    const auto rep = dev.invoke(chal, apps::fig2_attack());
    const auto v = vrf.verify(rep);
    std::printf("verdict: %s\n", v.accepted ? "ACCEPTED" : "REJECTED");
    for (const auto& f : v.findings) {
      std::printf("  %-20s %s (pc=0x%04x, addr=0x%04x)\n",
                  verifier::to_string(f.kind).c_str(), f.detail.c_str(),
                  f.pc, f.addr);
    }
    std::printf("\nattested entry arguments (I-Log slots 1..8):\n");
    logfmt::log_view log(rep.or_min, rep.or_max, rep.or_bytes);
    std::printf("  new_setting (arg0) = %u\n", log.argument(0));
    std::printf("  index       (arg1) = %u  <- out of bounds for "
                "settings[8]\n",
                log.argument(1));

    std::printf("\nperipheral writes with input-taint provenance:\n");
    verifier::forensics fx;
    verifier::replay_operation(*record.firmware, rep, {}, &fx);
    for (const auto& e : fx.io_trace) {
      std::printf("  pc=0x%04x  [0x%04x] <- 0x%04x  %s\n", e.pc, e.addr,
                  e.value,
                  e.tainted ? "INPUT-DERIVED (attacker-influencable)"
                            : "constant");
    }
  }
  return 0;
}
