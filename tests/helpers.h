// Shared test utilities: tiny assembly/mini-C runners over the emulator.
#ifndef DIALED_TESTS_HELPERS_H
#define DIALED_TESTS_HELPERS_H

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "apps/apps.h"
#include "common/error.h"
#include "emu/machine.h"
#include "fleet/verifier_hub.h"
#include "instr/oplink.h"
#include "isa/isa.h"
#include "masm/masm.h"
#include "proto/prover.h"
#include "proto/wire.h"
#include "verifier/firmware_artifact.h"
#include "verifier/replay.h"

namespace dialed::test {

inline byte_vec test_key() { return byte_vec(32, 0x5a); }

/// Assemble a raw program (must include its own .org/halt) and run it.
/// Returns the machine for state inspection.
inline std::unique_ptr<emu::machine> run_asm(const std::string& body,
                                             std::uint64_t max_cycles =
                                                 1'000'000) {
  emu::memory_map map;
  const std::string text = "        .org 0xc000\n__start:\n" + body +
                           "\n        .org RESET_VECTOR\n"
                           "        .word __start\n";
  auto img = masm::assemble_text(text, map.predefined_symbols());
  auto m = std::make_unique<emu::machine>(map);
  m->load(img);
  m->reset();
  m->run(max_cycles);
  return m;
}

/// Compile a mini-C op, link at the given instrumentation level.
inline instr::linked_program build_op(
    const std::string& source, const std::string& entry = "op",
    instr::instrumentation mode = instr::instrumentation::none,
    const instr::pass_options& popts = {}) {
  instr::link_options lo;
  lo.entry = entry;
  lo.mode = mode;
  lo.pass_opts = popts;
  return instr::build_operation(source, lo);
}

/// Run an op to completion and return its result (the RESULT mailbox).
inline std::uint16_t run_op(const instr::linked_program& prog,
                            const proto::invocation& inv) {
  proto::prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto rep = dev.invoke(chal, inv);
  return rep.claimed_result;
}

/// Compile+run a mini-C `op` with up to 4 arguments; returns the result.
inline std::uint16_t eval_op(const std::string& source,
                             std::uint16_t a0 = 0, std::uint16_t a1 = 0,
                             std::uint16_t a2 = 0, std::uint16_t a3 = 0) {
  const auto prog = build_op(source);
  proto::invocation inv;
  inv.args = {a0, a1, a2, a3, 0, 0, 0, 0};
  return run_op(prog, inv);
}

/// Require two verdicts to carry the same decision: outcome, findings and
/// replay statistics. `verdict::replay` is left out on purpose — it
/// records HOW the outcome was obtained (replayed or reused), which is
/// exactly what the differential suites vary.
inline void expect_same_verdict(const verifier::verdict& a,
                                const verifier::verdict& b,
                                const std::string& label) {
  EXPECT_EQ(a.accepted, b.accepted) << label;
  EXPECT_EQ(a.replayed_result, b.replayed_result) << label;
  EXPECT_EQ(a.replay_instructions, b.replay_instructions) << label;
  EXPECT_EQ(a.log_slots_consumed, b.log_slots_consumed) << label;
  EXPECT_EQ(a.log_bytes, b.log_bytes) << label;
  ASSERT_EQ(a.findings.size(), b.findings.size()) << label;
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].kind, b.findings[i].kind) << label;
    EXPECT_EQ(a.findings[i].detail, b.findings[i].detail) << label;
    EXPECT_EQ(a.findings[i].pc, b.findings[i].pc) << label;
    EXPECT_EQ(a.findings[i].addr, b.findings[i].addr) << label;
  }
}

/// Replay `rep` with and without a forensics sink; require the decision
/// fields — outcome, final registers, instruction count and findings in
/// order — to be identical. Returns the captured forensics.
inline verifier::forensics expect_capture_neutral(
    const verifier::firmware_artifact& fw, const verifier::report_view& rep,
    const std::string& label) {
  const auto off = verifier::replay_operation(fw, rep, {});
  verifier::forensics fx;
  const auto on = verifier::replay_operation(fw, rep, {}, &fx);
  EXPECT_EQ(off.completed, on.completed) << label;
  EXPECT_EQ(off.final_r15, on.final_r15) << label;
  EXPECT_EQ(off.final_r4, on.final_r4) << label;
  EXPECT_EQ(off.instructions, on.instructions) << label;
  EXPECT_EQ(off.findings.size(), on.findings.size()) << label;
  for (std::size_t i = 0;
       i < std::min(off.findings.size(), on.findings.size()); ++i) {
    EXPECT_EQ(off.findings[i].kind, on.findings[i].kind) << label;
    EXPECT_EQ(off.findings[i].detail, on.findings[i].detail) << label;
    EXPECT_EQ(off.findings[i].pc, on.findings[i].pc) << label;
    EXPECT_EQ(off.findings[i].addr, on.findings[i].addr) << label;
  }
  return fx;
}

/// Decode-cache oracle: at every even pc in [er_min, er_max] the
/// artifact's predecoded entry must be exactly isa::decode of the flat
/// image's words there — null where that decode throws, field-identical
/// (ins, words, cg_src) otherwise. Stops at the first mismatch.
inline void expect_decode_cache_matches_image(
    const verifier::firmware_artifact& fw, const std::string& label) {
  const auto& img = fw.flat_image();
  const auto word = [&](std::uint32_t a) {
    return static_cast<std::uint16_t>(img[a & 0xffff] |
                                      img[(a + 1) & 0xffff] << 8);
  };
  const auto& prog = fw.program();
  for (std::uint32_t pc = prog.er_min; pc <= prog.er_max; pc += 2) {
    const std::array<std::uint16_t, 3> words = {word(pc), word(pc + 2),
                                                word(pc + 4)};
    std::optional<isa::decoded> want;
    try {
      want = isa::decode(words, static_cast<std::uint16_t>(pc));
    } catch (const error&) {
    }
    const isa::decoded* got = fw.decoded_at(static_cast<std::uint16_t>(pc));
    const std::string at = label + " pc " + std::to_string(pc);
    ASSERT_EQ(got != nullptr, want.has_value()) << at;
    if (got == nullptr) continue;
    ASSERT_EQ(got->ins, want->ins) << at;
    ASSERT_EQ(got->words, want->words) << at;
    ASSERT_EQ(got->cg_src, want->cg_src) << at;
  }
}

/// One device behind the hub's front door: `prog` provisioned on a fresh
/// registry, a prover_device keyed with the registry's derived K_dev, and
/// rounds run as challenge -> invoke -> v2 frame -> submit.
struct hub_device {
  explicit hub_device(const instr::linked_program& prog,
                      const fleet::hub_config& cfg = {})
      : registry(test_key()),
        id(registry.provision(prog)),
        hub(registry, cfg),
        dev(prog, registry.derive_key(id)) {}

  /// Frame `rep` as the v2 answer to `grant` and submit it.
  fleet::attest_result submit(const fleet::challenge_grant& grant,
                              const verifier::attestation_report& rep) {
    return hub.submit(proto::encode_frame(
        proto::frame_info{.device_id = id, .seq = grant.seq}, rep));
  }

  /// One full round; `tamper` edits the report in transit.
  fleet::attest_result round(
      const proto::invocation& inv,
      const std::function<void(verifier::attestation_report&)>& tamper =
          {}) {
    const auto grant = hub.challenge(id);
    auto rep = dev.invoke(grant.nonce, inv);
    if (tamper) tamper(rep);
    return submit(grant, rep);
  }

  fleet::device_registry registry;
  fleet::device_id id;
  fleet::verifier_hub hub;
  proto::prover_device dev;
};

}  // namespace dialed::test

#endif  // DIALED_TESTS_HELPERS_H
