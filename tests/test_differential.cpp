// Differential property testing: randomly generated mini-C operations are
// compiled, instrumented at the DIALED level, executed on the emulated MCU
// under the full attestation flow, and their results compared against a
// host-side reference evaluator with the same 16-bit semantics. On top of
// result equality, every generated program's report must verify — i.e. the
// abstract execution must reproduce the run exactly.
// Second differential axis (wire v2.1): every round of every app is
// verified TWICE — once as a v2 full frame, once as a v2.1 delta frame —
// against two identically-seeded hubs, and the complete attest_results
// must match field for field. Delta encoding is transport compression;
// any observable verdict difference is a bug.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "helpers.h"

namespace dialed {
namespace {

using test::build_op;
using test::test_key;

/// 16-bit semantics helpers (mini-C: int is 16-bit; >> is logical).
std::uint16_t w(std::int32_t v) { return static_cast<std::uint16_t>(v); }
std::int16_t s16(std::uint16_t v) { return static_cast<std::int16_t>(v); }

/// A tiny expression AST mirrored as text (device) and as evaluation
/// (host). Variables: a,b,c,d plus accumulated locals x0..xk.
class program_generator {
 public:
  explicit program_generator(std::uint64_t seed) : rng_(seed) {}

  struct program {
    std::string source;
    std::uint16_t expected;
  };

  program generate(std::uint16_t a, std::uint16_t b, std::uint16_t c,
                   std::uint16_t d) {
    vars_ = {{"a", a}, {"b", b}, {"c", c}, {"d", d}};
    std::string body;
    const int locals = 2 + static_cast<int>(rng_() % 4);
    for (int i = 0; i < locals; ++i) {
      auto [text, value] = expr(2);
      const std::string name = "x" + std::to_string(i);
      body += "  int " + name + " = " + text + ";\n";
      vars_.emplace_back(name, value);
      // Occasionally add a conditional update.
      if (rng_() % 3 == 0) {
        auto [cond_text, cond_value] = expr(1);
        auto [then_text, then_value] = expr(1);
        body += "  if (" + cond_text + ") { " + name + " = " + then_text +
                "; }\n";
        if (cond_value != 0) vars_.back().second = then_value;
      }
    }
    // A bounded accumulation loop (device and host agree on trip count).
    const int trips = 1 + static_cast<int>(rng_() % 6);
    auto [step_text, step_value] = expr(1);
    body += "  int acc = 0;\n  int i;\n";
    body += "  for (i = 0; i < " + std::to_string(trips) + "; i++) {\n";
    body += "    acc = acc + (" + step_text + ") + i;\n  }\n";
    std::uint16_t acc = 0;
    for (int i = 0; i < trips; ++i) {
      acc = w(acc + step_value + i);
    }
    vars_.emplace_back("acc", acc);

    auto [ret_text, ret_value] = expr(2);
    program p;
    p.source = "int op(int a, int b, int c, int d) {\n" + body +
               "  return " + ret_text + ";\n}\n";
    p.expected = ret_value;
    return p;
  }

 private:
  /// Generate an expression of bounded depth; returns {text, value}.
  std::pair<std::string, std::uint16_t> expr(int depth) {
    if (depth == 0 || rng_() % 4 == 0) return leaf();
    switch (rng_() % 9) {
      case 0: return binary(depth, "+", [](auto l, auto r) { return w(l + r); });
      case 1: return binary(depth, "-", [](auto l, auto r) { return w(l - r); });
      case 2:  // in uint32_t: promoted to int, 61120 * 61120 overflows
        return binary(depth, "*", [](auto l, auto r) {
          return w(static_cast<std::int32_t>(std::uint32_t{l} * r));
        });
      case 3: return binary(depth, "&", [](auto l, auto r) { return w(l & r); });
      case 4: return binary(depth, "|", [](auto l, auto r) { return w(l | r); });
      case 5: return binary(depth, "^", [](auto l, auto r) { return w(l ^ r); });
      case 6: {  // logical shift by a small constant
        auto [lt, lv] = expr(depth - 1);
        const int k = static_cast<int>(rng_() % 8);
        if (rng_() % 2 == 0) {
          return {"(" + lt + " << " + std::to_string(k) + ")", w(lv << k)};
        }
        return {"(" + lt + " >> " + std::to_string(k) + ")",
                static_cast<std::uint16_t>(lv >> k)};
      }
      case 7: {  // signed comparison -> 0/1
        auto [lt, lv] = expr(depth - 1);
        auto [rt, rv] = expr(depth - 1);
        switch (rng_() % 3) {
          case 0:
            return {"(" + lt + " < " + rt + ")",
                    static_cast<std::uint16_t>(s16(lv) < s16(rv) ? 1 : 0)};
          case 1:
            return {"(" + lt + " == " + rt + ")",
                    static_cast<std::uint16_t>(lv == rv ? 1 : 0)};
          default:
            return {"(" + lt + " >= " + rt + ")",
                    static_cast<std::uint16_t>(s16(lv) >= s16(rv) ? 1 : 0)};
        }
      }
      default: {  // unary
        auto [lt, lv] = expr(depth - 1);
        if (rng_() % 2 == 0) return {"(-" + lt + ")", w(-s16(lv))};
        return {"(~" + lt + ")", static_cast<std::uint16_t>(~lv)};
      }
    }
  }

  std::pair<std::string, std::uint16_t> leaf() {
    if (rng_() % 2 == 0 || vars_.empty()) {
      const std::uint16_t v = static_cast<std::uint16_t>(rng_() % 200);
      return {std::to_string(v), v};
    }
    const auto& var = vars_[rng_() % vars_.size()];
    return {var.first, var.second};
  }

  template <typename F>
  std::pair<std::string, std::uint16_t> binary(int depth, const char* op,
                                               F eval) {
    auto [lt, lv] = expr(depth - 1);
    auto [rt, rv] = expr(depth - 1);
    return {"(" + lt + " " + op + " " + rt + ")", eval(lv, rv)};
  }

  std::mt19937_64 rng_;
  std::vector<std::pair<std::string, std::uint16_t>> vars_;
};

class differential : public ::testing::TestWithParam<int> {};

TEST_P(differential, device_matches_host_and_report_verifies) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  program_generator gen(seed * 0x9e3779b97f4a7c15ull + 1);
  std::mt19937_64 arg_rng(seed);
  const std::uint16_t a = static_cast<std::uint16_t>(arg_rng() % 500);
  const std::uint16_t b = static_cast<std::uint16_t>(arg_rng() % 500);
  const std::uint16_t c = static_cast<std::uint16_t>(arg_rng());
  const std::uint16_t d = static_cast<std::uint16_t>(arg_rng() % 17);
  const auto prog_src = gen.generate(a, b, c, d);

  const auto prog =
      build_op(prog_src.source, "op", instr::instrumentation::dialed);
  test::hub_device dut(prog);
  proto::invocation inv;
  inv.args = {a, b, c, d, 0, 0, 0, 0};
  const auto grant = dut.hub.challenge(dut.id);
  const auto rep = dut.dev.invoke(grant.nonce, inv);
  ASSERT_EQ(rep.halt_code, emu::HALT_CLEAN) << prog_src.source;
  EXPECT_EQ(rep.claimed_result, prog_src.expected) << prog_src.source;

  const auto r = dut.submit(grant, rep);
  EXPECT_TRUE(r.accepted()) << prog_src.source;
  EXPECT_EQ(r.verdict.replayed_result, prog_src.expected) << prog_src.source;
}

INSTANTIATE_TEST_SUITE_P(seeds, differential, ::testing::Range(0, 48));

// ---------------------------------------------------------------------------
// Wire v2.1 vs v2: verdict-equivalence across the four apps
// ---------------------------------------------------------------------------

void expect_result_eq(const fleet::attest_result& a,
                      const fleet::attest_result& b, const char* label,
                      int round) {
  ASSERT_EQ(a.error, b.error) << label << " round " << round;
  EXPECT_EQ(a.device, b.device) << label << " round " << round;
  EXPECT_EQ(a.seq, b.seq) << label << " round " << round;
  test::expect_same_verdict(
      a.verdict, b.verdict,
      std::string(label) + " round " + std::to_string(round));
}

/// One round for `app` on two lockstep fleets: hub A gets the report as
/// a v2 full frame, hub B gets it through the delta emitter (v2.1 once a
/// baseline exists). `mutate_report` lets attack rounds tamper with the
/// report after the device produced it.
struct lockstep_fleet {
  explicit lockstep_fleet(const instr::linked_program& prog)
      : reg_a(test_key()), reg_b(test_key()) {
    fleet::hub_config cfg;
    cfg.sequential_batch = true;
    cfg.shards = 1;
    cfg.seed = 0x00d1a1ed5eedull;
    id_a = reg_a.provision(prog);
    id_b = reg_b.provision(prog);
    hub_a.emplace(reg_a, cfg);
    hub_b.emplace(reg_b, cfg);
    dev = std::make_unique<proto::prover_device>(prog,
                                                 reg_a.derive_key(id_a));
  }

  /// Runs a round; returns {full-frame result, delta-frame result} after
  /// asserting both fleets issued the identical challenge.
  std::pair<fleet::attest_result, fleet::attest_result> round(
      const proto::invocation& inv,
      const std::function<void(verifier::attestation_report&)>&
          mutate_report = {}) {
    const auto ga = hub_a->challenge(id_a);
    const auto gb = hub_b->challenge(id_b);
    // Same master key, same provision order, same hub seed: the two
    // fleets are bit-identical, so the frames are comparable.
    EXPECT_EQ(ga.nonce, gb.nonce);
    EXPECT_EQ(ga.seq, gb.seq);
    auto rep = dev->invoke(ga.nonce, inv);
    if (mutate_report) mutate_report(rep);

    proto::frame_info info;
    info.device_id = id_a;
    info.seq = ga.seq;
    const auto full = proto::encode_frame(info, rep);
    const auto delta = emitter.encode(id_b, gb.seq, rep);
    total_full_bytes += full.size();
    total_delta_bytes += delta.size();

    const auto ra = hub_a->submit(full);
    const auto rb = hub_b->submit(delta);
    emitter.note_result(id_b, gb.seq, rep, rb.error, rb.accepted());
    return {ra, rb};
  }

  fleet::device_registry reg_a, reg_b;
  fleet::device_id id_a = 0, id_b = 0;
  std::optional<fleet::verifier_hub> hub_a, hub_b;
  std::unique_ptr<proto::prover_device> dev;
  proto::delta_emitter emitter;
  std::size_t total_full_bytes = 0;
  std::size_t total_delta_bytes = 0;
};

TEST(differential_wire, delta_frames_match_full_frames_on_all_four_apps) {
  auto specs = apps::evaluation_apps();  // SyringePump, FireSensor, Ranger
  specs.push_back(apps::door_lock_app());
  ASSERT_EQ(specs.size(), 4u);
  constexpr int rounds = 5;
  for (const auto& app : specs) {
    const auto prog = apps::build_app(app, instr::instrumentation::dialed);
    lockstep_fleet fleet(prog);
    for (int r = 0; r < rounds; ++r) {
      const auto [ra, rb] = fleet.round(app.representative_input);
      expect_result_eq(ra, rb, app.name.c_str(), r);
      EXPECT_TRUE(ra.accepted()) << app.name << " round " << r;
    }
    // Steady-state polling is the delta codec's home turf: the emitter
    // must have gone v2.1 after round 1 and saved real transport bytes.
    EXPECT_GE(fleet.emitter.transport_stats().delta_frames,
              static_cast<std::uint64_t>(rounds - 1))
        << app.name;
    EXPECT_LT(fleet.total_delta_bytes, fleet.total_full_bytes) << app.name;
  }
}

TEST(differential_wire, attack_and_forged_paths_match_too) {
  // The finding-heavy paths must classify identically through delta
  // frames: a forged result claim (every app), the DoorLock overflow
  // (data-only attack), and rejected rounds must leave BOTH baselines
  // unchanged so later benign deltas still verify.
  auto specs = apps::evaluation_apps();
  specs.push_back(apps::door_lock_app());
  for (const auto& app : specs) {
    const auto prog = apps::build_app(app, instr::instrumentation::dialed);
    lockstep_fleet fleet(prog);
    // Round 0: benign, establishes the baseline on both sides.
    {
      const auto [ra, rb] = fleet.round(app.representative_input);
      expect_result_eq(ra, rb, app.name.c_str(), 0);
      ASSERT_TRUE(ra.accepted()) << app.name;
    }
    // Round 1: forged result claim — rejected identically (and as a
    // DELTA frame on hub B: tampering happened after OR capture).
    {
      const auto [ra, rb] = fleet.round(
          app.representative_input,
          [](verifier::attestation_report& rep) {
            rep.claimed_result ^= 0x5a5a;
          });
      expect_result_eq(ra, rb, app.name.c_str(), 1);
      EXPECT_FALSE(ra.accepted()) << app.name;
      EXPECT_TRUE(ra.verdict.has(verifier::attack_kind::result_forged))
          << app.name;
    }
    // Round 2: a tampered OR byte — MAC breaks identically.
    {
      const auto [ra, rb] = fleet.round(
          app.representative_input,
          [](verifier::attestation_report& rep) {
            rep.or_bytes[rep.or_bytes.size() / 2] ^= 0x01;
          });
      expect_result_eq(ra, rb, app.name.c_str(), 2);
      EXPECT_FALSE(ra.accepted()) << app.name;
      EXPECT_TRUE(ra.verdict.has(verifier::attack_kind::mac_invalid))
          << app.name;
    }
    // Round 3: benign again — the rejected rounds must not have moved
    // either side's baseline, so the delta still reconstructs.
    {
      const auto [ra, rb] = fleet.round(app.representative_input);
      expect_result_eq(ra, rb, app.name.c_str(), 3);
      EXPECT_TRUE(ra.accepted()) << app.name;
    }
  }
}

TEST(differential_wire, app_attack_payloads_classify_identically) {
  // Real attack inputs (not post-hoc tampering): the DoorLock PIN
  // overflow (data-only) and the Fig. 1 syringe-pump stack smash
  // (control-flow violation, the CFA path) — interleaved with benign
  // rounds so attack verdicts ride DELTA frames against a live baseline.
  {
    const auto app = apps::door_lock_app();
    const auto prog = apps::build_app(app, instr::instrumentation::dialed);
    lockstep_fleet fleet(prog);
    const auto [b0a, b0b] = fleet.round(app.representative_input);
    expect_result_eq(b0a, b0b, "door-lock-benign", 0);
    ASSERT_TRUE(b0a.accepted());
    const auto [ra, rb] =
        fleet.round(apps::door_lock_attack({9, 9, 9, 9}));
    expect_result_eq(ra, rb, "door-lock-attack", 1);
    EXPECT_FALSE(ra.accepted());
  }
  {
    const auto app = apps::fig1_app();
    const auto prog = apps::build_app(app, instr::instrumentation::dialed);
    lockstep_fleet fleet(prog);
    const auto [b0a, b0b] = fleet.round(apps::fig1_benign(5));
    expect_result_eq(b0a, b0b, "fig1-benign", 0);
    ASSERT_TRUE(b0a.accepted());
    const auto [ra, rb] = fleet.round(apps::fig1_attack(prog, 15));
    expect_result_eq(ra, rb, "fig1-cfa-attack", 1);
    EXPECT_FALSE(ra.accepted());
    EXPECT_TRUE(
        ra.verdict.has(verifier::attack_kind::control_flow_attack) ||
        ra.verdict.has(verifier::attack_kind::replay_divergence))
        << "stack smash must surface through the replay";
    // And the fleet recovers: benign round after the attack.
    const auto [b1a, b1b] = fleet.round(apps::fig1_benign(3));
    expect_result_eq(b1a, b1b, "fig1-benign-after", 2);
    EXPECT_TRUE(b1a.accepted());
  }
}

}  // namespace
}  // namespace dialed
