// Differential property testing: randomly generated mini-C operations are
// compiled, instrumented at the DIALED level and run on the emulated MCU
// with random peripheral inputs under the full attestation flow. The
// prover and a host-side reference with the same 16-bit semantics judge
// every run: the device's result must equal the reference, and the
// verifier's replay must reproduce it. Each program runs on both of the
// replay's decode paths — the predecoded index, and the live decode that
// takes over once the run stores into the code window — and must get
// field-identical verdicts on both, as v2 and as v2.1 (delta) frames,
// replayed and reused, with and without a forensics sink. Forged results,
// OR byte flips, forged MACs and an out-of-bounds store must each be
// rejected with the right finding, and a Tiny-CFA build of the same
// source must be accepted with the reference result.
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

/// Host model of the peripherals generated programs touch, after
/// src/emu/peripherals.cpp. NET_DATA reads the RX FIFO head (0 when
/// empty) and a write acknowledges it; a 16-bit write to ADC_MEM converts
/// the next queued sample, and reads return the last conversion (0
/// before the first); P3IN reads the input level. Reads never advance.
struct peripheral_model {
  explicit peripheral_model(const proto::invocation& inv)
      : net(inv.net_rx), adc(inv.adc_samples), gpio_in(inv.gpio_in) {}

  std::uint16_t net_head() const {
    return net_at < net.size() ? net[net_at] : 0;
  }
  void net_ack() {
    if (net_at < net.size()) ++net_at;
  }
  void adc_convert() {
    if (adc_at < adc.size()) adc_last = adc[adc_at++];
  }

  std::vector<std::uint8_t> net;
  std::size_t net_at = 0;
  std::vector<std::uint16_t> adc;
  std::size_t adc_at = 0;
  std::uint16_t adc_last = 0;
  std::uint8_t gpio_in = 0;
};

/// Generates a mini-C op as source text together with its host-side
/// value. The op takes (a, b, c, d, w, v, idx) and uses:
///  * locals, conditional updates and a bounded accumulation loop;
///  * a global scalar `g` and a global array `ga`, read and written;
///  * a local array `la`, fully initialized before any read;
///  * a helper `h(p, q)` called from expressions;
///  * peripheral reads (NET_DATA, ADC_MEM, P3IN) and the writes that
///    advance them.
/// Array indices are constants or the loop counter, always in bounds,
/// except `ga[idx] = ...`, whose index is the argument `idx`: in bounds
/// for benign runs (`benign_idx`), out of bounds at `array_len`. The op
/// opens with `__mmio_w16(w, v)`, whose target the test picks; nothing
/// else reads w, v or idx.
class program_generator {
 public:
  explicit program_generator(std::uint64_t seed) : rng_(seed) {}

  struct program {
    std::string source;
    std::uint16_t expected = 0;  ///< result for idx = benign_idx
    std::uint16_t array_len = 0;
    std::uint16_t benign_idx = 0;
  };

  program generate(const std::array<std::uint16_t, 4>& in,
                   const proto::invocation& inv) {
    periph_.emplace(inv);
    vars_.clear();
    la_ready_ = 0;
    for (int i = 0; i < 4; ++i) {
      vars_.emplace_back(std::string(1, static_cast<char>('a' + i)),
                         in[static_cast<std::size_t>(i)]);
    }
    program p;

    // Globals: a scalar and an initialized array.
    std::string top;
    g_ = static_cast<std::uint16_t>(rng_() % 200);
    top += "int g = " + std::to_string(g_) + ";\n";
    ga_.resize(3 + rng_() % 4);
    top += "int ga[" + std::to_string(ga_.size()) + "] = {";
    for (std::size_t i = 0; i < ga_.size(); ++i) {
      ga_[i] = static_cast<std::uint16_t>(rng_() % 1000);
      top += (i ? ", " : "") + std::to_string(ga_[i]);
    }
    top += "};\n";
    p.array_len = static_cast<std::uint16_t>(ga_.size());
    p.benign_idx = static_cast<std::uint16_t>(rng_() % ga_.size());

    // The helper: an expression over its two parameters only.
    helper_scope_ = true;
    helper_ = expr(2);
    helper_scope_ = false;
    top += "int h(int p, int q) {\n  return " + helper_.text + ";\n}\n";

    std::string body = "  __mmio_w16(w, v);\n";
    la_.resize(2 + rng_() % 3);
    body += "  int la[" + std::to_string(la_.size()) + "];\n";
    for (std::size_t j = 0; j < la_.size(); ++j) {
      const node e = expr(1);
      body += "  la[" + std::to_string(j) + "] = " + e.text + ";\n";
      la_[j] = e.eval();
      la_ready_ = j + 1;
    }

    const int statements = 3 + static_cast<int>(rng_() % 5);
    const int store_at = static_cast<int>(rng_() % (statements + 1));
    int locals = 0;
    for (int s = 0; s <= statements; ++s) {
      if (s == store_at) {
        const node e = expr(1);
        body += "  ga[idx] = " + e.text + ";\n";
        ga_[p.benign_idx] = e.eval();
      }
      if (s < statements) body += statement(locals);
    }

    // A bounded accumulation loop over one of the arrays.
    const bool over_global = rng_() % 2 == 0;
    const auto& arr = over_global ? ga_ : la_;
    const std::size_t trips = 1 + rng_() % arr.size();
    const node step = expr(1);
    body += "  int acc = 0;\n  int i;\n";
    body += "  for (i = 0; i < " + std::to_string(trips) + "; i++) {\n";
    body += "    acc = acc + (" + step.text + ") + " +
            (over_global ? "ga" : "la") + "[i];\n  }\n";
    const std::uint16_t step_value = step.eval();
    std::uint16_t acc = 0;
    for (std::size_t i = 0; i < trips; ++i) acc = w(acc + step_value + arr[i]);
    vars_.emplace_back("acc", acc);

    const node ret = expr(2);
    p.source = top +
               "int op(int a, int b, int c, int d, int w, int v, int idx) {\n" +
               body + "  return " + ret.text + ";\n}\n";
    p.expected = ret.eval();
    return p;
  }

 private:
  /// An expression: its text, and its value under the generator's
  /// current state (helper bodies are evaluated per call).
  struct node {
    std::string text;
    std::function<std::uint16_t()> eval;
  };

  /// A leaf with a fixed value. Outside the helper every expression is
  /// evaluated as soon as it is generated, so a read of program state is
  /// its current value.
  static node fixed(std::string text, std::uint16_t v) {
    return {std::move(text), [v] { return v; }};
  }
  static node fixed(std::uint16_t v) { return fixed(std::to_string(v), v); }

  /// One statement of the op body; updates the host state.
  std::string statement(int& locals) {
    switch (rng_() % 6) {
      case 0: {  // peripheral writes that advance the inputs
        const emu::memory_map map;
        if (rng_() % 2 == 0) {
          periph_->net_ack();
          return "  __mmio_w8(" + std::to_string(map.net_data) + ", 0);\n";
        }
        periph_->adc_convert();
        return "  __mmio_w16(" + std::to_string(map.adc_mem) + ", 1);\n";
      }
      case 1: {  // global scalar
        const node e = expr(2);
        g_ = e.eval();
        return "  g = " + e.text + ";\n";
      }
      case 2: {  // in-bounds array element
        const bool global = rng_() % 2 == 0;
        auto& arr = global ? ga_ : la_;
        const std::size_t j = rng_() % arr.size();
        const node e = expr(2);
        arr[j] = e.eval();
        return std::string("  ") + (global ? "ga" : "la") + "[" +
               std::to_string(j) + "] = " + e.text + ";\n";
      }
      case 3:
        if (locals > 0) {  // conditional update of a local
          auto& var = vars_[4 + rng_() % static_cast<std::size_t>(locals)];
          const node cond = expr(1);
          const node then = expr(1);
          if (cond.eval() != 0) var.second = then.eval();
          return "  if (" + cond.text + ") { " + var.first + " = " +
                 then.text + "; }\n";
        }
        [[fallthrough]];
      default: {  // a new local
        const node e = expr(2);
        const std::string name = "x" + std::to_string(locals++);
        vars_.emplace_back(name, e.eval());
        return "  int " + name + " = " + e.text + ";\n";
      }
    }
  }

  /// Generate an expression of bounded depth.
  node expr(int depth) {
    if (depth == 0 || rng_() % 4 == 0) return leaf();
    switch (rng_() % 10) {
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
        const node l = expr(depth - 1);
        const int k = static_cast<int>(rng_() % 8);
        if (rng_() % 2 == 0) {
          return {"(" + l.text + " << " + std::to_string(k) + ")",
                  [l, k] { return w(l.eval() << k); }};
        }
        return {"(" + l.text + " >> " + std::to_string(k) + ")",
                [l, k] { return static_cast<std::uint16_t>(l.eval() >> k); }};
      }
      case 7: {  // signed comparison -> 0/1
        switch (rng_() % 3) {
          case 0:
            return binary(depth, "<", [](auto l, auto r) {
              return static_cast<std::uint16_t>(s16(l) < s16(r));
            });
          case 1:
            return binary(depth, "==", [](auto l, auto r) {
              return static_cast<std::uint16_t>(l == r);
            });
          default:
            return binary(depth, ">=", [](auto l, auto r) {
              return static_cast<std::uint16_t>(s16(l) >= s16(r));
            });
        }
      }
      case 8:
        if (!helper_scope_) {  // helper call
          const node l = expr(depth - 1);
          const node r = expr(depth - 1);
          return {"h(" + l.text + ", " + r.text + ")", [this, l, r] {
                    const std::uint16_t p = l.eval();
                    const std::uint16_t q = r.eval();
                    helper_args_ = {p, q};
                    return helper_.eval();
                  }};
        }
        [[fallthrough]];
      default: {  // unary
        const node l = expr(depth - 1);
        if (rng_() % 2 == 0) {
          return {"(-" + l.text + ")", [l] { return w(-s16(l.eval())); }};
        }
        return {"(~" + l.text + ")",
                [l] { return static_cast<std::uint16_t>(~l.eval()); }};
      }
    }
  }

  node leaf() {
    if (helper_scope_) {
      switch (rng_() % 3) {
        case 0: return {"p", [this] { return helper_args_[0]; }};
        case 1: return {"q", [this] { return helper_args_[1]; }};
        default: return fixed(static_cast<std::uint16_t>(rng_() % 200));
      }
    }
    const emu::memory_map map;
    switch (rng_() % 8) {
      case 0:
      case 1:
      case 2: return fixed(static_cast<std::uint16_t>(rng_() % 200));
      case 3: {  // peripheral read
        const peripheral_model& pm = *periph_;
        switch (rng_() % 3) {
          case 0:
            return fixed("__mmio_r8(" + std::to_string(map.net_data) +
                                     ")",
                                 pm.net_head());
          case 1:
            return fixed(
                "__mmio_r16(" + std::to_string(map.adc_mem) + ")",
                pm.adc_last);
          default:
            return fixed(
                "__mmio_r8(" + std::to_string(map.p3in) + ")", pm.gpio_in);
        }
      }
      case 4: {  // array element, constant index
        const bool global = la_ready_ == 0 || rng_() % 2 == 0;
        const std::size_t j =
            rng_() % (global ? ga_.size() : la_ready_);
        return fixed(std::string(global ? "ga" : "la") + "[" +
                                 std::to_string(j) + "]",
                             global ? ga_[j] : la_[j]);
      }
      case 5: return fixed("g", g_);
      default: {
        const auto& var = vars_[rng_() % vars_.size()];
        return fixed(var.first, var.second);
      }
    }
  }

  template <typename F>
  node binary(int depth, const char* op, F eval) {
    const node l = expr(depth - 1);
    const node r = expr(depth - 1);
    return {"(" + l.text + " " + op + " " + r.text + ")",
            [l, r, eval] { return eval(l.eval(), r.eval()); }};
  }

  std::mt19937_64 rng_;
  std::vector<std::pair<std::string, std::uint16_t>> vars_;
  std::optional<peripheral_model> periph_;
  std::uint16_t g_ = 0;
  std::vector<std::uint16_t> ga_;
  std::vector<std::uint16_t> la_;
  std::size_t la_ready_ = 0;  ///< la elements initialized so far
  bool helper_scope_ = false;
  node helper_;
  std::array<std::uint16_t, 2> helper_args_{};
};

// ---------------------------------------------------------------------------
// Lockstep fleets: every round as a v2 and as a v2.1 frame
// ---------------------------------------------------------------------------

void expect_result_eq(const fleet::attest_result& a,
                      const fleet::attest_result& b,
                      const std::string& label) {
  ASSERT_EQ(a.error, b.error) << label;
  EXPECT_EQ(a.device, b.device) << label;
  EXPECT_EQ(a.seq, b.seq) << label;
  test::expect_same_verdict(a.verdict, b.verdict, label);
}

void expect_result_eq(const fleet::attest_result& a,
                      const fleet::attest_result& b, const char* label,
                      int round) {
  expect_result_eq(a, b,
                   std::string(label) + " round " + std::to_string(round));
}

/// One round for `prog` on two lockstep fleets: hub A gets the report as
/// a v2 full frame, hub B gets it through the delta emitter (v2.1 once a
/// baseline exists). `mutate_report` lets attack rounds tamper with the
/// report after the device produced it. The registries share one
/// catalog, so both hubs verify on the one immutable artifact.
struct lockstep_fleet {
  explicit lockstep_fleet(const instr::linked_program& prog)
      : reg_a(test_key()), reg_b(test_key(), reg_a.catalog()) {
    fleet::hub_config cfg;
    cfg.seed = 0x00d1a1ed5eedull;
    id_a = reg_a.provision(prog);
    id_b = reg_b.provision(prog);
    hub_a.emplace(reg_a, cfg);
    hub_b.emplace(reg_b, cfg);
    reboot();
  }

  /// Replace the device with a freshly built one: the device keeps its
  /// peripheral queues across invocations, so this is how a round starts
  /// with no input left over from an earlier one.
  void reboot() {
    dev = std::make_unique<proto::prover_device>(
        *reg_a.find(id_a)->program, reg_a.derive_key(id_a));
  }

  /// Runs a round; returns {full-frame result, delta-frame result} after
  /// asserting both fleets issued the identical challenge. The report as
  /// sent is left in `last_report`.
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
    last_report = std::move(rep);
    return {ra, rb};
  }

  fleet::device_registry reg_a, reg_b;
  fleet::device_id id_a = 0, id_b = 0;
  std::optional<fleet::verifier_hub> hub_a, hub_b;
  std::unique_ptr<proto::prover_device> dev;
  proto::delta_emitter emitter;
  verifier::attestation_report last_report;
  std::size_t total_full_bytes = 0;
  std::size_t total_delta_bytes = 0;
};

// ---------------------------------------------------------------------------
// Generated programs on both decode paths
// ---------------------------------------------------------------------------

class differential : public ::testing::TestWithParam<int> {};

TEST_P(differential, generated_program_on_both_decode_paths) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  program_generator gen(seed * 0x9e3779b97f4a7c15ull + 1);
  std::mt19937_64 rng(seed);
  const std::array<std::uint16_t, 4> in = {
      static_cast<std::uint16_t>(rng() % 500),
      static_cast<std::uint16_t>(rng() % 500),
      static_cast<std::uint16_t>(rng()),
      static_cast<std::uint16_t>(rng() % 17)};
  proto::invocation inv;
  inv.net_rx.resize(rng() % 5);
  for (auto& b : inv.net_rx) b = static_cast<std::uint8_t>(rng());
  inv.adc_samples.resize(rng() % 4);
  for (auto& s : inv.adc_samples) s = static_cast<std::uint16_t>(rng() % 4096);
  inv.gpio_in = static_cast<std::uint8_t>(rng());
  const auto p = gen.generate(in, inv);
  const std::string where = "seed " + std::to_string(seed) + "\n" + p.source;

  const auto prog = build_op(p.source, "op", instr::instrumentation::dialed);
  lockstep_fleet fleet(prog);
  const auto& fw = *fleet.reg_a.find(fleet.id_a)->firmware;
  test::expect_decode_cache_matches_image(fw, where);

  // The leading __mmio_w16(w, v) picks the decode path. Both targets are
  // zero flash padding next to ER that no program reads, so the F5 check
  // in front of the store takes the same branches for either. The word
  // below er_min lies outside the code window: the cache serves the whole
  // replay. er_max + 2, after ER's final `ret`, lies inside it: the
  // replay decodes live from the store on, while APEX (which guards
  // [er_min, er_max+1]) keeps EXEC = 1.
  const auto w_cached = static_cast<std::uint16_t>(prog.er_min - 2);
  const auto w_live = static_cast<std::uint16_t>(prog.er_max + 2);
  for (const std::uint16_t a : {w_cached, w_live}) {
    ASSERT_EQ(fw.flat_image()[a] | fw.flat_image()[a + 1], 0) << where;
  }
  const auto v = static_cast<std::uint16_t>(rng());
  const auto with = [&](std::uint16_t target, std::uint16_t idx) {
    proto::invocation x = inv;
    x.args = {in[0], in[1], in[2], in[3], target, v, idx, 0};
    return x;
  };

  const auto benign = [&](const char* arm, std::uint16_t target,
                          verifier::replay_path path) {
    const std::string label = std::string(arm) + " arm, " + where;
    const auto [ra, rb] = fleet.round(with(target, p.benign_idx));
    const auto& rep = fleet.last_report;
    expect_result_eq(ra, rb, label);
    EXPECT_EQ(rep.halt_code, emu::HALT_CLEAN) << label;
    EXPECT_EQ(rep.claimed_result, p.expected) << label;
    EXPECT_TRUE(ra.accepted()) << label;
    EXPECT_EQ(ra.verdict.replay, path) << label;
    EXPECT_EQ(ra.verdict.replayed_result, p.expected) << label;
    test::expect_capture_neutral(fw, rep, label);
    return ra.verdict;
  };
  const auto cached =
      benign("cached", w_cached, verifier::replay_path::replayed);
  // The same inputs on a fresh boot attest byte-identical OR bytes: the
  // hubs reuse the verdict of the round before.
  fleet.reboot();
  test::expect_same_verdict(
      cached, benign("reused", w_cached, verifier::replay_path::reused),
      "reused vs replayed, " + where);
  fleet.reboot();
  const auto live = benign("live", w_live, verifier::replay_path::replayed);
  test::expect_same_verdict(cached, live, "cached vs live, " + where);

  const auto attack = [&](const char* what, std::uint16_t idx,
                          verifier::attack_kind want,
                          const std::function<void(
                              verifier::attestation_report&)>& tamper = {}) {
    const std::string label = std::string(what) + ", " + where;
    const auto [ra, rb] = fleet.round(with(w_cached, idx), tamper);
    expect_result_eq(ra, rb, label);
    EXPECT_FALSE(ra.accepted()) << label;
    EXPECT_TRUE(ra.verdict.has(want)) << label;
  };
  attack("forged result", p.benign_idx, verifier::attack_kind::result_forged,
         [](auto& rep) { rep.claimed_result ^= 0x5a5a; });
  const std::size_t flip_at = rng();
  attack("OR byte flip", p.benign_idx, verifier::attack_kind::mac_invalid,
         [flip_at](auto& rep) {
           rep.or_bytes[flip_at % rep.or_bytes.size()] ^= 0x01;
         });
  attack("forged MAC", p.benign_idx, verifier::attack_kind::mac_invalid,
         [](auto& rep) { rep.mac[0] ^= 0x01; });
  attack("out-of-bounds store", p.array_len,
         verifier::attack_kind::data_only_attack);
  EXPECT_GE(fleet.emitter.transport_stats().delta_frames, 1u) << where;

  // The same program under Tiny-CFA: no I-Log and no replay; the CF-Log
  // walker judges the run.
  test::hub_device cfa(
      build_op(p.source, "op", instr::instrumentation::tinycfa));
  const auto& cfa_fw = *cfa.registry.find(cfa.id)->firmware;
  test::expect_decode_cache_matches_image(cfa_fw, "tinycfa, " + where);
  const auto grant = cfa.hub.challenge(cfa.id);
  const auto rep = cfa.dev.invoke(
      grant.nonce,
      with(static_cast<std::uint16_t>(cfa_fw.program().er_min - 2),
           p.benign_idx));
  EXPECT_EQ(rep.claimed_result, p.expected) << "tinycfa, " << where;
  EXPECT_TRUE(cfa.submit(grant, rep).accepted()) << "tinycfa, " << where;
}

INSTANTIATE_TEST_SUITE_P(seeds, differential, ::testing::Range(0, 200));

// ---------------------------------------------------------------------------
// Wire v2.1 vs v2: verdict-equivalence across the four apps
// ---------------------------------------------------------------------------

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
