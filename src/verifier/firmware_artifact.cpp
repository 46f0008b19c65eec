#include "verifier/firmware_artifact.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/hmac.h"
#include "obs/obs.h"
#include "crypto/sha256.h"
#include "rot/attest.h"
#include "verifier/cfa_check.h"
#include "verifier/replay.h"

namespace dialed::verifier {

namespace {

/// Canonical serializer feeding the fingerprint hash: every multi-byte
/// value little-endian, every string/byte-run length-prefixed, so field
/// boundaries are unambiguous and the id is stable across builds. The
/// stream is buffered and hashed in one pass at finish() — per-field
/// sha256::update calls dominated a provisioning's cost.
class fingerprint_hasher {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void str(const std::string& s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  crypto::sha256::digest finish() const {
    return crypto::sha256::hash(buf_);
  }

 private:
  byte_vec buf_;
};

/// Rough per-entry overhead of a node-based container (map/set node plus
/// allocator slack) — the footprint numbers are a capacity model for the
/// bench/ROADMAP accounting, not an allocator audit.
constexpr std::size_t node_overhead = 48;

std::size_t string_bytes(const std::string& s) {
  return s.capacity() <= sizeof(std::string) ? 0 : s.capacity();
}

/// The device's claimed result is covered by neither the OR nor the MAC,
/// so every report gets this check — replayed or reused — and it decides
/// the verdict last.
void check_claimed_result(const report_view& report, verdict& v) {
  if (report.claimed_result != v.replayed_result) {
    v.findings.push_back(
        {attack_kind::result_forged,
         "device claimed result " + hex16(report.claimed_result) +
             " but the attested execution produced " +
             hex16(v.replayed_result),
         0, 0});
  }
  v.accepted = v.findings.empty();
}

}  // namespace

firmware_id firmware_artifact::fingerprint(
    const instr::linked_program& prog) {
  fingerprint_hasher h;
  h.str("dialed-firmware-fp-v1");

  // Layout + instrumentation configuration.
  h.u8(static_cast<std::uint8_t>(prog.options.mode));
  h.str(prog.options.entry);
  h.u16(prog.options.er_base);
  h.u16(prog.er_min);
  h.u16(prog.er_max);
  h.u16(prog.crt_entry);
  h.u16(prog.op_return_addr);

  const auto& m = prog.options.map;
  for (const std::uint16_t v :
       {m.ram_start, m.ram_end, m.or_min, m.or_max, m.stack_init,
        m.key_base, m.key_size, m.mac_base, m.mac_size, m.srom_start,
        m.srom_end, m.flash_start, m.flash_end, m.ivt_start,
        m.reset_vector, m.p3out, m.p3in, m.net_data, m.net_avail, m.net_tx,
        m.adc_mem, m.tar, m.halt_port, m.args_base, m.result_addr,
        m.meta_base}) {
    h.u16(v);
  }

  // The image: segment bytes plus the symbol table (the CF-Log walker
  // interprets ".Lstub_cfa_taken*" labels, so symbols are id-relevant).
  h.u32(static_cast<std::uint32_t>(prog.image.segments.size()));
  for (const auto& seg : prog.image.segments) {
    h.u16(seg.base);
    h.bytes(seg.bytes);
  }
  h.u32(static_cast<std::uint32_t>(prog.image.symbols.size()));
  for (const auto& [name, addr] : prog.image.symbols) {
    h.str(name);
    h.u16(addr);
  }

  // Verifier-side metadata: global extents and access-site bounds.
  h.u32(static_cast<std::uint32_t>(prog.global_addrs.size()));
  for (const auto& [name, addr] : prog.global_addrs) {
    h.str(name);
    h.u16(addr);
  }
  h.u32(static_cast<std::uint32_t>(prog.compile_info.access_sites.size()));
  for (const auto& s : prog.compile_info.access_sites) {
    h.str(s.label);
    h.str(s.object);
    h.str(s.function);
    h.u8(s.is_global ? 1 : 0);
    h.i32(s.local_offset_adj);
    h.i32(s.size_bytes);
  }
  return h.finish();
}

firmware_artifact::firmware_artifact(instr::linked_program prog,
                                     const firmware_id* precomputed_id)
    : prog_(std::move(prog)) {
  if (precomputed_id != nullptr) {
    id_ = *precomputed_id;
    id_precomputed_ = true;
  }

  // Fail closed on layouts that abut the top of the address space. The
  // topmost OR slot spans [or_max, or_max+1] and an instruction fetch at
  // pc reads [pc, pc+5]; or_max = 0xffff or er_max > 0xfffa would make
  // those windows wrap to 0x0000 in 16-bit arithmetic. Rather than give
  // every downstream loop a wrapping special case, reject the layout at
  // artifact build time — no real map needs it (flash tops out below the
  // IVT) and a forged report attesting such bounds is already caught by
  // the bounds_mismatch check in verify().
  if (prog_.options.map.or_max == 0xffff) {
    throw error(
        "verifier: or_max = 0xffff — the topmost OR slot would wrap past "
        "the top of the address space");
  }
  if (prog_.er_max > 0xfffa) {
    throw error(
        "verifier: er_max > 0xfffa — the instruction fetch window would "
        "wrap past the top of the address space");
  }

  er_bytes_ = prog_.er_bytes();

  // Prebuild the fixed MAC-message prefix (header ‖ ER) for both EXEC
  // values — per report only the challenge KDF and the OR bytes vary.
  const auto& map0 = prog_.options.map;
  for (const bool exec : {true, false}) {
    const auto header = rot::attest_mac_header(
        prog_.er_min, prog_.er_max, map0.or_min, map0.or_max, exec);
    byte_vec& prefix = exec ? mac_prefix_exec1_ : mac_prefix_exec0_;
    prefix.reserve(header.size() + er_bytes_.size());
    prefix.assign(header.begin(), header.end());
    prefix.insert(prefix.end(), er_bytes_.begin(), er_bytes_.end());
  }

  // Flatten the image once — the bytes the bus holds right after load.
  flat_.assign(0x10000, 0);
  for (const auto& seg : prog_.image.segments) {
    std::uint32_t a = seg.base;
    for (const std::uint8_t b : seg.bytes) {
      flat_[a++ & 0xffff] = b;
    }
  }

  // Predecode [er_min, er_max]: the only range replayed code executes from
  // until an attack overwrites it (then callers must decode live).
  const auto word_at = [this](std::uint16_t a) {
    return static_cast<std::uint16_t>(
        flat_[a] | (flat_[static_cast<std::uint16_t>(a + 1)] << 8));
  };
  if (prog_.er_max >= prog_.er_min) {
    const std::size_t n =
        static_cast<std::size_t>(prog_.er_max - prog_.er_min) / 2 + 1;
    decoded_.resize(n);
    decoded_valid_.assign(n, 0);
    site_index_.assign(n, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      const auto pc =
          static_cast<std::uint16_t>(prog_.er_min + 2 * i);
      const std::array<std::uint16_t, 3> words = {
          word_at(pc), word_at(static_cast<std::uint16_t>(pc + 2)),
          word_at(static_cast<std::uint16_t>(pc + 4))};
      // Not every even address is an instruction boundary (about a fifth
      // are extension words); callers that land on one decode live and
      // get the identical error.
      if (isa::try_decode(words, pc, decoded_[i]) ==
          isa::decode_error::none) {
        decoded_valid_[i] = 1;
      }
    }
  }

  // Resolve the compiler's access sites to code addresses, then index
  // the in-ER ones into the flat per-pc array site_at() serves from.
  for (const auto& s : prog_.compile_info.access_sites) {
    bounds_site info;
    info.object = s.object;
    info.is_global = s.is_global;
    info.local_offset_adj = s.local_offset_adj;
    info.size_bytes = s.size_bytes;
    if (s.is_global) {
      info.global_base = prog_.global_addrs.at(s.object);
    }
    sites_[prog_.image.symbol(s.label)] = info;
  }
  for (const auto& [pc, site] : sites_) {
    if (pc >= prog_.er_min && pc <= prog_.er_max &&
        ((pc - prog_.er_min) & 1) == 0) {
      site_index_[static_cast<std::size_t>(pc - prog_.er_min) / 2] = &site;
    } else {
      sites_outside_er_ = true;
    }
  }

  // Stub labels the CF-Log walker classifies conditionals by.
  for (const auto& [name, addr] : prog_.image.symbols) {
    if (name.rfind(".Lstub_cfa_taken", 0) == 0) {
      taken_labels_.push_back(addr);
    }
  }
  std::sort(taken_labels_.begin(), taken_labels_.end());
}

std::shared_ptr<const firmware_artifact> firmware_artifact::build(
    instr::linked_program prog, const firmware_id* precomputed_id) {
  return std::make_shared<const firmware_artifact>(std::move(prog),
                                                   precomputed_id);
}

const firmware_id& firmware_artifact::id() const {
  std::call_once(id_once_, [this] {
    if (!id_precomputed_) id_ = fingerprint(prog_);
  });
  return id_;
}

std::string firmware_artifact::id_hex() const { return to_hex(id()); }

bool firmware_artifact::is_taken_label(std::uint16_t addr) const {
  return std::binary_search(taken_labels_.begin(), taken_labels_.end(),
                            addr);
}

verdict firmware_artifact::verify(
    const report_view& report, const crypto::hmac_keystate& key_state,
    const std::vector<std::shared_ptr<policy>>& policies,
    std::optional<std::array<std::uint8_t, 16>> expected_challenge,
    verify_timings* timings, const accepted_round* prior) const {
  verdict v;

  // ---- 1. configuration ----
  const auto& map = prog_.options.map;
  if (report.er_min != prog_.er_min || report.er_max != prog_.er_max ||
      report.or_min != map.or_min || report.or_max != map.or_max) {
    v.findings.push_back(
        {attack_kind::bounds_mismatch,
         "report attests different ER/OR bounds than the deployed program",
         0, report.er_min});
    return v;
  }
  if (!check_or_length(report, v.findings)) return v;
  if (expected_challenge && report.challenge != *expected_challenge) {
    v.findings.push_back({attack_kind::stale_challenge,
                          "challenge does not match the outstanding nonce",
                          0, 0});
    return v;
  }

  // ---- 2. MAC + EXEC ----
  // KDF once per report (k' is challenge-bound), then MAC over the
  // prebuilt header‖ER prefix and the viewed OR. Vrf only ever accepts
  // proofs of violation-free runs, so EXEC=1 is what the expected MAC
  // asserts. Bounds already matched the program's, so the artifact's
  // prefix is exactly this report's header‖ER.
  const std::uint64_t t_mac = timings != nullptr ? obs::now_ns() : 0;
  const auto derived = crypto::hmac_sha256::compute(key_state,
                                                    report.challenge);
  const auto derived_state = crypto::hmac_keystate::derive(derived);
  const auto expected_mac = rot::compute_attestation_mac_derived(
      derived_state, mac_prefix_exec1_, report.or_bytes);
  if (!crypto::hmac_sha256::equal(expected_mac, report.mac)) {
    // Distinguish an authentic EXEC=0 report from an outright forgery —
    // purely diagnostic; both are rejected. Reuses the derived key
    // schedule: only the one-byte exec flag in the prefix differs.
    const auto mac_exec0 = rot::compute_attestation_mac_derived(
        derived_state, mac_prefix_exec0_, report.or_bytes);
    if (crypto::hmac_sha256::equal(mac_exec0, report.mac)) {
      v.findings.push_back(
          {attack_kind::exec_cleared,
           report.halt_code == emu::HALT_ABORT
               ? "EXEC=0 and the device aborted: the instrumentation "
                 "detected an illegal write or log overflow"
               : "EXEC=0: APEX observed an execution violation "
                 "(code write, PC escape, interrupt or DMA)",
           0, 0});
      if (report.halt_code == emu::HALT_ABORT) {
        v.findings.push_back({attack_kind::instrumentation_abort,
                              "device halted with HALT_ABORT", 0, 0});
      }
    } else {
      v.findings.push_back(
          {attack_kind::mac_invalid,
           "MAC verification failed: modified code, forged logs, wrong key "
           "or tampered challenge",
           0, 0});
      if (report.halt_code == emu::HALT_ABORT) {
        // The device never reached SW-Att: its instrumentation aborted the
        // run (illegal write into the log region or log overflow).
        v.findings.push_back({attack_kind::instrumentation_abort,
                              "device halted with HALT_ABORT before "
                              "attestation",
                              0, 0});
      }
    }
    if (timings != nullptr) timings->mac_ns = obs::now_ns() - t_mac;
    return v;
  }
  if (timings != nullptr) timings->mac_ns = obs::now_ns() - t_mac;

  // Everything from here is replay-shaped work (CFA reconstruction or the
  // full ER replay); stamp it on every exit path below.
  const std::uint64_t t_replay = timings != nullptr ? obs::now_ns() : 0;
  const auto stamp_replay = [&] {
    if (timings != nullptr) timings->replay_ns = obs::now_ns() - t_replay;
  };

  // ---- 3a. CFA-only verification (Tiny-CFA deployments) ----
  if (prog_.options.mode == instr::instrumentation::tinycfa) {
    // Without DIALED's I-Log the execution cannot be replayed, but the
    // control-flow path can still be reconstructed and checked from
    // CF-Log alone (Tiny-CFA's own guarantee; catches Fig. 1, blind to
    // Fig. 2 — the paper's motivation for DIALED).
    auto cfa = check_cfa_log(*this, report);
    v.findings.insert(v.findings.end(), cfa.findings.begin(),
                      cfa.findings.end());
    v.log_slots_consumed = cfa.entries_consumed;
    v.log_bytes = 2 * cfa.entries_consumed;
    v.accepted = cfa.ok;
    stamp_replay();
    return v;
  }
  if (prog_.options.mode != instr::instrumentation::dialed) {
    // Uninstrumented: the MAC and EXEC guarantees above are all this
    // configuration can offer.
    v.accepted = true;
    stamp_replay();
    return v;
  }

  // Replay is a pure function of (artifact, OR bytes) — the bounds
  // already matched this artifact's — so the device's last accepted round
  // stands in for it when its OR bytes are identical. Policies may carry
  // state outside that pair, so they always replay. Reached only after
  // this report's MAC verified.
  if (prior != nullptr && policies.empty() && prior->outcome.accepted &&
      prior->fw == id() &&
      std::ranges::equal(prior->or_bytes, report.or_bytes)) {
    v = prior->outcome;
    v.replay = replay_path::reused;
    check_claimed_result(report, v);
    stamp_replay();
    return v;
  }

  replay_result rr = replay_operation(*this, report, policies);
  v.replay = replay_path::replayed;
  v.findings.insert(v.findings.end(), rr.findings.begin(),
                    rr.findings.end());
  v.replay_instructions = rr.instructions;

  if (!rr.completed) {
    if (rr.findings.empty()) {
      v.findings.push_back({attack_kind::replay_divergence,
                            "replay did not reach the op's return", 0, 0});
    }
    stamp_replay();
    return v;
  }

  v.replayed_result = rr.final_r15;
  logfmt::log_view log(report.or_min, report.or_max, report.or_bytes);
  v.log_slots_consumed = log.used_slots(rr.final_r4);
  v.log_bytes = log.used_bytes(rr.final_r4);
  check_claimed_result(report, v);
  stamp_replay();
  return v;
}

std::size_t firmware_artifact::program_footprint_bytes(
    const instr::linked_program& prog) {
  std::size_t n = sizeof(instr::linked_program);
  for (const auto& seg : prog.image.segments) {
    n += sizeof(seg) + seg.bytes.capacity();
  }
  for (const auto& [name, addr] : prog.image.symbols) {
    (void)addr;
    n += node_overhead + string_bytes(name);
  }
  for (const auto& e : prog.image.listing) {
    n += sizeof(e) + string_bytes(e.text);
  }
  for (const auto& [name, addr] : prog.global_addrs) {
    (void)addr;
    n += node_overhead + string_bytes(name);
  }
  const auto& ci = prog.compile_info;
  n += string_bytes(ci.asm_text);
  for (const auto& g : ci.globals) {
    n += sizeof(g) + string_bytes(g.name) +
         g.init.capacity() * sizeof(std::int32_t);
  }
  for (const auto& f : ci.functions) {
    n += sizeof(f) + string_bytes(f.name);
    for (const auto& l : f.locals) n += sizeof(l) + string_bytes(l.name);
  }
  for (const auto& h : ci.helpers) n += node_overhead + string_bytes(h);
  for (const auto& s : ci.access_sites) {
    n += sizeof(s) + string_bytes(s.label) + string_bytes(s.object) +
         string_bytes(s.function);
  }
  for (const auto& [name, text] : ci.function_text) {
    n += node_overhead + string_bytes(name) + string_bytes(text);
  }
  n += string_bytes(prog.er_asm_text);
  n += string_bytes(prog.options.entry);
  for (const auto& [name, addr] : prog.options.pass_opts.symbols) {
    (void)addr;
    n += node_overhead + string_bytes(name);
  }
  return n;
}

std::size_t firmware_artifact::footprint_bytes() const {
  std::size_t n = sizeof(*this) + program_footprint_bytes(prog_);
  n += er_bytes_.capacity();
  n += flat_.capacity();
  n += decoded_.capacity() * sizeof(isa::decoded);
  n += decoded_valid_.capacity();
  n += site_index_.capacity() * sizeof(const bounds_site*);
  n += taken_labels_.capacity() * sizeof(std::uint16_t);
  for (const auto& [pc, s] : sites_) {
    (void)pc;
    n += node_overhead + sizeof(s) + string_bytes(s.object);
  }
  return n;
}

}  // namespace dialed::verifier
