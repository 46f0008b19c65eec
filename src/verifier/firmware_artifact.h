// Immutable, content-addressed, per-FIRMWARE verifier state (the fleet
// refactor's tentpole). At fleet scale most devices run one of a handful of
// firmware images; everything the §III verification pipeline can derive
// from the image alone — rather than from a particular device or report —
// is precomputed ONCE here and shared by every device on that firmware:
//
//   * the canonical ER byte range the attestation MAC covers,
//   * the decoded-instruction index over [er_min, er_max] (the abstract
//     executor and the Tiny-CFA walker previously re-decoded every
//     instruction of every report),
//   * the compiler's access-site bounds table resolved to code addresses,
//   * the flattened 64 KiB image, the ".Lstub_cfa_taken*" label set and
//     the log-push site map the CF-Log walker interprets.
//
// Thread-safety contract: a firmware_artifact is deeply immutable after
// construction — every member is written only by the constructor and only
// read afterwards, so any number of threads may call verify()/accessors
// concurrently with no synchronization. Share it as
// shared_ptr<const firmware_artifact> (what firmware_catalog::intern and
// device_registry hand out) and never cast the const away.
//
// Content addressing: id() is a SHA-256 over every verification-relevant
// input (image bytes + symbols, ER/crt layout, memory map, globals,
// access sites, instrumentation mode/entry). Two independently built
// programs with identical inputs intern to the same artifact.
#ifndef DIALED_VERIFIER_FIRMWARE_ARTIFACT_H
#define DIALED_VERIFIER_FIRMWARE_ARTIFACT_H

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "instr/oplink.h"
#include "isa/isa.h"
#include "verifier/report.h"

namespace dialed::verifier {

class policy;  // replay.h

/// Content address of a firmware image (SHA-256).
using firmware_id = std::array<std::uint8_t, 32>;

/// A device's last accepted round, as the fleet hub keeps it in memory:
/// the full OR that round attested and the accepted verdict it got under
/// firmware `fw`. Immutable once built — the hub shares it as
/// shared_ptr<const accepted_round> and swaps the whole object, so the
/// bytes and the verdict always come from one round.
struct accepted_round {
  firmware_id fw{};
  byte_vec or_bytes;
  verdict outcome;
};

/// One compiler-recorded array access, resolved to its code address: at
/// this site r15 holds the effective address of an access into `object`,
/// whose extent the abstract executor checks (paper Fig. 2 detection).
struct bounds_site {
  std::string object;
  bool is_global = false;
  std::uint16_t global_base = 0;  ///< globals: extent base
  int local_offset_adj = 0;       ///< locals: extent base = r1 + this
  int size_bytes = 0;
};

class firmware_artifact {
 public:
  /// Build the shared artifact for `prog` (the usual entry point; use
  /// fleet::firmware_catalog::intern to also deduplicate by id).
  /// `precomputed_id` as in the constructor.
  static std::shared_ptr<const firmware_artifact> build(
      instr::linked_program prog,
      const firmware_id* precomputed_id = nullptr);

  /// The content address of `prog` without building an artifact — what
  /// the catalog keys its dedup map on.
  static firmware_id fingerprint(const instr::linked_program& prog);

  /// `precomputed_id`, when given, must be fingerprint(prog) — lets a
  /// caller that already hashed the program for a dedup lookup (the
  /// catalog) skip the second canonical SHA-256 pass.
  explicit firmware_artifact(instr::linked_program prog,
                             const firmware_id* precomputed_id = nullptr);

  firmware_artifact(const firmware_artifact&) = delete;
  firmware_artifact& operator=(const firmware_artifact&) = delete;

  const instr::linked_program& program() const { return prog_; }
  /// Computed lazily (thread-safe) unless the constructor got a
  /// precomputed id — one-shot artifacts that are never interned skip the
  /// canonical SHA-256 pass entirely.
  const firmware_id& id() const;
  std::string id_hex() const;

  /// Bytes of [er_min, er_max+1] — the exact range the attestation MAC
  /// covers, precomputed so verify() never re-extracts it per report.
  std::span<const std::uint8_t> er_bytes() const { return er_bytes_; }

  /// Access-site bounds table keyed by code address.
  const std::map<std::uint16_t, bounds_site>& sites() const {
    return sites_;
  }

  /// Flattened 64 KiB image (what the bus holds right after load) — the
  /// CF-Log walker reads code through this instead of re-flattening.
  const std::vector<std::uint8_t>& flat_image() const { return flat_; }

  /// True when `addr` is a ".Lstub_cfa_taken*" label (an instrumented
  /// application conditional's taken arm).
  bool is_taken_label(std::uint16_t addr) const;

  /// Predecoded instruction at `pc`, or nullptr when pc is outside
  /// [er_min, er_max] / unaligned / not decodable as laid out in the
  /// image: exactly isa::decode of flat_image() at pc, which the tests'
  /// decode-cache oracle checks at every pc (docs/REPLAY.md). Callers
  /// fall back to a live decode (identical bytes, so identical result or
  /// identical error) — and MUST do so for every pc once replayed code
  /// has been overwritten (see replay.cpp's dirty tracking).
  /// Header-inline: this sits on the replay loop's per-instruction path.
  const isa::decoded* decoded_at(std::uint16_t pc) const {
    if (pc < prog_.er_min || pc > prog_.er_max ||
        ((pc - prog_.er_min) & 1) != 0) {
      return nullptr;
    }
    const std::size_t i = static_cast<std::size_t>(pc - prog_.er_min) / 2;
    return decoded_valid_[i] ? &decoded_[i] : nullptr;
  }

  /// Access-site lookup for one code address, O(1) for sites inside ER
  /// (the only place instrumented code executes from) — the replay loop
  /// asks this once per instruction, and the old per-pc map::find was
  /// measurable at fleet batch rates.
  const bounds_site* site_at(std::uint16_t pc) const {
    if (pc >= prog_.er_min && pc <= prog_.er_max &&
        ((pc - prog_.er_min) & 1) == 0) {
      return site_index_[static_cast<std::size_t>(pc - prog_.er_min) / 2];
    }
    if (!sites_outside_er_) return nullptr;
    const auto it = sites_.find(pc);
    return it == sites_.end() ? nullptr : &it->second;
  }

  /// Full §III verification of one report against this firmware, under
  /// the cached HMAC key schedule of the device key (what
  /// fleet::device_record and op_verifier carry). `policies` may be
  /// empty; `expected_challenge` enforces anti-replay. Const, reentrant,
  /// and safe to call from many threads at once. Takes a report_view
  /// (owning reports convert implicitly); the viewed OR storage must stay
  /// alive for the call. The verdict is the decision only (no forensics).
  /// `timings`, when non-null, receives the MAC/replay stage
  /// split for pipeline stage attribution (no clock reads when null).
  /// `prior`, the device's last accepted round, lets a DIALED-mode report
  /// skip the replay: when the MAC verifies, no policies run, and `prior`
  /// carries an accepted verdict from THIS artifact for byte-identical OR
  /// bytes, that verdict is reused and only the claimed result is checked
  /// again (docs/REPLAY.md, "Replay reuse").
  verdict verify(const report_view& report,
                 const crypto::hmac_keystate& key_state,
                 const std::vector<std::shared_ptr<policy>>& policies,
                 std::optional<std::array<std::uint8_t, 16>>
                     expected_challenge = std::nullopt,
                 verify_timings* timings = nullptr,
                 const accepted_round* prior = nullptr) const;

  /// Approximate heap+object footprint of this artifact (metrics: fleet
  /// verifier memory is artifacts * this, not devices * program).
  std::size_t footprint_bytes() const;

  /// Approximate footprint of a standalone linked_program copy — the
  /// per-DEVICE cost of the pre-catalog design, kept for the before/after
  /// memory accounting in bench/ROADMAP.
  static std::size_t program_footprint_bytes(
      const instr::linked_program& prog);

 private:
  instr::linked_program prog_;
  /// Lazy content id (see id()); `mutable` only for the once-guarded
  /// fill — observably the artifact stays deeply immutable.
  mutable std::once_flag id_once_;
  mutable firmware_id id_{};
  bool id_precomputed_ = false;
  byte_vec er_bytes_;
  /// attest_mac_header(..., exec) ‖ ER as one contiguous buffer per EXEC
  /// value — the fixed prefix of every MAC'd message for this firmware,
  /// prebuilt so verify() absorbs it in a single unbroken hash run.
  byte_vec mac_prefix_exec1_;
  byte_vec mac_prefix_exec0_;
  std::vector<std::uint8_t> flat_;
  std::map<std::uint16_t, bounds_site> sites_;
  std::vector<std::uint16_t> taken_labels_;  ///< sorted
  /// Decode cache over [er_min, er_max]: entry (pc - er_min)/2; a parallel
  /// validity bitmap marks addresses that do not decode as laid out, and a
  /// parallel pointer array resolves access sites without the map.
  std::vector<isa::decoded> decoded_;
  std::vector<std::uint8_t> decoded_valid_;
  std::vector<const bounds_site*> site_index_;
  bool sites_outside_er_ = false;
};

}  // namespace dialed::verifier

#endif  // DIALED_VERIFIER_FIRMWARE_ARTIFACT_H
