// Fleet verifier hub: the many-device generalization of the paper's §III
// one-verifier/one-prover protocol. One hub serves every provisioned
// device, with a per-device challenge table (many concurrently outstanding
// challenges), expiry on a monotonic tick clock, and per-device
// anti-replay bookkeeping.
//
// Protocol (wire v2, layout in src/proto/wire.h):
//
//      Vrf hub                                       Prv (device d)
//        |                                                |
//        |  challenge(d) -> grant {nonce, seq}            |
//        |----------- nonce, seq ------------------------>|
//        |                                                | run attested op,
//        |                                                | SW-Att MACs with
//        |                                                | K_dev over nonce
//        |<---------- wire v2 frame ----------------------|
//        |   [magic|ver=2|flags|device_id|seq|bounds|     |
//        |    result|halt|nonce|MAC|or_len|OR|CRC16]      |
//        |  submit(frame) -> attest_result                |
//        |    - frame damaged        -> transport error   |
//        |    - device_id unknown    -> unknown_device    |
//        |    - v2.1 delta names a baseline the hub does  |
//        |      not hold             -> baseline_mismatch |
//        |      (nonce NOT burned: resend as full frame)  |
//        |    - seq != grant seq     -> sequence_mismatch |
//        |    - nonce consumed       -> replayed_report   |
//        |    - nonce evicted       -> challenge_superseded
//        |    - nonce past TTL       -> challenge_expired |
//        |    - nonce never issued   -> stale_nonce       |
//        |    - else: full §III verification -> verdict   |
//
// Wire v2.1 delta frames (report compression)
// -------------------------------------------
// A v2.1 frame carries the OR as a sparse delta against the OR of the
// last report the hub ACCEPTED for that device — the per-device
// `or_baseline` (sequence-stamped hash + bytes, updated only on an
// accepted verdict). It lives in memory only: it is soft state, never
// journaled, snapshotted or shipped (fleet/persist.h). submit() resolves
// the baseline under the hub's mutex, reconstructs the full OR OUTSIDE
// it, and then verifies exactly as if a full frame had arrived — the MAC
// covers the reconstructed OR, so a delta that reconstructs the wrong
// bytes is rejected like any forgery.
// A delta naming a baseline the hub does not hold (fresh device, stale
// seq, hash desync, or any delta after a restart or standby promotion)
// is answered with the typed baseline_mismatch error WITHOUT consuming
// the frame's nonce: the prover falls back to a full frame for the same
// challenge.
//
// Replay reuse
// ------------
// The baseline is also the hub's only replay cache. Next to the bytes it
// holds the verdict the round was accepted with (one immutable
// verifier::accepted_round, swapped whole under the hub's mutex). A report
// — full or delta — whose OR is byte-identical to it reuses that verdict
// instead of replaying, after its own MAC verified; the claimed result is
// still checked per report (firmware_artifact::verify). A restarted hub
// holds no baselines, so each device's first round after a restart
// arrives as a full frame and replays.
//
// Challenge lifecycle: issued -> (consumed | superseded | expired), with a
// bounded per-device memory of retired nonces so a late report gets the
// precise typed error instead of a generic rejection.
//
// Challenge nonces
// ----------------
// nonce = HMAC-SHA256(K_hub, LE32(device) || LE32(seq))[0..16), where seq
// is the device's strictly increasing challenge sequence number. K_hub is
// 32 bytes from getrandom(2) drawn when the hub is built (or, for
// reproducible tests and benches, derived from hub_config::seed); it is
// never persisted, so nonces differ from one process to the next. All
// challenge state — the outstanding table, the retired history, seq and
// the tick clock — lives in memory only: a new hub starts every device at
// seq 1 under a new key, so it cannot regenerate any earlier hub's nonce,
// and a frame answering one is stale_nonce. The freshness rule that
// survives is in-process: a nonce is consumed under the hub's mutex
// before the report is verified (see the threading model).
//
// Firmware sharing (the catalog refactor)
// ---------------------------------------
// The hub holds NO per-device verifier state on the hot path: each
// registry record carries a shared immutable verifier::firmware_artifact
// (interned by fleet::firmware_catalog, one per distinct image), and
// verify runs straight off that artifact with the record's device key.
// Verifier memory is O(firmwares), not O(devices). The §III replay keeps
// no state between reports either: each one runs the shared MSP430 core
// over a 64 KiB memory of its own, so concurrent verifies share only the
// read-only artifact. The hub attaches no app policies; callers that want
// them wrap the record's artifact in a verifier::op_verifier.
//
// Threading model
// ---------------
// All per-device state (challenge table, retired-nonce history, delta
// baseline) lives in one map behind one mutex. Every public entry point
// is safe to call concurrently from any number of threads, though the
// service has at most two per hub: the reactor (challenges, scrapes) and
// its partition's verify thread (net/batcher.h). Verify parallelism is
// the partition: N hubs over one registry behind a partition_router, one
// verify thread each (fleet/partition.h).
//
//   - Nonce bookkeeping (match, seq check, consume) happens under the
//     mutex; the expensive cryptographic/replay verification runs
//     OUTSIDE it, so one slow report does not stall the reactor's
//     challenges. The nonce is consumed before the lock is dropped — the
//     §III one-report-per-nonce rule holds even when the same frame is
//     submitted twice concurrently (exactly one submitter sees the
//     nonce; the other gets replayed_report).
//   - `verify_batch` submits the frames one after another on the calling
//     thread and returns results in input order.
//   - `tick`/`now`/`stats` use atomics and may race freely.
//
// The one external requirement: the device_registry must outlive the hub,
// and concurrent `provision`/`enroll` calls are the registry's own
// (shared_mutex) problem — records, once provisioned, are immutable.
#ifndef DIALED_FLEET_VERIFIER_HUB_H
#define DIALED_FLEET_VERIFIER_HUB_H

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "crypto/hmac.h"
#include "fleet/hub_like.h"
#include "fleet/registry.h"
#include "proto/wire.h"
#include "verifier/verifier.h"

namespace dialed::fleet {

using proto::proto_error;

struct hub_config {
  /// Outstanding challenges a device may hold at once; issuing beyond this
  /// evicts (supersedes) the oldest.
  std::uint32_t max_outstanding = 8;
  /// Challenge TTL in hub ticks; 0 = challenges never expire.
  std::uint64_t challenge_ttl = 0;
  /// Retired nonces remembered per device (replay/supersede/expiry
  /// classification window).
  std::size_t retired_memory = 64;
  /// Makes challenge nonces reproducible in tests and benches. Unset (the
  /// default), the nonce key K_hub is 32 bytes from getrandom(2), fresh
  /// for every hub; set, K_hub = SHA-256(label || LE64(seed)), so hubs
  /// built with the same seed issue the same nonce for the same (device,
  /// seq). seq restarts at 1 in every hub, so two hubs on one seed repeat
  /// each other's nonces; a durable store (src/store/fleet_store) folds
  /// its boot epoch into the seed it passes on, so each reopen of one
  /// state directory still gets a key of its own.
  std::optional<std::uint64_t> seed;
  /// No effect: verify_batch always runs on the calling thread. Kept
  /// only because the perf ledger (perfledger/) still sets it; it goes
  /// in the same change as that line.
  bool sequential_batch = false;
  /// Pipeline observability (src/obs): per-stage latency histograms and
  /// the slow/rejected flight recorder. `obs.enabled = false` removes
  /// every clock read from the verify path (the overhead bench baseline).
  obs::pipeline_config obs{};
};

// challenge_grant, hub_stats, and attest_result moved to
// fleet/hub_like.h — shared with the partition router.

class verifier_hub : public hub_like {
 public:
  /// Throws dialed::error when cfg.seed is unset and getrandom(2) fails:
  /// a hub that cannot draw its nonce key must not serve.
  explicit verifier_hub(const device_registry& registry,
                        hub_config cfg = {});
  ~verifier_hub() override;

  /// Draw a fresh challenge for a device. Many challenges may be
  /// outstanding per device (up to cfg.max_outstanding). Thread-safe.
  challenge_grant challenge(device_id id) override;

  /// Decode a wire frame (v2 or v2.1) and verify it; any other version is
  /// the typed bad_version and touches no challenge. v2.1 delta frames are
  /// reconstructed against the device's or_baseline first (see the file
  /// comment); a mismatch is the typed baseline_mismatch and leaves the
  /// challenge outstanding. Thread-safe, reentrant: decoding uses a
  /// thread-local scratch frame, so concurrent submits never share a
  /// buffer. Zero-copy: full frames are decoded in borrow mode — the OR
  /// is verified straight out of `frame` (copied only when a replayed
  /// verdict is accepted and the bytes become the baseline); delta frames
  /// reconstruct into the thread-local scratch arena. Either way `frame`
  /// is not read after submit returns.
  attest_result submit(std::span<const std::uint8_t> frame) override;

  /// Submit each frame in turn on the calling thread; results come back
  /// in input order.
  std::vector<attest_result> verify_batch(
      std::span<const byte_vec> frames) override;

  /// Advance the monotonic clock; challenges older than cfg.challenge_ttl
  /// ticks are retired as expired. Thread-safe.
  void tick(std::uint64_t n) override {
    now_.fetch_add(n, std::memory_order_relaxed);
  }
  using hub_like::tick;  // keep the zero-arg tick() visible here
  std::uint64_t now() const override {
    return now_.load(std::memory_order_relaxed);
  }

  /// Outstanding challenges for a device, EXCLUDING entries already past
  /// cfg.challenge_ttl (they are dead — merely not yet swept into the
  /// retired history by a challenge/verify on that device).
  std::size_t outstanding(device_id id) const override;

  /// Snapshot of the hub's monotonic, process-local counters.
  /// Thread-safe; the hub-level fields are lock-free, the per-device
  /// breakdown briefly takes the hub's mutex. Pass
  /// include_per_device = false for the cheap lock-free hub-level scalars
  /// only.
  hub_stats stats(bool include_per_device = true) const override;

  /// Per-stage latency histograms for every report this hub verified.
  obs::pipeline_snapshot pipeline() const override { return obs_.snapshot(); }

  /// Slowest + rejected span traces (bounded flight-recorder rings).
  obs::trace_dump traces() const override { return obs_.traces(); }

  /// The configuration the hub was built with (a store's epoch-folded
  /// seed included).
  const hub_config& config() const { return cfg_; }

 private:
  struct challenge_entry {
    std::array<std::uint8_t, 16> nonce{};
    std::uint32_t seq = 0;
    std::uint64_t issued_at = 0;
  };

  /// How a nonce left the outstanding set.
  enum class nonce_fate : std::uint8_t {
    consumed,    ///< a report (accepted or not) burned it
    superseded,  ///< evicted by newer challenges (capacity)
    expired,     ///< outlived cfg.challenge_ttl
  };

  struct retired_nonce {
    std::array<std::uint8_t, 16> nonce{};
    nonce_fate fate = nonce_fate::consumed;
  };

  /// Per-device counters, written with relaxed atomics: the accept/reject
  /// bumps happen AFTER the hub's mutex is dropped (phase 2 of
  /// verify_impl), racing only with stats() readers.
  struct atomic_device_counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected_verdict{0};
    std::atomic<std::uint64_t> replayed{0};
    std::atomic<std::uint64_t> rejected_protocol{0};

    device_counters snapshot() const {
      device_counters c;
      c.accepted = accepted.load(std::memory_order_relaxed);
      c.rejected_verdict =
          rejected_verdict.load(std::memory_order_relaxed);
      c.replayed = replayed.load(std::memory_order_relaxed);
      c.rejected_protocol =
          rejected_protocol.load(std::memory_order_relaxed);
      return c;
    }
  };

  /// The device's last accepted round: wire v2.1 delta baseline and
  /// replay-reuse source in one, in memory only. Guarded by the hub's
  /// mutex: written only under the lock (accepted verdicts);
  /// readers copy the shared_ptr out under it and use the immutable
  /// round unlocked.
  struct or_baseline {
    std::uint32_t seq = 0;
    std::array<std::uint8_t, 8> hash{};  ///< proto::or_baseline_hash
    /// null until this process accepts the device's first round
    std::shared_ptr<const verifier::accepted_round> round;
  };

  struct device_state {
    std::deque<challenge_entry> outstanding;  ///< ordered by issue time
    std::deque<retired_nonce> retired;        ///< bounded history
    or_baseline baseline;
    atomic_device_counters counters;
    std::uint32_t next_seq = 1;
  };

  /// Relaxed atomics behind stats(); written from any verify/challenge
  /// thread.
  struct counters {
    std::atomic<std::uint64_t> challenges_issued{0};
    std::atomic<std::uint64_t> challenges_expired{0};
    std::atomic<std::uint64_t> challenges_superseded{0};
    std::atomic<std::uint64_t> reports_accepted{0};
    std::atomic<std::uint64_t> reports_rejected_verdict{0};
    std::array<std::atomic<std::uint64_t>, proto::proto_error_count>
        rejected_by_error{};
    // Replay outcomes of DIALED-mode verdicts.
    std::atomic<std::uint64_t> replays_reused{0};
    std::atomic<std::uint64_t> replays_run{0};
  };

  void retire(device_state& st, std::size_t index, nonce_fate fate);
  void expire_stale(device_state& st, std::uint64_t now);
  /// Bump the hub histogram and, when `st` is known, the per-device
  /// protocol/replay counter. Returns `r` so reject paths read
  /// `return rejected(...)`.
  attest_result rejected(attest_result r, device_state* st);
  /// The common verification core. Takes a report VIEW: `report.or_bytes`
  /// may borrow the caller's frame buffer (submit's zero-copy path) and is
  /// only read for the duration of the call — adopt_round copies the
  /// bytes it keeps.
  attest_result verify_impl(device_id id, std::uint32_t seq,
                            const verifier::report_view& report,
                            obs::span_recorder& sp);
  /// Fold the finished span into the hub's histograms/flight recorder and
  /// pass the result through — every top-level verify path returns
  /// through this.
  attest_result observed(const obs::span_recorder& sp, attest_result r);
  /// v2.1 path: check the frame's baseline reference against the device's
  /// or_baseline (under the mutex), take a reference to its round,
  /// and reconstruct the full OR into report.or_bytes (outside the lock).
  /// nullopt on success; the fully-bookkept rejection (unknown_device /
  /// baseline_mismatch) otherwise — in which case NO challenge state was
  /// touched, so the prover can retry the same nonce with a full frame.
  std::optional<attest_result> reconstruct_delta(
      device_id id, std::uint32_t seq, const proto::or_delta& delta,
      verifier::attestation_report& report);
  /// Make `round` the device's baseline for round `seq` if it is newer
  /// than the current one (accepted verdicts only; takes the mutex). The
  /// round is built outside the lock.
  void adopt_round(device_id id, std::uint32_t seq,
                   std::shared_ptr<const verifier::accepted_round> round);

  const device_registry& registry_;
  hub_config cfg_;
  /// K_hub's HMAC key schedule: the nonce PRF key (see file comment).
  crypto::hmac_keystate nonce_key_;
  std::atomic<std::uint64_t> now_{0};
  mutable std::mutex mu_;  ///< guards states_
  std::map<device_id, device_state> states_;
  mutable counters stats_;
  obs::pipeline_obs obs_;
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_VERIFIER_HUB_H
