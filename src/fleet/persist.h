// The persistence surface of the fleet layer: the event-sink interface the
// registry and verifier hub emit durable state changes through, and the
// plain-data structs a store hands back to reconstruct that state after a
// restart. Deliberately dependency-free in the store direction — the
// fleet layer knows only this interface; src/store/ implements it, so the
// hub's hot path never includes file-format headers.
//
// Event model (what must survive a crash for the hub to stay sound):
//
//   on_provision  — a device joined the registry (id, key, firmware).
//   on_challenge  — a nonce was issued (the hub now owes it an answer).
//   on_retire     — a nonce left the outstanding set: consumed by a
//                   report, superseded by capacity eviction, or expired.
//                   Emitted UNDER the owning shard lock, before the
//                   expensive verification runs — so a report accepted an
//                   instant before a crash is already consumed on disk
//                   and replays as consumed, never as fresh.
//   on_tick       — the monotonic clock advanced (challenge expiry).
//
// Deliberately NOT events:
//
//   * a submission's outcome. The counters in hub_stats are process-local
//     and start at zero after a restart or a standby promotion; the
//     security-relevant consumption already traveled in on_retire. So a
//     report costs the journal at most its retire record, and a frame
//     that matches no outstanding challenge (a made-up or stale nonce)
//     costs none.
//   * the wire v2.1 delta baseline (each device's last accepted OR). It
//     is soft state. A hub that lacks it answers a delta frame with
//     baseline_mismatch WITHOUT burning the nonce, and the prover resends
//     a full frame on the same challenge — the path a fresh device or a
//     desynced prover already takes. So after a restart or a standby
//     promotion, each device's first delta frame costs one extra round
//     trip, and no accepted OR is ever journaled.
//   * the nonce generator. Nonces are a keyed PRF of (device, seq) under
//     a per-hub key that is never persisted (fleet/verifier_hub.h); the
//     journaled seq high-water mark is what keeps a restarted hub from
//     re-issuing a pre-crash (device, seq) pair.
//
// Threading: on_challenge/on_retire arrive under a shard lock and
// on_provision under the registry's writer lock, possibly concurrently
// from different shards — implementations serialize internally (the WAL
// appender's mutex). Causality is preserved per thread: a retire for a
// nonce is always appended after the challenge that issued it.
#ifndef DIALED_FLEET_PERSIST_H
#define DIALED_FLEET_PERSIST_H

#include <array>
#include <cstdint>
#include <vector>

namespace dialed::fleet {

using device_id = std::uint32_t;
using nonce16 = std::array<std::uint8_t, 16>;

/// How a nonce left the outstanding set (persisted as one byte).
enum class nonce_fate : std::uint8_t {
  consumed,    ///< a report (accepted or not) burned it
  superseded,  ///< evicted by newer challenges (capacity)
  expired,     ///< outlived cfg.challenge_ttl
};

/// Checked decode of a persisted fate byte; a byte naming no fate means
/// the record is corrupt and the caller must fail closed.
constexpr bool nonce_fate_from_u8(std::uint8_t v, nonce_fate& out) {
  if (v > static_cast<std::uint8_t>(nonce_fate::expired)) return false;
  out = static_cast<nonce_fate>(v);
  return true;
}

/// Snapshot of one device's anti-replay state, as a store persists it and
/// verifier_hub::restore re-injects it.
struct device_restore {
  struct outstanding_challenge {
    nonce16 nonce{};
    std::uint32_t seq = 0;
    std::uint64_t issued_at = 0;
  };
  struct retired_nonce {
    nonce16 nonce{};
    nonce_fate fate = nonce_fate::consumed;
  };

  device_id id = 0;
  std::uint32_t next_seq = 1;
  std::vector<outstanding_challenge> outstanding;  ///< oldest first
  std::vector<retired_nonce> retired;              ///< oldest first
};

struct device_record;  // registry.h

/// Event sink for durable state changes. All methods must be cheap-ish
/// and exception-safe from the caller's perspective is NOT provided:
/// a throwing sink (e.g. disk full) propagates out of the provisioning /
/// challenge / verify call — persistence failure must be loud, a hub that
/// silently stops journaling is a hub that forgets replays on restart.
class persist_sink {
 public:
  virtual ~persist_sink() = default;

  /// Under the registry writer lock; `rec` is the fully-built record.
  virtual void on_provision(const device_record& rec) = 0;

  /// Under the owning shard lock.
  virtual void on_challenge(device_id id, std::uint32_t seq,
                            const nonce16& nonce,
                            std::uint64_t issued_at) = 0;

  /// Under the owning shard lock.
  virtual void on_retire(device_id id, const nonce16& nonce,
                         nonce_fate fate) = 0;

  /// From tick(); `now` is the post-increment clock value.
  virtual void on_tick(std::uint64_t now) = 0;

  /// Durability barrier: block until every record this THREAD has
  /// journaled so far is as durable as the sink's policy promises. The
  /// hub calls it between consuming a nonce (on_retire, under the shard
  /// lock) and computing the verdict (no locks) — the §III rule that a
  /// report never verifies unless its consumption would survive a crash.
  /// Called WITHOUT any hub lock held, possibly from many verifier
  /// threads at once: a batching store turns those concurrent calls into
  /// one fsync (see fleet_store::sync_barrier). Default no-op for sinks
  /// whose on_retire is already as durable as it will ever be.
  virtual void sync_barrier() {}
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_PERSIST_H
