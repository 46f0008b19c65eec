// The persistence surface of the fleet layer: the event-sink interface the
// device registry emits durable state changes through. Deliberately
// dependency-free in the store direction — the fleet layer knows only
// this interface; src/store/ implements it. The verifier hub does not
// know a store exists: it emits nothing and restores nothing.
//
// Event model (what must survive a crash):
//
//   on_provision  — a device joined the registry (id, key, firmware).
//
// Deliberately NOT events — all of the hub's state is soft, rebuilt
// empty by every process:
//
//   * challenges: issuance, consumption, supersession, expiry, the seq
//     counter and the tick clock. Nonces are a keyed PRF of (device, seq)
//     under a per-hub key that is never persisted (fleet/verifier_hub.h),
//     so a restarted or promoted hub cannot regenerate any pre-crash
//     nonce: every pre-crash frame matches no outstanding challenge and
//     is rejected as stale_nonce, and a prover whose challenge was
//     outstanding asks for a new one. The rule that makes one report per
//     nonce hold is in-process — the hub consumes the nonce under its
//     mutex before verifying — and costs no I/O.
//   * a submission's outcome. The counters in hub_stats are process-local
//     and start at zero after a restart or a standby promotion.
//   * the wire v2.1 delta baseline (each device's last accepted OR). A
//     hub that lacks it answers a delta frame with baseline_mismatch
//     WITHOUT burning the nonce, and the prover resends a full frame on
//     the same challenge.
//
// Threading: on_provision arrives under the registry's writer lock.
#ifndef DIALED_FLEET_PERSIST_H
#define DIALED_FLEET_PERSIST_H

#include <array>
#include <cstdint>

namespace dialed::fleet {

using device_id = std::uint32_t;
using nonce16 = std::array<std::uint8_t, 16>;

struct device_record;  // registry.h

/// Event sink for durable registry changes. A throwing sink (e.g. disk
/// full) propagates out of the provisioning call — persistence failure
/// must be loud, a registry that silently stops journaling forgets
/// devices on restart.
class persist_sink {
 public:
  virtual ~persist_sink() = default;

  /// Under the registry writer lock; `rec` is the fully-built record.
  virtual void on_provision(const device_record& rec) = 0;
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_PERSIST_H
