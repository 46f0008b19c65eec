// Fleet device registry: the verifier-side book of provisioned devices.
//
// Each device gets a stable 32-bit id and a per-device attestation key
// derived from the fleet master key with an HMAC-based KDF:
//
//   K_dev = HMAC-SHA256(K_master, LE32(device_id))
//
// so the verifier stores ONE secret for the whole fleet, the factory can
// derive any device's key at provisioning time, and compromising one
// device never reveals another's key (cross-device isolation). Devices
// that already own a factory pre-shared key bypass the KDF via `enroll`.
//
// Firmware sharing: every provisioned program is interned into a
// fleet::firmware_catalog (owned by default, injectable so several
// registries can share one), and the record carries the resulting
// shared immutable verifier::firmware_artifact. A fleet of N devices on
// F firmware images costs O(F) verifier memory — record.program is an
// alias into the shared artifact, not a per-device copy. Provisioning is
// O(F) in copies too: the program is taken by const reference and copied
// only when its image is new to the catalog, so every further device on
// that image costs one fingerprint hash and one key derivation.
//
// Misuse is rejected with a typed `registry_error` (duplicate or reserved
// device ids, empty keys) rather than silently overwriting or accepting.
//
// Threading model: provisioning (`provision`/`enroll`) takes a writer
// lock; lookups (`find`/`size`/`ids`) take a reader lock and may run
// concurrently — the verifier hubs' hot paths do exactly that.
// Records are immutable once provisioned and never erased, and std::map
// nodes are address-stable, so a `device_record*` returned by `find`
// stays valid (and safely readable) for the registry's lifetime even
// while other threads keep provisioning.
#ifndef DIALED_FLEET_REGISTRY_H
#define DIALED_FLEET_REGISTRY_H

#include <map>
#include <memory>
#include <set>
#include <shared_mutex>

#include "common/error.h"
#include "crypto/hmac.h"
#include "fleet/firmware_catalog.h"
#include "fleet/persist.h"
#include "instr/oplink.h"

namespace dialed::fleet {

/// What a provisioning call rejected.
enum class registry_error_kind : std::uint8_t {
  reserved_id,       ///< device id 0 is reserved
  duplicate_id,      ///< id already provisioned (re-provisioning never
                     ///< silently overwrites a record)
  empty_key,         ///< enroll() with an empty device key
  empty_master_key,  ///< registry constructed with an empty master key
};

std::string to_string(registry_error_kind k);

/// Typed provisioning failure; still a dialed::error so existing
/// catch-all handlers keep working.
class registry_error : public error {
 public:
  registry_error(registry_error_kind kind, const std::string& what_arg)
      : error(what_arg), kind_(kind) {}
  registry_error_kind kind() const { return kind_; }

 private:
  registry_error_kind kind_;
};

struct device_record {
  device_id id = 0;
  byte_vec key;  ///< K_dev — what the factory burns into the device
  /// Precomputed HMAC key schedule for `key` (ipad/opad midstates): the
  /// hub MACs every report against this instead of rehashing K_dev.
  /// Derived at provision/restore time, NEVER persisted — the store
  /// snapshots only `key` and this is recomputed on open.
  crypto::hmac_keystate mac_state;
  /// The shared per-firmware verifier artifact (one per distinct image,
  /// interned via the catalog; immutable and safe to verify on from any
  /// thread).
  std::shared_ptr<const verifier::firmware_artifact> firmware;
  /// Vrf's reference build of the deployed program — an alias into
  /// `firmware` (same control block, zero extra copies).
  std::shared_ptr<const instr::linked_program> program;
};

class device_registry {
 public:
  /// `catalog` lets several registries (or a registry plus provisioning
  /// tooling) share one interning domain; by default the registry owns a
  /// fresh catalog. Throws registry_error(empty_master_key) on an empty
  /// key.
  explicit device_registry(byte_vec master_key,
                           std::shared_ptr<firmware_catalog> catalog =
                               nullptr);

  /// Provision a new device running `prog`: assigns the next free id and
  /// derives its key from the master key. Like every provisioning call,
  /// copies `prog` only when its image is new to the catalog.
  device_id provision(const instr::linked_program& prog);

  /// Provision with an explicit id (device ids often come from an external
  /// inventory). Throws registry_error(reserved_id) for id 0 and
  /// registry_error(duplicate_id) when the id is already provisioned.
  device_id provision(device_id id, const instr::linked_program& prog);

  /// Enroll a device that already owns a key (no KDF), e.g. a factory
  /// pre-shared key. Auto-assigns the id. Throws
  /// registry_error(empty_key) on an empty device key.
  device_id enroll(const instr::linked_program& prog, byte_vec device_key);

  /// nullptr when the id was never provisioned. Safe for concurrent
  /// readers; the returned pointer never dangles (see file comment).
  const device_record* find(device_id id) const;

  /// The KDF, exposed so provisioning tooling can derive K_dev without a
  /// registry instance's record (e.g. to burn keys at the factory).
  /// Touches only the immutable master key — lock-free.
  byte_vec derive_key(device_id id) const;

  std::size_t size() const;
  std::vector<device_id> ids() const;

  /// The interning domain this registry provisions through.
  const std::shared_ptr<firmware_catalog>& catalog() const {
    return catalog_;
  }

  // ---- persistence surface (src/store/fleet_store) --------------------

  /// Journal every future provision/enroll through `sink` (nullptr to
  /// detach). Set before serving traffic; the sink must outlive the
  /// registry. Sink callbacks run under the registry writer lock.
  void set_sink(persist_sink* sink) { sink_ = sink; }

  /// Re-inject a persisted device: the key comes from the snapshot (no
  /// KDF — enrolled devices have non-derived keys) and the firmware is
  /// an already-interned catalog artifact. Never journals. Throws
  /// registry_error on reserved/duplicate ids and empty keys, exactly
  /// like the live paths — a snapshot that trips these is corrupt.
  void restore_device(device_id id, byte_vec key,
                      firmware_catalog::artifact_ptr fw);

  /// The auto-assignment cursor, persisted so ids never regress across a
  /// restart (a reused id would alias two devices' histories).
  device_id next_id() const;
  void set_next_id(device_id id);

  /// The fleet master key, exposed ONLY so the store can persist it —
  /// handle like the secret it is.
  const byte_vec& master_key() const { return master_; }

 private:
  device_id reserve_free_id_locked();
  device_record make_record(device_id id, byte_vec key,
                            firmware_catalog::artifact_ptr fw);

  byte_vec master_;  ///< immutable after construction
  std::shared_ptr<firmware_catalog> catalog_;
  persist_sink* sink_ = nullptr;
  mutable std::shared_mutex mu_;
  device_id next_id_ = 1;
  std::map<device_id, device_record> devices_;
  /// Explicit ids claimed by an in-flight provision(id, prog): the
  /// duplicate check happens BEFORE the (unlocked, expensive) catalog
  /// intern, and the reservation makes that check-then-intern atomic —
  /// a racing provision of the same id loses immediately instead of
  /// interning an artifact no device will reference.
  std::set<device_id> reserved_;
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_REGISTRY_H
