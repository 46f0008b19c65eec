// Durable fleet state: snapshot + write-ahead-log persistence for the
// device registry and the firmware catalog. The verifier hub's state is
// not persisted: it is soft, and a reopened hub starts empty under a new
// nonce key (fleet/persist.h).
//
// What is persisted
// -----------------
//   * the device registry: ids, per-device key material, the firmware
//     content id each device runs, and the id-assignment cursor;
//   * the firmware catalog: content id -> full linked_program image, so
//     artifacts re-intern BY CONTENT ID on load (one artifact per image,
//     shared by every device on it — the PR 3 invariant survives
//     restarts);
//   * the boot epoch: a counter bumped by every open() and durable
//     before the open returns (so before the first grant). It rides the
//     open-time compaction snapshot when there is one, and a `boot` WAL
//     record otherwise. When hub_config::seed is pinned, the hub is built
//     with seed XOR mix(epoch), mix a bijection on 64 bits: for one seed,
//     each open of one directory gets a different nonce key, so nonces
//     never repeat across reopens although seq restarts at 1.
//
// Not persisted (see fleet/persist.h):
//   * challenges: outstanding grants, retired nonces, the seq counter and
//     the hub clock. After a reopen or a standby promotion every
//     pre-crash frame — consumed, superseded or still outstanding — is
//     stale_nonce, and a prover whose challenge was outstanding asks for
//     a new one. No report costs a journal record;
//   * the stats counters (hub_stats): process-local, zero after a reopen;
//   * each device's wire v2.1 delta baseline: soft state, so a device's
//     first delta frame after a reopen is answered baseline_mismatch
//     with its challenge kept, and the full-frame resend replays;
//   * the hub's nonce key. A reopened hub draws a new one.
// Files written by older builds still load: the challenge rows and clock
// of v2-v4 snapshots, the counter sections of v2 and v3, the baseline
// section of v2, and type-3 challenge, type-4 retire, type-5 verdict,
// type-6 tick and type-7 baseline records in the WAL are checked and
// dropped. A directory in the retired per-partition layout (a
// partitions.meta manifest beside one store per p<i> subdirectory) is
// refused with store_error(bad_version), and nothing in it is written.
//
// Files in the state directory
// ----------------------------
//   snapshot.dls   versioned, CRC-32-guarded binary snapshot ("DLFS"
//                  magic). Atomically replaced via .tmp + rename.
//   wal-<G>.log    append-only log of every state change since snapshot
//                  generation G (see src/store/wal.h for framing/torn-
//                  tail semantics). The snapshot names the generation it
//                  covers; open() replays the CHAIN of consecutive
//                  generations G, G+1, ... (an online compaction that
//                  crashed between rolling the log and publishing the
//                  snapshot leaves two logs — both replay, in order, and
//                  nothing is lost). Only the newest log in the chain may
//                  end in a torn record; a torn or missing log mid-chain
//                  is corruption and fails closed.
// Any other entry (a standby directory placed inside, say) is ignored.
//
// Lifecycle
// ---------
//   auto st = store::fleet_store::open(dir, {.master_key = K});
//   st.registry->provision(...);       // journaled
//   st.hub->challenge(id); ...         // memory only
//   st.store->compact();               // snapshot + fresh WAL generation
//
// open() replays snapshot + WAL chain into a fresh {catalog, registry,
// hub} triple, the registry wired to the store as its persistence sink,
// verifying every firmware image re-hashes to its recorded content id.
// Corrupt state
// fails closed with a typed store_error; only a torn FINAL WAL record —
// the expected crash signature — is dropped (and truncated) cleanly.
//
// Concurrency contract
// --------------------
// The registry's writer lock feeds one store-level journal lock, which
// (1) appends the record, (2) applies it to an in-memory MIRROR of the
// durable state (the mirror equals replay(log) by construction), and (3)
// forwards it to the attached shipper, all in one critical section. The
// hub never takes it. compact() is ONLINE: it serializes the mirror under
// that same lock — never the registry's or the hub's locks — rolls the
// WAL to the next generation, and writes the snapshot file outside the
// lock, so provisioning and hub traffic keep flowing throughout. An advisory lock on the state dir is
// still an open item — one process per directory is the caller's
// responsibility today.
#ifndef DIALED_STORE_FLEET_STORE_H
#define DIALED_STORE_FLEET_STORE_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "fleet/verifier_hub.h"
#include "store/state_image.h"
#include "store/wal.h"

namespace dialed::store {

class fleet_store;
class ship_sink;  // store/ship.h

/// The reopened fleet: a catalog/registry/hub triple, the registry wired
/// to its store. Member order is the destruction contract — the registry
/// holds a sink pointer into the store, so it is declared after it and
/// destroyed before it.
struct fleet_state {
  std::shared_ptr<fleet::firmware_catalog> catalog;
  std::unique_ptr<fleet_store> store;
  std::unique_ptr<fleet::device_registry> registry;
  std::unique_ptr<fleet::verifier_hub> hub;
};

class fleet_store final : public fleet::persist_sink {
 public:
  struct options {
    /// Fleet master key. Required when the state dir is fresh; on reopen
    /// an empty key means "use the persisted one" and a non-empty key
    /// must MATCH the persisted one (store_error(master_key_mismatch)
    /// otherwise — silently proceeding would derive wrong device keys).
    byte_vec master_key;
    /// Configuration for the reopened hub (outstanding cap, TTL...). A
    /// pinned seed reaches the hub folded with the boot epoch (see the
    /// file comment).
    fleet::hub_config hub{};
    /// WAL durability policy (see the sync policy matrix in
    /// src/store/wal.h): per_record fsyncs inside every append, none
    /// trusts the OS page cache (process-crash durability, the default).
    wal_options wal{};
    /// Rewrite the snapshot and reset the WAL at open() when the WAL is
    /// non-empty or no snapshot exists yet. Keeps reopen cost bounded and
    /// makes the master key durable from the first open.
    bool compact_on_open = true;
  };

  static constexpr const char* snapshot_file = "snapshot.dls";

  /// Load (or initialize) the state directory and materialize the fleet.
  /// Throws store_error on any corruption (fail closed) and
  /// registry_error(empty_master_key) on a fresh dir with no key.
  static fleet_state open(const std::string& dir, options opts);

  /// ONLINE compaction: serialize the mirror as a snapshot naming the
  /// next WAL generation, roll the log, publish the snapshot file, drop
  /// the old log. Safe under full concurrent traffic (see file comment);
  /// concurrent compact() calls serialize against each other. Throws
  /// store_error(io_error) when the roll or the snapshot write fails —
  /// a failed roll leaves the store exactly as it was, a failed snapshot
  /// write leaves a two-log chain that the next open (or the next
  /// successful compact) folds up.
  void compact();

  /// Attach (or detach, with nullptr) a shipping sink. The sink
  /// immediately receives a full snapshot of the current state, then
  /// every subsequent record and every compaction snapshot, in journal
  /// order — delivered under the journal lock, so implementations must
  /// be fast and MUST NOT call back into this store.
  void attach_shipper(ship_sink* s);

  /// Observability: current WAL size (records/bytes since the snapshot).
  std::uint64_t wal_records() const { return wal_->records(); }
  std::uint64_t wal_bytes() const { return wal_->bytes(); }
  /// Fsync counters (the /metrics dialed_store_wal_fsyncs_total counter).
  group_commit_stats group_commit() const { return wal_->sync_stats(); }
  wal_sync wal_sync_policy() const { return opts_.wal.sync; }
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }
  const std::string& directory() const { return dir_; }

  // ---- fleet::persist_sink -------------------------------------------
  void on_provision(const fleet::device_record& rec) override;

 private:
  fleet_store(std::string dir, options opts);

  std::string wal_path(std::uint64_t generation) const;
  /// Append + mirror-apply + ship one record. Requires log_mu_. A record
  /// the mirror refuses poisons the writer (the journal and the mirror
  /// must never diverge) and rethrows.
  void journal_locked(std::span<const std::uint8_t> payload);

  std::string dir_;
  options opts_;
  std::atomic<std::uint64_t> generation_{0};
  std::unique_ptr<wal_writer> wal_;

  /// Orders append -> mirror apply -> ship as one atomic step, and
  /// freezes all three for compact()'s serialization point.
  mutable std::mutex log_mu_;
  /// Live replay of the journal: what a reopen RIGHT NOW would
  /// materialize.
  state_image mirror_;
  ship_sink* shipper_ = nullptr;

  /// Serializes whole compact() bodies (two interleaved compactions
  /// would race on the snapshot tmp file and the old-log removal).
  std::mutex compact_mu_;
};

}  // namespace dialed::store

#endif  // DIALED_STORE_FLEET_STORE_H
