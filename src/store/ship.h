// WAL shipping: keep a warm standby of a fleet_store by streaming it the
// journal. The stream is the SAME bytes the store persists — the PR 4
// record codec and snapshot format — so a follower is, by construction,
// in the state a reopen of the primary's directory would produce:
//
//   primary store ── attach_shipper ──> wal_shipper ──> wal_follower(s)
//
// Protocol (delivered in journal order, under the primary's journal
// lock):
//
//   on_snapshot(G, bytes)   a full snapshot naming WAL generation G.
//                           Sent once at attach, and again at every
//                           compaction (the follower rolls its own log
//                           in lockstep).
//   on_record(G, payload)   one WAL record payload appended under
//                           generation G.
//
// The follower VALIDATES every record against its own state image with
// the same apply_record a restart runs — a record the primary's replay
// would refuse is refused here, before it touches the follower's disk.
// Any protocol violation (a record before the first snapshot, a
// generation mismatch, traffic after promotion) or validation failure
// puts the follower into a sticky error state (store_error(ship_desync)
// or the apply error) instead of throwing into the primary's hot path;
// promote() rethrows it.
//
// The stream carries only what the store journals: provisioning
// (firmware images and devices), boot records and compaction snapshots.
// Hub traffic ships nothing.
//
// Promotion reuses the crash-restart machinery wholesale: promote()
// closes the follower's log and fleet_store::open()s its directory, which
// bumps the boot epoch and builds a hub with empty challenge state under
// a new nonce key. So every pre-crash frame presented at the promoted
// standby — consumed, superseded or still outstanding at the primary —
// is stale_nonce, exactly as it would be at the primary restarting.
#ifndef DIALED_STORE_SHIP_H
#define DIALED_STORE_SHIP_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/fleet_store.h"
#include "store/state_image.h"
#include "store/wal.h"

namespace dialed::store {

/// Receiver half of the shipping stream. Called under the primary's
/// journal lock: implementations must be fast, must not throw, and must
/// not call back into the shipping store.
class ship_sink {
 public:
  virtual ~ship_sink() = default;
  virtual void on_snapshot(std::uint64_t generation,
                           std::span<const std::uint8_t> snapshot) = 0;
  virtual void on_record(std::uint64_t generation,
                         std::span<const std::uint8_t> payload) = 0;
};

class wal_follower;

/// Point-in-time standby health, from wal_shipper::stats(): how far the
/// TRACKED followers (added via the wal_follower overload) trail the
/// shipped stream, and whether any of them latched a desync.
struct ship_stats {
  std::uint64_t records_shipped = 0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t snapshots_shipped = 0;
  std::uint64_t followers = 0;      ///< tracked followers only
  /// Max over tracked followers of (records shipped - records applied).
  /// A follower that applies synchronously reads 0; a desynced one stops
  /// applying, so its lag grows with every shipped record.
  std::uint64_t max_lag_records = 0;
  bool any_desync = false;  ///< some follower latched store_error
};

/// Fan-out + instrumentation: one shipper forwards the stream to any
/// number of followers. Register followers BEFORE attaching the shipper
/// to a store — the follower set is not mutable while shipping.
class wal_shipper final : public ship_sink {
 public:
  void add_follower(ship_sink* f) { followers_.push_back(f); }
  /// Same, but keeps the typed pointer so stats() can report the
  /// follower's apply lag and desync state.
  void add_follower(wal_follower* f);

  /// Shipping + standby-health snapshot (safe from any thread; briefly
  /// takes each tracked follower's mutex for the error check).
  ship_stats stats() const;

  void on_snapshot(std::uint64_t generation,
                   std::span<const std::uint8_t> snapshot) override {
    for (auto* f : followers_) f->on_snapshot(generation, snapshot);
    snapshots_shipped_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_record(std::uint64_t generation,
                 std::span<const std::uint8_t> payload) override {
    for (auto* f : followers_) f->on_record(generation, payload);
    records_shipped_.fetch_add(1, std::memory_order_relaxed);
    bytes_shipped_.fetch_add(payload.size(), std::memory_order_relaxed);
  }

  std::uint64_t records_shipped() const {
    return records_shipped_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_shipped() const {
    return bytes_shipped_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots_shipped() const {
    return snapshots_shipped_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<ship_sink*> followers_;
  std::vector<wal_follower*> tracked_;  ///< subset with lag visibility
  std::atomic<std::uint64_t> records_shipped_{0};
  std::atomic<std::uint64_t> bytes_shipped_{0};
  std::atomic<std::uint64_t> snapshots_shipped_{0};
};

/// A warm standby: applies the shipped stream into its own state
/// directory (snapshot file + WAL, same layout as the primary's), ready
/// to be promoted to a live fleet after the primary dies.
struct follower_config {
  /// Durability policy for the follower's WAL (same matrix as the
  /// primary's, src/store/wal.h).
  wal_options wal{};
  /// Unused: the validation image no longer holds retired nonces. Kept
  /// because existing callers still set it.
  std::size_t retired_memory = 0;
};

class wal_follower final : public ship_sink {
 public:
  explicit wal_follower(std::string dir, follower_config cfg = {});

  // ---- ship_sink (never throws; errors latch, promote() rethrows) ----
  void on_snapshot(std::uint64_t generation,
                   std::span<const std::uint8_t> snapshot) override;
  void on_record(std::uint64_t generation,
                 std::span<const std::uint8_t> payload) override;

  /// Stop following and open this follower's directory as a live fleet.
  /// Rethrows any latched stream error; after a successful promote the
  /// follower is inert (late-arriving stream calls latch ship_desync).
  fleet_state promote(fleet_store::options opts);

  /// The latched error, if the stream has desynced. A desynced follower
  /// ignores all further traffic and cannot be promoted.
  std::optional<store_error> error() const;

  bool synced() const;               ///< has a snapshot, no error
  std::uint64_t generation() const;  ///< generation being followed
  std::uint64_t records_applied() const {
    return records_applied_.load(std::memory_order_relaxed);
  }
  const std::string& directory() const { return dir_; }

 private:
  void latch_locked(store_error err);

  std::string dir_;
  follower_config cfg_;
  mutable std::mutex mu_;
  bool have_snapshot_ = false;
  bool promoted_ = false;
  std::uint64_t gen_ = 0;
  std::optional<store_error> error_;
  std::unique_ptr<wal_writer> wal_;
  state_image img_;  ///< validation image (mirrors what is on disk)
  std::atomic<std::uint64_t> records_applied_{0};
};

}  // namespace dialed::store

#endif  // DIALED_STORE_SHIP_H
