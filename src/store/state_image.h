// The fleet's durable state as plain data: the struct the snapshot
// parser and the WAL replay both apply into, extracted from
// fleet_store.cpp so three consumers share one codec —
//
//   * fleet_store::open()   replays snapshot + WAL chain into an image,
//                           then materializes live objects from it;
//   * fleet_store's MIRROR  a live image kept record-for-record in sync
//                           with the WAL, so compact() can serialize a
//                           point-in-time snapshot WITHOUT quiescing the
//                           hub (the mirror equals replay(log) by
//                           construction);
//   * store::wal_follower   a warm standby applying shipped records into
//                           its own image, validating each one exactly
//                           like a restart would.
//
// apply_record is the single source of truth for record semantics: every
// validation a restart performs (unknown firmware, double provision,
// legacy records naming unprovisioned devices, trailing bytes) happens
// here, so followers and mirrors fail closed on the same inputs a reopen
// would.
//
// Firmware images are kept as their SERIALIZED blobs, not parsed
// programs: the image is a persistence artifact, and blobs make
// serialize_snapshot allocation-free per firmware while parse validation
// still runs at apply/parse time (and the content-id fingerprint check at
// materialize time, where the artifact is actually built).
#ifndef DIALED_STORE_STATE_IMAGE_H
#define DIALED_STORE_STATE_IMAGE_H

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "common/bytes.h"
#include "common/store_error.h"
#include "fleet/persist.h"
#include "verifier/firmware_artifact.h"

namespace dialed::store {

// ---------------------------------------------------------------------------
// On-disk constants
// ---------------------------------------------------------------------------

inline constexpr std::array<std::uint8_t, 4> snapshot_magic = {'D', 'L',
                                                               'F', 'S'};
/// v1 (a histogram one bucket short, no baselines) is retired: it is
/// refused as bad_version. v2, v3 and v4 carried the hub's challenge
/// state: a hub clock after the next device id, and after the device
/// table one row per device (seq high-water mark, outstanding challenges,
/// retired nonces with their fates). v2 and v3 also carried the stats
/// counters: a hub-level section after the WAL generation and four
/// per-device counts at the end of each row; v2 rows then ended with the
/// device's wire v2.1 delta baseline. All three still load: the clock,
/// the counter sections and the rows are read under the usual bounds
/// checks (the histogram must have one bucket per proto_error, a row must
/// name a provisioned device and carry valid fate bytes) and dropped,
/// since challenges are soft state (fleet/persist.h). v5 holds exactly
/// the registry, the catalog and the boot epoch: the header is the master
/// key, the next device id, the boot epoch and the WAL generation, and
/// the file ends at the device table. This build always WRITES v5.
inline constexpr std::uint32_t snapshot_version_v2 = 2;
inline constexpr std::uint32_t snapshot_version_v3 = 3;
inline constexpr std::uint32_t snapshot_version_v4 = 4;
inline constexpr std::uint32_t snapshot_version = 5;

/// WAL record types (first payload byte).
enum class rec : std::uint8_t {
  firmware = 1,   ///< content id + full linked_program image
  provision = 2,  ///< device id, key, firmware content id
  /// Reserved: device id, seq, nonce, issue tick (a challenge grant).
  /// Written by older builds only; replay checks it and drops it.
  challenge = 3,
  /// Reserved: device id, nonce, fate byte (a nonce retirement). Written
  /// by older builds only; replay checks it and drops it.
  retire = 4,
  /// Reserved: device id, proto_error byte, accepted flag (a stats
  /// counter update). Written by older builds only; replay checks it and
  /// drops it.
  verdict = 5,
  /// Reserved: new hub clock value. Written by older builds only; replay
  /// checks it and drops it.
  tick = 6,
  /// Reserved: device id, seq, accepted OR bytes. Written by older
  /// builds only; replay checks it and drops it.
  baseline = 7,
  boot = 8,  ///< the store's new boot epoch (an open() that did not compact)
};

// ---------------------------------------------------------------------------
// File helpers (shared by fleet_store and wal_follower)
// ---------------------------------------------------------------------------

/// Whole-file read; nullopt when the file does not exist, io_error on a
/// failed read of an existing file.
std::optional<byte_vec> read_file(const std::filesystem::path& p);

/// tmp + fsync + rename, so a crash mid-write never leaves a half
/// snapshot under the real name.
void write_file_atomic(const std::filesystem::path& p,
                       std::span<const std::uint8_t> b);

// ---------------------------------------------------------------------------
// The state image
// ---------------------------------------------------------------------------

struct image_device {
  byte_vec key;
  verifier::firmware_id fw{};
};

struct state_image {
  byte_vec master_key;
  fleet::device_id next_id = 1;
  /// Bumped by every fleet_store::open() and durable before its first
  /// grant; folded into a pinned hub_config::seed (fleet_store.h).
  std::uint64_t boot_epoch = 0;
  std::uint64_t wal_generation = 0;
  /// Serialized linked_program blobs, keyed by content id. Parse-checked
  /// on the way in; fingerprint-checked when materialized into a catalog.
  std::map<verifier::firmware_id, byte_vec> firmwares;
  std::map<fleet::device_id, image_device> devices;
};

/// Apply one WAL record payload. Throws store_error(bad_record /
/// unknown_firmware / truncated_record) on anything a replay would
/// refuse; on throw the image may hold the record's partial effects and
/// must be discarded (fleet_store poisons its writer; a follower goes
/// into a desynced error state).
void apply_record(state_image& img, std::span<const std::uint8_t> payload,
                  std::size_t record_index);

/// Parse + CRC-check a snapshot file image. Throws typed store_error on
/// any corruption (fail closed).
state_image parse_snapshot(std::span<const std::uint8_t> data,
                           const std::string& path);

/// Serialize the image as a version-current snapshot naming WAL
/// generation `generation` (the caller's fence — compact() passes the
/// NEXT generation before rolling the log). Inverse of parse_snapshot.
byte_vec serialize_snapshot(const state_image& img,
                            std::uint64_t generation);

}  // namespace dialed::store

#endif  // DIALED_STORE_STATE_IMAGE_H
