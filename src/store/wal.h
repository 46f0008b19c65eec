// Append-only write-ahead log for the fleet store.
//
// On-disk framing, one record after another:
//
//   offset  size  field
//   0       4     payload length n (LE32)
//   4       4     CRC-32 over the n payload bytes
//   8       n     payload (first payload byte is the record type)
//
// Crash semantics — the load-bearing distinction:
//
//   * TORN TAIL: the FINAL record is incomplete — fewer than 8 header
//     bytes remain, or the declared payload runs past end-of-file, or the
//     payload reaches exactly end-of-file but its CRC does not match
//     (the crash hit mid-write). That is the expected signature of a
//     crash during append; the reader reports the torn bytes and the
//     store drops them cleanly (truncating the file on reopen).
//   * CORRUPT BODY: a record whose CRC fails (or whose payload is
//     undecodable) while MORE well-formed bytes follow it. That is not a
//     torn write — it is corruption in the middle of the history, and
//     replaying anything after it would resurrect state the log cannot
//     vouch for. The reader fails closed with store_error(crc_mismatch).
//
// Known limitation: the length field itself is only guarded by the
// payload CRC indirectly. A shrunk length fails closed (the CRC is then
// checked over the wrong byte range, mid-log), but a corrupted length
// that points PAST end-of-file is indistinguishable from a mid-append
// crash and is treated as a torn tail — dropping any records after the
// flip. Compaction keeps logs short, and the snapshot (whole-file CRC)
// carries the bulk of the state; closing this fully needs fixed-size
// block framing (ROADMAP open item).
//
// Writers serialize appends behind an internal mutex. Each append is
// flushed to the OS before returning; what happens beyond that is the
// sync policy's business.
//
// Sync policy matrix (wal_options::sync)
// --------------------------------------
//
//   policy      fsync cost                          survives
//   ----------  ----------------------------------  ----------------------
//   per_record  one fsync per append (inside        power loss
//               append, under the append mutex)
//   none        zero                                process crash (OS page
//                                                   cache); NOT power loss
//
// The store journals only provisioning (firmware images, devices) and
// its boot epoch, never a per-report record, so the fsync count is the
// provisioning count and per_record costs nothing on the report path.
//
// Crash semantics per policy: a crash can lose the un-synced tail of the
// log — under `none`, whatever the OS had not written back. A lost
// provisioning record means the device is unknown after the restart and
// must be provisioned again; it can never make a report verify, because
// no challenge state is journaled at all: every reopened hub draws a new
// nonce key, so a frame answering a pre-crash challenge is stale_nonce
// whatever the log kept. The one durability the freshness argument
// needs is the boot epoch under a pinned hub seed (fleet_store.h): it is
// fsynced under per_record (or carried by the fsynced open-time
// snapshot), and under `none` shares the log's process-crash guarantee.
#ifndef DIALED_STORE_WAL_H
#define DIALED_STORE_WAL_H

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/store_error.h"

namespace dialed::store {

/// When appended records become durable (see the matrix above).
enum class wal_sync : std::uint8_t {
  per_record,  ///< fsync inside every append
  none,        ///< flush to the OS only (process-crash durability)
};

constexpr const char* to_string(wal_sync s) {
  switch (s) {
    case wal_sync::per_record: return "per_record";
    case wal_sync::none: return "none";
  }
  return "unknown";
}

struct wal_options {
  wal_sync sync = wal_sync::none;
};

/// Fsync counters (the /metrics dialed_store_wal_fsyncs_total counter).
/// per_record fsyncs every append alone, so `records == syncs`; `none`
/// never fsyncs and both stay 0.
struct group_commit_stats {
  std::uint64_t syncs = 0;    ///< fsyncs issued
  std::uint64_t records = 0;  ///< records those fsyncs made durable
};

/// One decoded WAL record: the payload with the framing stripped.
struct wal_record {
  byte_vec payload;
};

struct wal_read_result {
  std::vector<wal_record> records;
  /// Byte offset of the first torn byte (== file size when the log ends
  /// cleanly). Reopening truncates the file to this length.
  std::uint64_t valid_bytes = 0;
  bool torn_tail = false;
};

/// Parse an entire WAL image. Throws store_error(crc_mismatch /
/// truncated_record) for corruption that is NOT a torn tail (see file
/// comment).
wal_read_result read_wal(std::span<const std::uint8_t> data);

/// Appender over a WAL file. Opens (creating if missing) and, when the
/// existing tail is torn, truncates it to `valid_bytes` first so the next
/// append lands on a clean boundary.
class wal_writer {
 public:
  /// `truncate_to`: length the existing file is cut to before appending
  /// (pass wal_read_result::valid_bytes); `existing_records` the number of
  /// records already in it. Throws store_error(io_error).
  wal_writer(std::string path, std::uint64_t truncate_to,
             std::uint64_t existing_records, wal_options opts = {});
  ~wal_writer();

  wal_writer(const wal_writer&) = delete;
  wal_writer& operator=(const wal_writer&) = delete;

  /// Frame `payload` and append it. Thread-safe. Throws
  /// store_error(io_error) when the write, flush or (per_record) fsync
  /// fails; a failed append rolls the file back to the last record
  /// boundary and POISONS the writer (every later append throws io_error
  /// immediately) so a half-written record can never get live records
  /// appended after it. Reopen the store (or reset_to) to recover.
  void append(std::span<const std::uint8_t> payload);

  /// Fsync counters (see group_commit_stats).
  group_commit_stats sync_stats() const;

  /// Replace the log with an empty one at `path` (compaction commit —
  /// typically the next WAL generation's filename). Thread-safe against
  /// append. Throws store_error(io_error) with the writer untouched if
  /// the new file cannot be created.
  void reset_to(std::string path);

  /// Permanently fail this writer: every later append throws io_error.
  /// Used when the store's on-disk naming has moved past this log (a
  /// compaction that could not switch generations) — appending to a log
  /// no reopen will ever read must be loud, not silent.
  void poison();

  std::uint64_t bytes() const;
  std::uint64_t records() const;

 private:
  [[noreturn]] void fail_locked(const char* what);

  std::string path_;
  wal_options opts_;
  mutable std::mutex mu_;
  std::FILE* f_ = nullptr;
  bool failed_ = false;  ///< poisoned by a failed append (see append)
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
  group_commit_stats sync_stats_;
};

}  // namespace dialed::store

#endif  // DIALED_STORE_WAL_H
