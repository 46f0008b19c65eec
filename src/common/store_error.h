// Typed failures of the durable fleet-state store (src/store/). Corrupt
// state files must fail CLOSED: the loader either reconstructs exactly the
// persisted state or throws a store_error naming what is wrong and where —
// it never silently loads a partial registry/catalog/hub and serves
// traffic from it (that is precisely the attestation-vs-state gap the
// store exists to close).
//
// The one deliberate exception is a TORN TAIL: an append-only WAL whose
// final record was cut short by a crash mid-write. That is not corruption
// but the expected crash signature of an append-only log, so the reader
// drops the torn record cleanly (see src/store/wal.h for the exact
// distinction between "torn tail" and "corrupt body").
#ifndef DIALED_COMMON_STORE_ERROR_H
#define DIALED_COMMON_STORE_ERROR_H

#include <cstdint>

#include "common/error.h"

namespace dialed {

/// What the store rejected.
enum class store_error_kind : std::uint8_t {
  io_error,           ///< open/read/write/rename on the state dir failed
  bad_magic,          ///< file does not start with the store magic
  bad_version,        ///< format version this build does not speak
  crc_mismatch,       ///< checksum failure: file corrupted at rest
  truncated_record,   ///< a length field points past the end of the data
  bad_record,         ///< well-framed record with an undecodable body
  unknown_firmware,   ///< device references a firmware id never persisted
  firmware_mismatch,  ///< persisted program re-hashes to a different id
  master_key_mismatch,  ///< caller's master key differs from the stored one
  ship_desync,  ///< shipped WAL stream violated the snapshot/gen protocol
};

std::string to_string(store_error_kind k);

/// Typed store failure; still a dialed::error so existing catch-all
/// handlers keep working.
class store_error : public error {
 public:
  store_error(store_error_kind kind, const std::string& what_arg)
      : error("store: " + what_arg), kind_(kind) {}
  store_error_kind kind() const { return kind_; }

 private:
  store_error_kind kind_;
};

}  // namespace dialed

#endif  // DIALED_COMMON_STORE_ERROR_H
