#include "common/store_error.h"

namespace dialed {

std::string to_string(store_error_kind k) {
  switch (k) {
    case store_error_kind::io_error: return "io_error";
    case store_error_kind::bad_magic: return "bad_magic";
    case store_error_kind::bad_version: return "bad_version";
    case store_error_kind::crc_mismatch: return "crc_mismatch";
    case store_error_kind::truncated_record: return "truncated_record";
    case store_error_kind::bad_record: return "bad_record";
    case store_error_kind::unknown_firmware: return "unknown_firmware";
    case store_error_kind::firmware_mismatch: return "firmware_mismatch";
    case store_error_kind::master_key_mismatch:
      return "master_key_mismatch";
    case store_error_kind::ship_desync: return "ship_desync";
  }
  return "unknown";
}

}  // namespace dialed
