// Typed protocol errors shared by the wire codec (transport layer) and the
// fleet verifier hub (challenge/anti-replay layer). A transport error means
// the frame itself is damaged and should be re-requested; a protocol error
// means a well-formed frame failed device or challenge bookkeeping — the
// attestation itself was never evaluated in either case.
#ifndef DIALED_PROTO_ERRORS_H
#define DIALED_PROTO_ERRORS_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace dialed::proto {

enum class proto_error : std::uint8_t {
  none,

  // ---- transport (framing) errors, from the wire codec ----
  truncated,     ///< frame shorter than its fixed header + trailer
  bad_magic,     ///< first two bytes are not 0xD1A7
  bad_version,   ///< version byte names no supported wire format
  bad_length,    ///< or_bytes length field inconsistent with frame size
  bad_crc,       ///< CRC-16 mismatch: corrupted in transit

  // ---- fleet/protocol errors, from the verifier hub ----
  unknown_device,        ///< device_id was never provisioned
  stale_nonce,           ///< challenge matches nothing the hub ever issued
  replayed_report,       ///< challenge was already consumed by a report
  challenge_expired,     ///< challenge outlived its TTL before the report
  challenge_superseded,  ///< challenge was evicted by newer ones
  sequence_mismatch,     ///< frame's seq differs from the challenge's seq
  baseline_mismatch,     ///< v2.1 delta names a baseline the hub does not
                         ///< hold — resend the report as a FULL frame
};

/// Number of proto_error values — sizes histogram arrays indexed by the
/// enum (e.g. fleet::hub_stats). Keep in sync with the last enumerator.
inline constexpr std::size_t proto_error_count =
    static_cast<std::size_t>(proto_error::baseline_mismatch) + 1;

/// Checked decode of a persisted error byte (older fleet stores journaled
/// verdicts as one byte). A byte naming no proto_error means the record
/// is corrupt and the caller must fail closed — never cast the byte
/// directly, a garbage value would silently index out of histogram range.
constexpr bool proto_error_from_u8(std::uint8_t v, proto_error& out) {
  if (v >= proto_error_count) return false;
  out = static_cast<proto_error>(v);
  return true;
}

/// True for errors produced by the framing layer (re-request the frame);
/// false for challenge/device bookkeeping failures (a protocol signal).
constexpr bool is_transport_error(proto_error e) {
  switch (e) {
    case proto_error::truncated:
    case proto_error::bad_magic:
    case proto_error::bad_version:
    case proto_error::bad_length:
    case proto_error::bad_crc:
      return true;
    default:
      return false;
  }
}

std::string to_string(proto_error e);

}  // namespace dialed::proto

#endif  // DIALED_PROTO_ERRORS_H
