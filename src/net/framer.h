// Stream framing for the attestation service: incremental reassembly of
// the `[u32 len | frame bytes]` transport framing (src/proto/wire.h), and
// the codec for the service's own small control messages.
//
// Reassembly (the stream-split bugfix)
// ------------------------------------
// `decode_frame_into` requires a complete frame; a TCP read hands back
// whatever the kernel has — half a length prefix, three frames and a
// tail, one byte. `stream_framer` buffers arbitrary splits and yields
// whole frames in order. A length prefix larger than
// proto::max_stream_frame_bytes is a typed bad_length and poisons the
// framer: there is no resync point in a length-prefixed stream, so the
// connection must be dropped — crucially, the oversized prefix is
// rejected BEFORE any buffer grows to meet it, so garbage prefixes never
// buy an attacker an allocation.
//
// Service messages
// ----------------
// Report frames travel as-is (they carry their own 0xD1A7 magic). The
// request/response control plane is three fixed-size messages under a
// distinct magic, so a router can tell them apart from report frames by
// the first two bytes:
//
//   challenge_req  [magic 0x5ED1 | type 1 | device_id u32]            = 7 B
//   challenge_resp [magic | type 2 | error u8 | note u8 | device u32
//                   | seq u32 | nonce 16]                             = 29 B
//   attest_resp    [magic | type 3 | error u8 | accepted u8
//                   | device u32 | seq u32]                           = 13 B
//
// All integers little-endian, like the wire format they ride beside.
// attest_resp carries the frame's device/seq so a pipelining client can
// match responses to submissions even when the server's partitions,
// verifying in parallel, complete them out of order.
#ifndef DIALED_NET_FRAMER_H
#define DIALED_NET_FRAMER_H

#include <optional>

#include "proto/wire.h"

namespace dialed::net {

/// First two bytes of a service control message (LE on the wire), chosen
/// so it can never be confused with a report frame's 0xD1A7.
constexpr std::uint16_t svc_magic = 0x5ed1;

enum class svc_type : std::uint8_t {
  challenge_req = 1,
  challenge_resp = 2,
  attest_resp = 3,
};

struct challenge_req {
  std::uint32_t device_id = 0;
};

struct challenge_resp {
  proto::proto_error error = proto::proto_error::none;
  /// challenge_superseded when issuing evicted the oldest outstanding
  /// challenge (mirrors fleet::challenge_grant::note).
  proto::proto_error note = proto::proto_error::none;
  std::uint32_t device_id = 0;
  std::uint32_t seq = 0;
  std::array<std::uint8_t, 16> nonce{};
};

struct attest_resp {
  proto::proto_error error = proto::proto_error::none;
  bool accepted = false;
  std::uint32_t device_id = 0;
  std::uint32_t seq = 0;
};

byte_vec encode_challenge_req(const challenge_req& m);
byte_vec encode_challenge_resp(const challenge_resp& m);
byte_vec encode_attest_resp(const attest_resp& m);

/// True when `frame` starts with the service magic (vs a report frame).
bool is_svc_message(std::span<const std::uint8_t> frame);
/// nullopt when `frame` is not a well-formed message of that exact type
/// and size (a malformed control message is a protocol violation, not
/// something to limp past).
std::optional<challenge_req> decode_challenge_req(
    std::span<const std::uint8_t> frame);
std::optional<challenge_resp> decode_challenge_resp(
    std::span<const std::uint8_t> frame);
std::optional<attest_resp> decode_attest_resp(
    std::span<const std::uint8_t> frame);

/// Incremental reassembler for the length-prefixed stream framing. Feed
/// raw received bytes; pull complete frames. Single-owner (one per
/// connection / client socket), not thread-safe.
class stream_framer {
 public:
  /// Append raw stream bytes. Returns false (and consumes nothing) once
  /// the stream is poisoned by an oversized length prefix.
  bool feed(std::span<const std::uint8_t> bytes);

  /// Move the next complete frame into `frame` (capacity reused).
  /// Returns false when no complete frame is buffered — distinguish
  /// "waiting for more bytes" from a poisoned stream via error().
  bool next(byte_vec& frame);

  /// bad_length after an oversized length prefix; none otherwise.
  proto::proto_error error() const { return error_; }

  /// Bytes buffered but not yet consumed (observability/tests). Bounded
  /// by max_stream_frame_bytes + one read's worth of tail.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  byte_vec buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  proto::proto_error error_ = proto::proto_error::none;
};

}  // namespace dialed::net

#endif  // DIALED_NET_FRAMER_H
