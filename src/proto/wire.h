// Wire formats for attestation reports — the bytes Prv actually sends over
// its network link. Little-endian fixed header + variable OR payload,
// framed with a magic, a version, and a CRC-16 so transport corruption is
// distinguished from security failures (a corrupted frame is re-requested;
// a bad MAC is an attack signal).
//
// Version byte 1 (the seed-era format without device identity) is retired
// and decodes as bad_version.
//
// v2 — the fleet format: the header carries the 32-bit device id (hub
// routing + per-device key selection) and the 32-bit challenge sequence
// number (anti-replay bookkeeping):
//
//   offset  size  field
//   0       2     magic 0xD1A7
//   2       1     version (2)
//   3       1     flags: bit0 = EXEC claim
//   4       4     device_id (LE32)
//   8       4     seq (LE32)
//   12      2     er_min        14  2  er_max
//   16      2     or_min        18  2  or_max
//   20      2     claimed_result
//   22      2     halt_code
//   24      16    challenge
//   40      32    MAC
//   72      2     or_bytes length
//   74      n     or_bytes
//   74+n    2     CRC-16/CCITT over bytes [0, 74+n)
//
// v2.1 — the delta-compressed fleet format (version byte 3): in
// high-frequency polling the OR barely changes between rounds, so instead
// of the full snapshot the prover may ship a sparse range delta against
// the OR of the last report the hub ACCEPTED for this device (the
// per-device `or_baseline`, sequence-stamped so both sides agree which
// round it was). The header is byte-identical to v2 through offset 72,
// then the or-length/or-bytes trailer is replaced by a delta section:
//
//   offset  size  field
//   0..71         exactly as v2 (magic|ver=3|flags|device_id|seq|bounds|
//                 result|halt|challenge|MAC)
//   72      4     baseline_seq (LE32) — seq of the accepted round whose
//                 OR is the delta baseline
//   76      8     baseline_hash — first 8 bytes of
//                 SHA-256(LE32(baseline_seq) || baseline OR bytes); a
//                 desynced verifier detects the mismatch BEFORE burning
//                 the nonce and answers with the typed baseline_mismatch
//                 error, demanding a full frame
//   84      2     or_full_len — length of the reconstructed OR
//   86      2     segment count S
//   88      ...   S segments, each [offset u16 | len u16 | len bytes]:
//                 replace `len` bytes of the baseline at `offset`.
//                 Segments are strictly ascending, non-overlapping,
//                 non-empty and end within or_full_len — anything else is
//                 a typed bad_length, never a parse.
//   end     2     CRC-16/CCITT over everything before
//
// Reconstruction: start from the baseline bytes, truncate/zero-extend to
// or_full_len, then splat the segments. The MAC still covers the FULL
// reconstructed OR — delta encoding is transport compression, not a
// change to what is attested; a delta that reconstructs the wrong OR
// fails MAC verification exactly like a forged full frame.
//
// The codec API is versioned: `encode_frame` emits whichever version the
// frame_info names and `decode_frame` dispatches on the version byte.
// Delta frames are emitted by
// `encode_delta_frame_into` and reconstructed by `apply_or_delta` (the
// hub resolves the baseline; the codec never holds per-device state).
//
// OR payload layout (shared contract with src/emu/memmap.h and the §III
// MAC): `or_max` is the ADDRESS OF THE TOPMOST 16-BIT LOG SLOT, so the
// slot occupies bytes [or_max, or_max+1] and the attested snapshot spans
// [or_min, or_max+1] INCLUSIVE — `or_bytes` carries
// `or_max - or_min + 2` bytes, one more than the naive `or_max - or_min
// + 1`. SW-Att MACs exactly that range (src/rot/attest.h), the prover
// snapshots it, and the verifier replays it; an encoder that drops the
// final byte produces a frame whose MAC can never verify.
//
// Because the topmost slot spans [or_max, or_max+1], a valid layout
// needs `or_max <= 0xfffe` — with or_max = 0xffff the tail byte would
// sit past the top of the address space and 16-bit arithmetic on
// `or_max + 1` wraps to 0x0000. The verifier fails such layouts closed
// (firmware_artifact rejects them at build time; replay_operation
// returns a bounds_mismatch finding), and every snapshot loop clamps at
// 0xffff rather than wrap.
//
// The or_bytes length field is 16 bits: an OR snapshot larger than
// `max_or_bytes` is unencodable and is rejected with bad_length (it used
// to be silently truncated, yielding a frame that could never decode).
#ifndef DIALED_PROTO_WIRE_H
#define DIALED_PROTO_WIRE_H

#include <optional>

#include "common/bytes.h"
#include "proto/errors.h"
#include "verifier/report.h"

namespace dialed::proto {

constexpr std::uint8_t wire_v2 = 2;
constexpr std::uint8_t wire_v21 = 3;  ///< v2.1: delta-compressed OR

/// First two frame bytes, little-endian (0xA7 0xD1 on the wire). Public
/// so routing layers can sniff a frame's version without a full decode.
constexpr std::uint16_t wire_magic = 0xd1a7;

/// Sniff the device id out of a frame header without decoding it: v2 and
/// v2.1 carry it LE32 at offset 4, right after magic/version/flags.
/// nullopt for anything else (short, wrong magic, unsupported version). This is a ROUTING hint only: the full decode downstream
/// still authenticates the frame, so a lying header merely routes the
/// frame to a partition that rejects it with the same typed error the
/// sender would get anywhere.
inline std::optional<std::uint32_t> peek_device_id(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < 8 || load_le16(frame, 0) != wire_magic) {
    return std::nullopt;
  }
  if (frame[2] != wire_v2 && frame[2] != wire_v21) return std::nullopt;
  return load_le32(frame, 4);
}

/// Total encoded size of a FULL v2 frame carrying an n-byte OR (header +
/// payload + CRC) — what a delta frame's savings are measured against.
constexpr std::size_t v2_frame_size(std::size_t or_len) {
  return 74 + or_len + 2;
}

/// Per-frame routing metadata, carried by every v2/v2.1 frame header.
struct frame_info {
  std::uint8_t version = wire_v2;
  std::uint32_t device_id = 0;
  std::uint32_t seq = 0;
};

/// One decoded v2.1 delta section: the baseline reference plus the sparse
/// replacement segments, stored flat (`data` concatenates every segment's
/// bytes) so repeated decodes reuse capacity instead of allocating per
/// segment.
struct or_delta {
  /// A strictly-validated replacement range: `length` bytes at
  /// `data[data_pos..]` overwrite the reconstruction at `offset`.
  struct segment {
    std::uint16_t offset = 0;
    std::uint16_t length = 0;
    std::uint32_t data_pos = 0;
  };

  bool present = false;  ///< true only after decoding a v2.1 frame
  std::uint32_t baseline_seq = 0;
  std::array<std::uint8_t, 8> baseline_hash{};
  std::uint16_t full_len = 0;  ///< reconstructed OR length
  std::vector<segment> segments;
  byte_vec data;  ///< all segment bytes, in segment order

  /// Bytes the delta section occupies on the wire (the frame-size win the
  /// benches report): fixed delta header + 4 per segment + the data.
  std::size_t wire_bytes() const {
    return 16 + segments.size() * 4 + data.size();
  }
};

struct decoded_frame {
  frame_info info;
  verifier::attestation_report report;
  /// The decoded OR payload as a span, regardless of decode mode: in
  /// `copy` mode it views `report.or_bytes`; in `borrow` mode it views
  /// the caller's frame buffer (see decode_mode lifetime rules) and
  /// `report.or_bytes` stays empty. Empty for v2.1 frames — the OR does
  /// not exist until apply_or_delta reconstructs it.
  std::span<const std::uint8_t> or_view;
  /// v2.1 only: the delta section. When `delta.present`, report.or_bytes
  /// is EMPTY — the verifier must reconstruct it against its baseline via
  /// apply_or_delta before anything downstream (MAC!) may run.
  or_delta delta;
};

struct decode_result {
  proto_error error = proto_error::none;
  decoded_frame frame;  ///< meaningful only when error == none
  bool ok() const { return error == proto_error::none; }
};

/// Largest OR payload a frame can carry (16-bit length field).
constexpr std::size_t max_or_bytes = 0xffff;

/// Serialize a report into a transmission frame of the requested version.
/// Throws dialed::error for an unknown version or an OR payload larger
/// than max_or_bytes (see encode_frame_into for the non-throwing path).
byte_vec encode_frame(const frame_info& info,
                      const verifier::attestation_report& rep);

/// Non-throwing encode into caller-owned storage (capacity is reused).
/// Returns bad_version for an unknown version and bad_length for an OR
/// payload that cannot fit the 16-bit length field; `out` is left empty
/// on error.
proto_error encode_frame_into(const frame_info& info,
                              const verifier::attestation_report& rep,
                              byte_vec& out);

/// Parse and validate a frame of any supported version.
decode_result decode_frame(std::span<const std::uint8_t> frame);

/// How decode_frame_into materializes the OR payload.
///
/// `copy`   — report.or_bytes owns a copy (capacity reused across calls);
///            or_view aliases it. The decoded frame is self-contained.
/// `borrow` — ZERO-COPY: or_view points INTO the caller's `frame` buffer
///            and report.or_bytes stays empty. Lifetime contract: the
///            frame bytes must stay alive AND unmodified for as long as
///            or_view (or any report_view built from it) is read — i.e.
///            until verification of this report completes. The borrowing
///            callers in-tree all satisfy this structurally: the hub
///            verifies synchronously inside submit() while the caller
///            holds the frame; the net batcher keeps each batch's frames
///            in stable per-batch storage until every verdict is out; WAL
///            replay keeps the record buffer alive across the apply.
///            Anything that must OUTLIVE the frame (e.g. a delta
///            baseline adopted from an accepted report) must copy out of
///            the view — never store the span.
///
/// v2.1 delta frames carry no OR either way; or_view is empty until
/// apply_or_delta reconstructs the payload into caller storage.
enum class decode_mode : std::uint8_t { copy, borrow };

/// Parse into caller-owned storage, reusing `out.report.or_bytes`'s
/// capacity — the allocation-free path `verify_batch` runs on. See
/// decode_mode for the `borrow` lifetime rules.
proto_error decode_frame_into(std::span<const std::uint8_t> frame,
                              decoded_frame& out,
                              decode_mode mode = decode_mode::copy);

// ---- v2.1 delta codec -----------------------------------------------------

/// The sequence-stamped baseline fingerprint both sides compute: the first
/// 8 bytes of SHA-256(LE32(seq) || or_bytes). Stamping the seq into the
/// hash means a baseline reused under the wrong round can never pass the
/// cheap pre-MAC check by byte coincidence.
std::array<std::uint8_t, 8> or_baseline_hash(
    std::uint32_t seq, std::span<const std::uint8_t> or_bytes);

/// Serialize `rep` as a v2.1 delta frame against `baseline` (the OR bytes
/// of the accepted round `baseline_seq`). info.version is ignored — the
/// frame is always wire_v21. Returns bad_length when the OR exceeds
/// max_or_bytes; `out` is left empty on error. The encoder coalesces
/// nearby changed ranges (a 4-byte segment header makes gaps < 4 cheaper
/// to inline) and splits ranges longer than a u16 can carry.
proto_error encode_delta_frame_into(const frame_info& info,
                                    const verifier::attestation_report& rep,
                                    std::uint32_t baseline_seq,
                                    std::span<const std::uint8_t> baseline,
                                    byte_vec& out);

/// Throwing convenience over encode_delta_frame_into.
byte_vec encode_delta_frame(const frame_info& info,
                            const verifier::attestation_report& rep,
                            std::uint32_t baseline_seq,
                            std::span<const std::uint8_t> baseline);

/// Reconstruct the full OR from a decoded delta and the baseline bytes:
/// out = baseline truncated/zero-extended to delta.full_len, then every
/// segment splatted. `out`'s previous contents (possibly longer than
/// full_len — the scratch-reuse hazard) are fully overwritten, never
/// leaked into the reconstruction. Returns bad_length if the delta's
/// segments are structurally inconsistent (decode already rejects such
/// frames; this re-check keeps hand-built deltas safe too).
proto_error apply_or_delta(const or_delta& delta,
                           std::span<const std::uint8_t> baseline,
                           byte_vec& out);

// ---- length-prefixed stream framing (the TCP transport) -------------------
//
// Datagram links hand the codec whole frames; a TCP byte stream does not.
// The service front-end (src/net/) therefore carries every frame — report
// frames and its own small service messages alike — as
//
//   [u32 len (LE) | len frame bytes]
//
// and reassembles arbitrary stream splits before decode_frame_into ever
// sees the bytes. The length prefix is attacker-controlled, so it is
// capped at max_stream_frame_bytes: a garbage prefix yields a typed
// bad_length instead of an unbounded allocation.

/// Upper bound on a length prefix the stream transport will honor. Sized
/// above the largest legal encoded frame — a pathological v2.1 delta with
/// 65535 one-byte segments costs 72 + 16 + 4*65535 + 65535 + 2 bytes
/// (~320 KiB) — and far below anything a hostile prefix could use to
/// balloon the reassembly buffer.
constexpr std::size_t max_stream_frame_bytes = 512 * 1024;
static_assert(max_stream_frame_bytes >=
              72 + 16 + 4 * 65535ull + max_or_bytes + 2);

/// Bytes of the [u32 len] prefix.
constexpr std::size_t stream_header_bytes = 4;

/// Append `frame` to `out` with its length prefix. Throws dialed::error
/// for a frame larger than max_stream_frame_bytes (encoders never produce
/// one; a caller that does has corrupted memory, not a frame).
void append_stream_frame(byte_vec& out, std::span<const std::uint8_t> frame);

/// What peeking at the head of a reassembly buffer found.
struct stream_peek {
  /// bad_length: the prefix names a frame larger than
  /// max_stream_frame_bytes — the stream is unrecoverable (there is no
  /// resync point), the transport must drop the connection.
  proto_error error = proto_error::none;
  bool complete = false;     ///< a whole frame is buffered
  std::uint32_t frame_len = 0;  ///< prefix value, when >= 4 bytes buffered
  /// Prefix + frame bytes to consume when `complete`; otherwise the total
  /// buffered size a complete frame would need (the framer's read target).
  std::size_t need = stream_header_bytes;
};

/// Inspect `buf` (the head of a stream reassembly buffer) for one
/// length-prefixed frame. Never consumes; the caller slices
/// [stream_header_bytes, need) out as the frame when `complete`.
stream_peek peek_stream_frame(std::span<const std::uint8_t> buf);

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xffff) used by the framing.
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data);

}  // namespace dialed::proto

#endif  // DIALED_PROTO_WIRE_H
