#include "proto/wire.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/sha256.h"

namespace dialed::proto {

namespace {

constexpr std::size_t v2_header_size = 74;
/// v2.1: the v2 fields through the MAC (72 bytes) + baseline_seq (4) +
/// baseline_hash (8) + or_full_len (2) + segment count (2).
constexpr std::size_t v21_header_size = 88;
/// Per-segment framing overhead: offset u16 + length u16. Changed ranges
/// closer than this are cheaper to coalesce than to split.
constexpr std::size_t segment_overhead = 4;

/// The 72 bytes v2 and v2.1 share: magic/version/flags/identity/bounds/
/// claims/challenge/MAC. `out` must already be sized >= 72.
void write_v2_prefix(std::span<std::uint8_t> out, std::uint8_t version,
                     const frame_info& info,
                     const verifier::attestation_report& rep) {
  store_le16(out, 0, wire_magic);
  out[2] = version;
  out[3] = rep.exec ? 1 : 0;
  store_le32(out, 4, info.device_id);
  store_le32(out, 8, info.seq);
  store_le16(out, 12, rep.er_min);
  store_le16(out, 14, rep.er_max);
  store_le16(out, 16, rep.or_min);
  store_le16(out, 18, rep.or_max);
  store_le16(out, 20, rep.claimed_result);
  store_le16(out, 22, rep.halt_code);
  for (std::size_t i = 0; i < 16; ++i) out[24 + i] = rep.challenge[i];
  for (std::size_t i = 0; i < 32; ++i) out[40 + i] = rep.mac[i];
}

/// Inverse of write_v2_prefix: the shared 72-byte header into `out`. The
/// caller has already checked magic, version, length and CRC.
void read_v2_prefix(std::span<const std::uint8_t> frame,
                    decoded_frame& out) {
  out.info.version = frame[2];
  out.info.device_id = load_le32(frame, 4);
  out.info.seq = load_le32(frame, 8);
  auto& rep = out.report;
  rep.exec = (frame[3] & 1) != 0;
  rep.er_min = load_le16(frame, 12);
  rep.er_max = load_le16(frame, 14);
  rep.or_min = load_le16(frame, 16);
  rep.or_max = load_le16(frame, 18);
  rep.claimed_result = load_le16(frame, 20);
  rep.halt_code = load_le16(frame, 22);
  for (std::size_t i = 0; i < 16; ++i) rep.challenge[i] = frame[24 + i];
  for (std::size_t i = 0; i < 32; ++i) rep.mac[i] = frame[40 + i];
}

void append_crc(byte_vec& out) {
  const std::uint16_t crc = crc16_ccitt(out);
  out.push_back(static_cast<std::uint8_t>(crc & 0xff));
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
}

}  // namespace

std::string to_string(proto_error e) {
  switch (e) {
    case proto_error::none: return "none";
    case proto_error::truncated: return "truncated";
    case proto_error::bad_magic: return "bad_magic";
    case proto_error::bad_version: return "bad_version";
    case proto_error::bad_length: return "bad_length";
    case proto_error::bad_crc: return "bad_crc";
    case proto_error::unknown_device: return "unknown_device";
    case proto_error::stale_nonce: return "stale_nonce";
    case proto_error::replayed_report: return "replayed_report";
    case proto_error::challenge_expired: return "challenge_expired";
    case proto_error::challenge_superseded: return "challenge_superseded";
    case proto_error::sequence_mismatch: return "sequence_mismatch";
    case proto_error::baseline_mismatch: return "baseline_mismatch";
  }
  return "?";
}

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) {
  // Slice-by-8: the frame CRC runs over every report on the hot verify
  // path, where it was the whole decode stage. t[k][b] is the CRC
  // register after byte b followed by k zero bytes (from a zero
  // register), so eight bytes fold into one XOR of eight lookups; the
  // register itself is folded into the first two bytes, which is exact
  // for an MSB-first CRC. The tail runs bytewise through t[0].
  static const auto t = [] {
    std::array<std::array<std::uint16_t, 256>, 8> tab{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint16_t c = static_cast<std::uint16_t>(i << 8);
      for (int k = 0; k < 8; ++k) {
        c = (c & 0x8000) ? static_cast<std::uint16_t>((c << 1) ^ 0x1021)
                         : static_cast<std::uint16_t>(c << 1);
      }
      tab[0][i] = c;
    }
    for (std::size_t k = 1; k < tab.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint16_t prev = tab[k - 1][i];
        tab[k][i] =
            static_cast<std::uint16_t>((prev << 8) ^ tab[0][prev >> 8]);
      }
    }
    return tab;
  }();
  std::uint16_t crc = 0xffff;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    crc = static_cast<std::uint16_t>(
        t[7][p[0] ^ (crc >> 8)] ^ t[6][p[1] ^ (crc & 0xffu)] ^ t[5][p[2]] ^
        t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]]);
  }
  for (; n > 0; ++p, --n) {
    crc = static_cast<std::uint16_t>(
        (crc << 8) ^ t[0][((crc >> 8) ^ *p) & 0xffu]);
  }
  return crc;
}

proto_error encode_frame_into(const frame_info& info,
                              const verifier::attestation_report& rep,
                              byte_vec& out) {
  out.clear();
  if (info.version != wire_v2) return proto_error::bad_version;
  if (rep.or_bytes.size() > max_or_bytes) {
    // The length field is 16 bits; a larger OR used to be silently
    // truncated here, emitting a frame whose length/CRC never validate.
    return proto_error::bad_length;
  }
  out.resize(v2_header_size);
  write_v2_prefix(out, wire_v2, info, rep);
  store_le16(out, 72, static_cast<std::uint16_t>(rep.or_bytes.size()));
  out.insert(out.end(), rep.or_bytes.begin(), rep.or_bytes.end());
  append_crc(out);
  return proto_error::none;
}

byte_vec encode_frame(const frame_info& info,
                      const verifier::attestation_report& rep) {
  byte_vec out;
  const proto_error err = encode_frame_into(info, rep, out);
  if (err != proto_error::none) {
    throw error("wire: cannot encode frame (" + to_string(err) +
                "): " + (err == proto_error::bad_version
                             ? "unknown version " +
                                   std::to_string(info.version)
                             : "OR payload of " +
                                   std::to_string(rep.or_bytes.size()) +
                                   " bytes exceeds the 16-bit length "
                                   "field"));
  }
  return out;
}

namespace {

/// The v2.1 trailer: delta section + CRC. The caller has already checked
/// magic/version and that the fixed 88-byte header (+CRC room) is there.
/// Scratch-reuse contract: EVERY field of `out` that this frame does not
/// carry is explicitly cleared — in particular report.or_bytes (a longer
/// previous frame's snapshot must never leak into a shorter delta
/// reconstruction) and the segment/data vectors (assigned, not appended).
proto_error decode_v21_into(std::span<const std::uint8_t> frame,
                            decoded_frame& out) {
  // Walk the declared segments to find where the CRC should sit. A length
  // field lying about a segment (running past the frame, or leaving
  // trailing slack) is a typed bad_length, same as v2's or_len check.
  const std::size_t seg_count = load_le16(frame, 86);
  std::size_t pos = v21_header_size;
  for (std::size_t s = 0; s < seg_count; ++s) {
    if (pos + segment_overhead > frame.size()) return proto_error::bad_length;
    const std::size_t len = load_le16(frame, pos + 2);
    pos += segment_overhead;
    if (len > frame.size() - pos) return proto_error::bad_length;
    pos += len;
  }
  if (pos + 2 != frame.size()) return proto_error::bad_length;
  const std::uint16_t crc = crc16_ccitt(frame.subspan(0, pos));
  if (crc != load_le16(frame, pos)) return proto_error::bad_crc;

  read_v2_prefix(frame, out);
  // The frame carries no full OR; the verifier reconstructs it.
  out.report.or_bytes.clear();
  out.or_view = {};

  auto& d = out.delta;
  d.present = true;
  d.baseline_seq = load_le32(frame, 72);
  for (std::size_t i = 0; i < 8; ++i) d.baseline_hash[i] = frame[76 + i];
  d.full_len = load_le16(frame, 84);
  d.segments.clear();
  d.data.clear();
  std::size_t next_min = 0;  // segments strictly ascending, no overlap
  pos = v21_header_size;
  for (std::size_t s = 0; s < seg_count; ++s) {
    or_delta::segment seg;
    seg.offset = load_le16(frame, pos);
    seg.length = load_le16(frame, pos + 2);
    seg.data_pos = static_cast<std::uint32_t>(d.data.size());
    pos += segment_overhead;
    if (seg.length == 0 || seg.offset < next_min ||
        static_cast<std::size_t>(seg.offset) + seg.length > d.full_len) {
      d.present = false;  // half-parsed delta must not look usable
      return proto_error::bad_length;
    }
    next_min = static_cast<std::size_t>(seg.offset) + seg.length;
    d.data.insert(d.data.end(),
                  frame.begin() + static_cast<std::ptrdiff_t>(pos),
                  frame.begin() + static_cast<std::ptrdiff_t>(pos + seg.length));
    d.segments.push_back(seg);
    pos += seg.length;
  }
  return proto_error::none;
}

}  // namespace

proto_error decode_frame_into(std::span<const std::uint8_t> frame,
                              decoded_frame& out, decode_mode mode) {
  if (frame.size() < 3) return proto_error::truncated;
  if (load_le16(frame, 0) != wire_magic) return proto_error::bad_magic;
  const std::uint8_t version = frame[2];
  if (version != wire_v2 && version != wire_v21) {
    return proto_error::bad_version;
  }
  if (version == wire_v21) {
    if (frame.size() < v21_header_size + 2) return proto_error::truncated;
    return decode_v21_into(frame, out);
  }
  // A frame without a delta section must not leave a previous decode's
  // delta looking live in reused scratch (the hub would try to
  // reconstruct a full frame against a baseline).
  out.delta.present = false;
  out.delta.segments.clear();
  out.delta.data.clear();
  constexpr std::size_t hdr = v2_header_size;
  if (frame.size() < hdr + 2) return proto_error::truncated;
  const std::size_t or_len = load_le16(frame, hdr - 2);
  if (frame.size() != hdr + or_len + 2) return proto_error::bad_length;
  const std::uint16_t crc = crc16_ccitt(frame.subspan(0, hdr + or_len));
  if (crc != load_le16(frame, hdr + or_len)) return proto_error::bad_crc;

  read_v2_prefix(frame, out);
  auto& rep = out.report;
  if (mode == decode_mode::borrow) {
    // Zero-copy: the OR stays in the caller's frame buffer (see the
    // decode_mode lifetime contract in wire.h).
    rep.or_bytes.clear();
    out.or_view = frame.subspan(hdr, or_len);
  } else {
    rep.or_bytes.assign(
        frame.begin() + static_cast<std::ptrdiff_t>(hdr),
        frame.begin() + static_cast<std::ptrdiff_t>(hdr + or_len));
    out.or_view = rep.or_bytes;
  }
  return proto_error::none;
}

std::array<std::uint8_t, 8> or_baseline_hash(
    std::uint32_t seq, std::span<const std::uint8_t> or_bytes) {
  std::array<std::uint8_t, 4> seq_le{};
  store_le32(seq_le, 0, seq);
  crypto::sha256 h;
  h.update(seq_le);
  h.update(or_bytes);
  const auto digest = h.finish();
  std::array<std::uint8_t, 8> out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = digest[i];
  return out;
}

proto_error encode_delta_frame_into(const frame_info& info,
                                    const verifier::attestation_report& rep,
                                    std::uint32_t baseline_seq,
                                    std::span<const std::uint8_t> baseline,
                                    byte_vec& out) {
  out.clear();
  if (rep.or_bytes.size() > max_or_bytes ||
      baseline.size() > max_or_bytes) {
    return proto_error::bad_length;
  }
  const std::size_t full_len = rep.or_bytes.size();
  out.resize(v21_header_size);
  write_v2_prefix(out, wire_v21, info, rep);
  store_le32(out, 72, baseline_seq);
  const auto hash = or_baseline_hash(baseline_seq, baseline);
  for (std::size_t i = 0; i < 8; ++i) out[76 + i] = hash[i];
  store_le16(out, 84, static_cast<std::uint16_t>(full_len));

  // Sparse diff with gap coalescing: a run of equal bytes shorter than
  // the 4-byte segment header is cheaper to ship inline than to split on.
  const auto differs = [&](std::size_t k) {
    return k >= baseline.size() || rep.or_bytes[k] != baseline[k];
  };
  std::size_t seg_count = 0;
  std::size_t i = 0;
  while (i < full_len) {
    if (!differs(i)) {
      ++i;
      continue;
    }
    std::size_t last_diff = i;
    std::size_t j = i + 1;
    while (j < full_len &&
           (differs(j) ? (last_diff = j, true)
                       : (j - last_diff < segment_overhead))) {
      ++j;
    }
    std::size_t start = i;
    std::size_t len = last_diff - i + 1;
    while (len > 0) {
      const std::size_t chunk = std::min<std::size_t>(len, 0xffff);
      const std::size_t pos = out.size();
      out.resize(pos + segment_overhead);
      store_le16(out, pos, static_cast<std::uint16_t>(start));
      store_le16(out, pos + 2, static_cast<std::uint16_t>(chunk));
      out.insert(out.end(),
                 rep.or_bytes.begin() + static_cast<std::ptrdiff_t>(start),
                 rep.or_bytes.begin() +
                     static_cast<std::ptrdiff_t>(start + chunk));
      start += chunk;
      len -= chunk;
      ++seg_count;
    }
    i = last_diff + 1;
  }
  // Max segments is bounded well under the u16: each one covers at least
  // one byte and gaps of >= 4 separate them, so <= full_len/5 + 1.
  store_le16(out, 86, static_cast<std::uint16_t>(seg_count));
  append_crc(out);
  return proto_error::none;
}

byte_vec encode_delta_frame(const frame_info& info,
                            const verifier::attestation_report& rep,
                            std::uint32_t baseline_seq,
                            std::span<const std::uint8_t> baseline) {
  byte_vec out;
  const proto_error err =
      encode_delta_frame_into(info, rep, baseline_seq, baseline, out);
  if (err != proto_error::none) {
    throw error("wire: cannot encode delta frame (" + to_string(err) +
                "): OR payload of " + std::to_string(rep.or_bytes.size()) +
                " bytes (baseline " + std::to_string(baseline.size()) +
                ") exceeds the 16-bit length field");
  }
  return out;
}

proto_error apply_or_delta(const or_delta& delta,
                           std::span<const std::uint8_t> baseline,
                           byte_vec& out) {
  // assign + resize overwrite the WHOLE buffer: bytes a longer previous
  // reconstruction left behind can never survive into this one.
  out.assign(baseline.begin(), baseline.end());
  out.resize(delta.full_len, 0);
  std::size_t next_min = 0;
  for (const auto& seg : delta.segments) {
    const std::size_t end = static_cast<std::size_t>(seg.offset) + seg.length;
    if (seg.length == 0 || seg.offset < next_min || end > delta.full_len ||
        static_cast<std::size_t>(seg.data_pos) + seg.length >
            delta.data.size()) {
      out.clear();  // never hand back a half-applied reconstruction
      return proto_error::bad_length;
    }
    std::copy(delta.data.begin() + static_cast<std::ptrdiff_t>(seg.data_pos),
              delta.data.begin() +
                  static_cast<std::ptrdiff_t>(seg.data_pos + seg.length),
              out.begin() + static_cast<std::ptrdiff_t>(seg.offset));
    next_min = end;
  }
  return proto_error::none;
}

decode_result decode_frame(std::span<const std::uint8_t> frame) {
  decode_result r;
  r.error = decode_frame_into(frame, r.frame);
  return r;
}

void append_stream_frame(byte_vec& out,
                         std::span<const std::uint8_t> frame) {
  if (frame.size() > max_stream_frame_bytes) {
    throw error("wire: stream frame larger than max_stream_frame_bytes (" +
                std::to_string(frame.size()) + " bytes)");
  }
  const std::size_t at = out.size();
  out.resize(at + stream_header_bytes + frame.size());
  store_le32(out, at, static_cast<std::uint32_t>(frame.size()));
  std::copy(frame.begin(), frame.end(),
            out.begin() + static_cast<std::ptrdiff_t>(at) +
                static_cast<std::ptrdiff_t>(stream_header_bytes));
}

stream_peek peek_stream_frame(std::span<const std::uint8_t> buf) {
  stream_peek p;
  if (buf.size() < stream_header_bytes) {
    p.need = stream_header_bytes;
    return p;
  }
  p.frame_len = load_le32(buf, 0);
  if (p.frame_len > max_stream_frame_bytes) {
    p.error = proto_error::bad_length;
    return p;
  }
  p.need = stream_header_bytes + p.frame_len;
  p.complete = buf.size() >= p.need;
  return p;
}

}  // namespace dialed::proto
