// Wire format (framing/CRC) and taint-provenance analysis.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "helpers.h"
#include "proto/wire.h"

namespace dialed::proto {
namespace {

using test::build_op;
using test::test_key;

verifier::attestation_report sample_report() {
  const auto prog = build_op("int op(int a, int b) { return a * b; }", "op",
                             instr::instrumentation::dialed);
  prover_device dev(prog, test_key());
  std::array<std::uint8_t, 16> chal{};
  chal.fill(0x3c);
  invocation inv;
  inv.args = {6, 7, 0, 0, 0, 0, 0, 0};
  return dev.invoke(chal, inv);
}

TEST(wire, encode_decode_round_trip) {
  const auto rep = sample_report();
  const auto r = decode_frame(encode_frame(frame_info{}, rep));
  ASSERT_TRUE(r.ok());
  const auto& back = r.frame.report;
  EXPECT_EQ(back.er_min, rep.er_min);
  EXPECT_EQ(back.er_max, rep.er_max);
  EXPECT_EQ(back.or_min, rep.or_min);
  EXPECT_EQ(back.or_max, rep.or_max);
  EXPECT_EQ(back.exec, rep.exec);
  EXPECT_EQ(back.challenge, rep.challenge);
  EXPECT_EQ(back.mac, rep.mac);
  EXPECT_EQ(back.or_bytes, rep.or_bytes);
  EXPECT_EQ(back.claimed_result, rep.claimed_result);
  EXPECT_EQ(back.halt_code, rep.halt_code);
}

TEST(wire, decoded_report_still_verifies) {
  // The hub decodes the frame it is handed; the decoded report verifies.
  const auto prog = build_op("int op(int a, int b) { return a * b; }", "op",
                             instr::instrumentation::dialed);
  test::hub_device d(prog);
  invocation inv;
  inv.args = {6, 7, 0, 0, 0, 0, 0, 0};
  const auto r = d.round(inv);
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 42);
}

TEST(wire, rejects_bad_magic_version_and_length) {
  const auto frame = encode_frame(frame_info{}, sample_report());
  auto bad = frame;
  bad[0] ^= 0xff;
  EXPECT_FALSE(decode_frame(bad).ok());
  bad = frame;
  bad[2] = 9;
  EXPECT_FALSE(decode_frame(bad).ok());
  bad = frame;
  bad.pop_back();
  EXPECT_FALSE(decode_frame(bad).ok());
  EXPECT_FALSE(decode_frame(byte_vec(10, 0)).ok());
}

TEST(wire, crc_catches_payload_corruption) {
  auto frame = encode_frame(frame_info{}, sample_report());
  frame[100] ^= 0x01;  // flip a bit inside the OR payload
  EXPECT_EQ(decode_frame(frame).error, proto_error::bad_crc);
}

TEST(wire, crc16_known_answer) {
  const byte_vec msg = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(msg), 0x29b1);  // CRC-16/CCITT-FALSE check value
  EXPECT_EQ(crc16_ccitt(byte_vec{}), 0xffff);
}

TEST(wire, crc16_matches_bitwise_reference_at_every_length) {
  // The sliced CRC against the textbook one-bit-at-a-time definition, at
  // every length 0..299: all tail lengths, every 8-byte block count up to
  // 37 and every start alignment of the final block.
  const auto bitwise = [](std::span<const std::uint8_t> data) {
    std::uint16_t crc = 0xffff;
    for (const std::uint8_t b : data) {
      crc = static_cast<std::uint16_t>(crc ^ (b << 8));
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 0x8000)
                  ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                  : static_cast<std::uint16_t>(crc << 1);
      }
    }
    return crc;
  };
  byte_vec buf(300);
  std::uint32_t x = 0x12345678u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;  // LCG: fixed, varied bytes
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t n = 0; n < buf.size(); ++n) {
    const std::span<const std::uint8_t> msg(buf.data(), n);
    ASSERT_EQ(crc16_ccitt(msg), bitwise(msg)) << "length " << n;
  }
}

// ---------------------------------------------------------------------------
// Versioned codec: wire v2, typed errors, version confusion
// ---------------------------------------------------------------------------

TEST(wire_v2, round_trip_carries_device_id_and_seq) {
  const auto rep = sample_report();
  frame_info info;
  info.device_id = 0xdeadbeef;
  info.seq = 40'000'001;
  const auto frame = encode_frame(info, rep);
  const auto r = decode_frame(frame);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame.info.version, wire_v2);
  EXPECT_EQ(r.frame.info.device_id, 0xdeadbeefu);
  EXPECT_EQ(r.frame.info.seq, 40'000'001u);
  EXPECT_EQ(r.frame.report.challenge, rep.challenge);
  EXPECT_EQ(r.frame.report.mac, rep.mac);
  EXPECT_EQ(r.frame.report.or_bytes, rep.or_bytes);
  EXPECT_EQ(r.frame.report.claimed_result, rep.claimed_result);
}

TEST(wire_v2, truncation_at_every_boundary_is_a_typed_error) {
  const auto rep = sample_report();
  frame_info info;
  info.device_id = 7;
  info.seq = 1;
  const auto frame = encode_frame(info, rep);
  constexpr std::size_t v2_header = 74;
  ASSERT_GT(frame.size(), v2_header + 2);
  // Every proper prefix must fail with a typed transport error — never
  // crash, never parse.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const auto cut = std::span<const std::uint8_t>(frame).subspan(0, len);
    const auto r = decode_frame(cut);
    ASSERT_FALSE(r.ok()) << "prefix length " << len;
    EXPECT_TRUE(is_transport_error(r.error)) << "prefix length " << len;
    if (len < v2_header + 2) {
      EXPECT_EQ(r.error, proto_error::truncated) << "prefix length " << len;
    } else {
      EXPECT_EQ(r.error, proto_error::bad_length) << "prefix length " << len;
    }
  }
}

TEST(wire_v2, typed_magic_version_and_crc_errors) {
  const auto frame = encode_frame(frame_info{}, sample_report());
  auto bad = frame;
  bad[0] ^= 0xff;
  EXPECT_EQ(decode_frame(bad).error, proto_error::bad_magic);
  bad = frame;
  bad[2] = 9;
  EXPECT_EQ(decode_frame(bad).error, proto_error::bad_version);
  bad = frame;
  bad[80] ^= 0x01;  // flip a payload bit: CRC catches it
  EXPECT_EQ(decode_frame(bad).error, proto_error::bad_crc);
  EXPECT_THROW(encode_frame(frame_info{.version = 9}, sample_report()),
               error);
}

TEST(wire_v2, version_confusion_is_a_typed_error_not_a_crash) {
  const auto rep = sample_report();
  const auto v2 = encode_frame(frame_info{.device_id = 9}, rep);
  // Version byte 1 is retired: a v2 frame relabeled 1 is bad_version.
  auto as_v1 = v2;
  as_v1[2] = 1;
  EXPECT_EQ(decode_frame(as_v1).error, proto_error::bad_version);
  // A v2 frame relabeled v2.1: the delta section is garbage, so the
  // segment walk, length or CRC must trip.
  auto v2_as_v21 = v2;
  v2_as_v21[2] = wire_v21;
  const auto r1 = decode_frame(v2_as_v21);
  EXPECT_FALSE(r1.ok());
  EXPECT_TRUE(is_transport_error(r1.error));
  // A v2.1 frame relabeled v2 likewise.
  auto v21_as_v2 =
      encode_delta_frame(frame_info{.device_id = 9}, rep, 1, rep.or_bytes);
  v21_as_v2[2] = wire_v2;
  const auto r2 = decode_frame(v21_as_v2);
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(is_transport_error(r2.error));
}

TEST(wire_v2, decode_into_reuses_caller_storage) {
  const auto rep = sample_report();
  frame_info info;
  info.device_id = 2;
  const auto frame = encode_frame(info, rep);
  decoded_frame scratch;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(decode_frame_into(frame, scratch), proto_error::none);
    EXPECT_EQ(scratch.report.or_bytes, rep.or_bytes);
    EXPECT_EQ(scratch.info.device_id, 2u);
  }
}

TEST(wire_v2, borrow_mode_aliases_frame_without_copying) {
  const auto rep = sample_report();
  frame_info info;
  info.device_id = 3;
  auto frame = encode_frame(info, rep);
  decoded_frame scratch;
  ASSERT_EQ(decode_frame_into(frame, scratch, decode_mode::borrow),
            proto_error::none);
  // Zero-copy: or_bytes owns nothing, or_view points INTO the frame.
  EXPECT_TRUE(scratch.report.or_bytes.empty());
  ASSERT_EQ(scratch.or_view.size(), rep.or_bytes.size());
  EXPECT_TRUE(std::equal(scratch.or_view.begin(), scratch.or_view.end(),
                         rep.or_bytes.begin()));
  EXPECT_GE(scratch.or_view.data(), frame.data());
  EXPECT_LT(scratch.or_view.data(), frame.data() + frame.size());
  // Aliasing is observable: mutate the frame byte under the view.
  const auto off =
      static_cast<std::size_t>(scratch.or_view.data() - frame.data());
  frame[off] ^= 0xff;
  EXPECT_EQ(scratch.or_view[0],
            static_cast<std::uint8_t>(rep.or_bytes[0] ^ 0xff));
  // Scalar fields were still decoded by value.
  EXPECT_EQ(scratch.info.device_id, 3u);
  EXPECT_EQ(scratch.report.mac, rep.mac);
}

TEST(wire_v2, copy_mode_or_view_aliases_owned_storage) {
  const auto rep = sample_report();
  frame_info info;
  info.device_id = 4;
  const auto frame = encode_frame(info, rep);
  decoded_frame scratch;
  ASSERT_EQ(decode_frame_into(frame, scratch, decode_mode::copy),
            proto_error::none);
  // Self-contained: or_view is just a window over the owned copy, so the
  // frame buffer may be freed or reused immediately.
  EXPECT_EQ(scratch.report.or_bytes, rep.or_bytes);
  EXPECT_EQ(scratch.or_view.data(), scratch.report.or_bytes.data());
  EXPECT_EQ(scratch.or_view.size(), scratch.report.or_bytes.size());
}

TEST(wire_v2, oversize_or_is_rejected_not_truncated) {
  // Regression: the 16-bit or_bytes length field used to be filled with a
  // silent cast, so a 65536-byte OR encoded as length 0 — a frame that
  // could never decode. It must be a typed bad_length error instead.
  verifier::attestation_report rep;
  rep.or_bytes.assign(max_or_bytes + 1, 0xab);
  frame_info info;
  info.device_id = 7;
  byte_vec out;
  EXPECT_EQ(encode_frame_into(info, rep, out), proto_error::bad_length);
  EXPECT_TRUE(out.empty());
  EXPECT_THROW(encode_frame(info, rep), error);

  // The boundary case still encodes and round-trips: exactly max_or_bytes.
  rep.or_bytes.resize(max_or_bytes);
  ASSERT_EQ(encode_frame_into(info, rep, out), proto_error::none);
  const auto back = decode_frame(out);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.frame.report.or_bytes.size(), max_or_bytes);
  EXPECT_EQ(back.frame.report.or_bytes, rep.or_bytes);
}

TEST(wire_v2, encode_frame_into_reuses_and_clears_storage) {
  const auto rep = sample_report();
  frame_info info;
  info.device_id = 5;
  byte_vec out(500, 0xff);  // stale garbage the encoder must not keep
  ASSERT_EQ(encode_frame_into(info, rep, out), proto_error::none);
  EXPECT_EQ(out, encode_frame(info, rep));
  // An unknown version is typed too, and leaves out empty.
  info.version = 9;
  EXPECT_EQ(encode_frame_into(info, rep, out), proto_error::bad_version);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Wire v2.1: delta frames
// ---------------------------------------------------------------------------

verifier::attestation_report synthetic_report(std::size_t or_len,
                                              std::uint8_t fill) {
  verifier::attestation_report rep;
  rep.er_min = 0xc000;
  rep.er_max = 0xc100;
  rep.or_min = 0x0600;
  rep.or_max = static_cast<std::uint16_t>(0x0600 + or_len - 2);
  rep.exec = true;
  rep.challenge.fill(0x11);
  rep.mac.fill(0x22);
  rep.claimed_result = 42;
  rep.halt_code = 1;
  rep.or_bytes.assign(or_len, fill);
  return rep;
}

TEST(wire_v21, delta_round_trip_reconstructs_exactly) {
  auto base_rep = synthetic_report(512, 0xaa);
  auto rep = base_rep;
  // Sparse changes: an isolated byte, a short run, and a tail run.
  rep.or_bytes[3] = 0x01;
  for (std::size_t i = 100; i < 108; ++i) rep.or_bytes[i] = 0x02;
  for (std::size_t i = 500; i < 512; ++i) rep.or_bytes[i] = 0x03;

  frame_info info;
  info.device_id = 9;
  info.seq = 7;
  const auto frame =
      encode_delta_frame(info, rep, /*baseline_seq=*/6, base_rep.or_bytes);
  // The whole point: far smaller than the full frame.
  EXPECT_LT(frame.size(), encode_frame(info, rep).size() / 2);

  const auto r = decode_frame(frame);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame.info.version, wire_v21);
  EXPECT_EQ(r.frame.info.device_id, 9u);
  EXPECT_EQ(r.frame.info.seq, 7u);
  ASSERT_TRUE(r.frame.delta.present);
  EXPECT_EQ(r.frame.delta.baseline_seq, 6u);
  EXPECT_EQ(r.frame.delta.baseline_hash,
            or_baseline_hash(6, base_rep.or_bytes));
  EXPECT_TRUE(r.frame.report.or_bytes.empty());
  EXPECT_EQ(r.frame.report.challenge, rep.challenge);
  EXPECT_EQ(r.frame.report.mac, rep.mac);

  byte_vec rebuilt;
  ASSERT_EQ(apply_or_delta(r.frame.delta, base_rep.or_bytes, rebuilt),
            proto_error::none);
  EXPECT_EQ(rebuilt, rep.or_bytes);
}

TEST(wire_v21, identical_or_is_a_header_only_frame) {
  const auto rep = synthetic_report(2048, 0x5c);
  frame_info info;
  info.device_id = 1;
  info.seq = 2;
  const auto frame = encode_delta_frame(info, rep, 1, rep.or_bytes);
  EXPECT_EQ(frame.size(), 90u);  // 88-byte header + CRC, zero segments
  const auto r = decode_frame(frame);
  ASSERT_TRUE(r.ok());
  byte_vec rebuilt;
  ASSERT_EQ(apply_or_delta(r.frame.delta, rep.or_bytes, rebuilt),
            proto_error::none);
  EXPECT_EQ(rebuilt, rep.or_bytes);
}

TEST(wire_v21, length_changes_reconstruct_exactly) {
  // Shrinking and growing ORs: the reconstruction truncates or
  // zero-extends the baseline before splatting segments.
  const auto baseline = synthetic_report(300, 0x10).or_bytes;
  for (const std::size_t new_len :
       {std::size_t{100}, std::size_t{300}, std::size_t{450}}) {
    auto rep = synthetic_report(new_len, 0x10);
    if (new_len > 7) rep.or_bytes[7] = 0x99;
    for (std::size_t i = 300; i < new_len; ++i) {
      rep.or_bytes[i] = static_cast<std::uint8_t>(i);
    }
    const auto frame =
        encode_delta_frame(frame_info{}, rep, 3, baseline);
    const auto r = decode_frame(frame);
    ASSERT_TRUE(r.ok()) << new_len;
    byte_vec rebuilt;
    ASSERT_EQ(apply_or_delta(r.frame.delta, baseline, rebuilt),
              proto_error::none)
        << new_len;
    EXPECT_EQ(rebuilt, rep.or_bytes) << new_len;
  }
}

TEST(wire_v21, truncation_at_every_boundary_is_a_typed_error) {
  auto base_rep = synthetic_report(256, 0x40);
  auto rep = base_rep;
  rep.or_bytes[10] ^= 0xff;
  rep.or_bytes[200] ^= 0xff;
  const auto frame =
      encode_delta_frame(frame_info{.device_id = 3, .seq = 9}, rep, 8,
                         base_rep.or_bytes);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const auto cut = std::span<const std::uint8_t>(frame).subspan(0, len);
    const auto r = decode_frame(cut);
    ASSERT_FALSE(r.ok()) << "prefix length " << len;
    EXPECT_TRUE(is_transport_error(r.error)) << "prefix length " << len;
  }
}

TEST(wire_v21, malformed_segments_are_bad_length) {
  auto base_rep = synthetic_report(64, 0x00);
  auto rep = base_rep;
  rep.or_bytes[5] = 1;
  rep.or_bytes[20] = 2;
  auto frame = encode_delta_frame(frame_info{}, rep, 1, base_rep.or_bytes);
  const auto refix = [](byte_vec f) {
    const auto body =
        std::span<const std::uint8_t>(f).subspan(0, f.size() - 2);
    const std::uint16_t crc = crc16_ccitt(body);
    f[f.size() - 2] = static_cast<std::uint8_t>(crc & 0xff);
    f[f.size() - 1] = static_cast<std::uint8_t>(crc >> 8);
    return f;
  };
  // Without a CRC re-fix, tampering is caught as transport corruption.
  {
    auto bad = frame;
    bad[88] ^= 0x01;  // first segment offset
    EXPECT_EQ(decode_frame(bad).error, proto_error::bad_crc);
  }
  // Segment offset beyond full_len (CRC fixed): a structural lie.
  {
    auto bad = frame;
    store_le16(bad, 88, 1000);  // full_len is 64
    EXPECT_EQ(decode_frame(refix(bad)).error, proto_error::bad_length);
  }
  // Segment length running past the frame.
  {
    auto bad = frame;
    store_le16(bad, 90, 0x4000);
    EXPECT_EQ(decode_frame(refix(bad)).error, proto_error::bad_length);
  }
  // Out-of-order segments (second starts before the first ends).
  {
    auto bad = frame;
    store_le16(bad, 88, 20);  // first segment moved onto the second's
    EXPECT_EQ(decode_frame(refix(bad)).error, proto_error::bad_length);
  }
  // Declared segment count larger than the frame carries.
  {
    auto bad = frame;
    store_le16(bad, 86, 9);
    EXPECT_EQ(decode_frame(refix(bad)).error, proto_error::bad_length);
  }
}

TEST(wire_v21, delta_frames_have_no_or_view_in_either_mode) {
  // A v2.1 frame carries no OR payload — only segments against a
  // baseline — so borrow mode has nothing to alias: or_view must stay
  // empty (and a stale view from a previous decode must not survive).
  auto base_rep = synthetic_report(128, 0x10);
  auto rep = base_rep;
  rep.or_bytes[5] = 0xee;
  const auto delta_frame = encode_delta_frame(
      frame_info{.device_id = 1, .seq = 2}, rep, 1, base_rep.or_bytes);
  for (const auto mode : {decode_mode::copy, decode_mode::borrow}) {
    decoded_frame scratch;
    // Seed a stale or_view first.
    ASSERT_EQ(decode_frame_into(encode_frame(frame_info{.device_id = 1},
                                             synthetic_report(64, 0x33)),
                                scratch, mode),
              proto_error::none);
    ASSERT_FALSE(scratch.or_view.empty());
    ASSERT_EQ(decode_frame_into(delta_frame, scratch, mode),
              proto_error::none);
    ASSERT_TRUE(scratch.delta.present);
    EXPECT_TRUE(scratch.or_view.empty());
    EXPECT_TRUE(scratch.report.or_bytes.empty());
  }
}

TEST(wire_v21, scratch_reuse_never_leaks_previous_frames) {
  // Regression for the decode-scratch audit: a LONGER previous frame's
  // bytes must never survive into a later, shorter decode — neither in
  // or_bytes nor as a stale delta section.
  decoded_frame scratch;

  // 1. A long v2 frame fills or_bytes.
  const auto long_rep = synthetic_report(900, 0x77);
  ASSERT_EQ(decode_frame_into(
                encode_frame(frame_info{.device_id = 1}, long_rep), scratch),
            proto_error::none);
  ASSERT_EQ(scratch.report.or_bytes.size(), 900u);
  EXPECT_FALSE(scratch.delta.present);

  // 2. A short v2.1 delta frame into the same scratch: or_bytes must be
  // EMPTY (not 900 stale bytes) and the delta populated.
  auto base_rep = synthetic_report(128, 0x10);
  auto rep = base_rep;
  rep.or_bytes[64] = 0xfe;
  ASSERT_EQ(
      decode_frame_into(encode_delta_frame(frame_info{.device_id = 1,
                                                      .seq = 2},
                                           rep, 1, base_rep.or_bytes),
                        scratch),
      proto_error::none);
  EXPECT_TRUE(scratch.report.or_bytes.empty());
  ASSERT_TRUE(scratch.delta.present);
  byte_vec rebuilt(4096, 0xdd);  // stale reconstruction scratch too
  ASSERT_EQ(apply_or_delta(scratch.delta, base_rep.or_bytes, rebuilt),
            proto_error::none);
  EXPECT_EQ(rebuilt, rep.or_bytes);

  // 3. Back to a v2 frame: the delta section must read as absent again
  // (a hub reusing the scratch would otherwise "reconstruct" a full
  // frame against a baseline).
  const auto short_rep = synthetic_report(64, 0x33);
  ASSERT_EQ(decode_frame_into(
                encode_frame(frame_info{.device_id = 1}, short_rep), scratch),
            proto_error::none);
  EXPECT_FALSE(scratch.delta.present);
  EXPECT_EQ(scratch.report.or_bytes, short_rep.or_bytes);
}

TEST(wire_v21, baseline_hash_is_sequence_stamped) {
  const byte_vec bytes(100, 0xab);
  EXPECT_NE(or_baseline_hash(1, bytes), or_baseline_hash(2, bytes));
  const byte_vec other(100, 0xac);
  EXPECT_NE(or_baseline_hash(1, bytes), or_baseline_hash(1, other));
  EXPECT_EQ(or_baseline_hash(7, bytes), or_baseline_hash(7, bytes));
}

// ---------------------------------------------------------------------------
// Taint provenance over the replay
// ---------------------------------------------------------------------------

/// One hub round plus the forensic replay of the same report: the hub's
/// verdict decides, `fx` explains it.
struct forensic_round {
  fleet::attest_result r;
  verifier::forensics fx;
};

forensic_round round_with_forensics(test::hub_device& d,
                                    const invocation& inv) {
  const auto grant = d.hub.challenge(d.id);
  const auto rep = d.dev.invoke(grant.nonce, inv);
  forensic_round out{d.submit(grant, rep), {}};
  verifier::replay_operation(*d.registry.find(d.id)->firmware, rep, {},
                             &out.fx);
  return out;
}

TEST(taint, argument_derived_result_is_tainted) {
  const auto prog = build_op("int op(int a, int b) { return a + b; }", "op",
                             instr::instrumentation::dialed);
  test::hub_device d(prog);
  invocation inv;
  inv.args = {1, 2, 0, 0, 0, 0, 0, 0};
  const auto [r, fx] = round_with_forensics(d, inv);
  ASSERT_TRUE(r.accepted());
  EXPECT_TRUE(fx.result_tainted);
}

TEST(taint, constant_result_is_untainted) {
  const auto prog = build_op("int op(int a) { return 1234; }", "op",
                             instr::instrumentation::dialed);
  test::hub_device d(prog);
  const auto [r, fx] = round_with_forensics(d, {});
  ASSERT_TRUE(r.accepted());
  EXPECT_FALSE(fx.result_tainted);
}

TEST(taint, mmio_write_of_constant_untainted_of_input_tainted) {
  const auto prog = build_op(
      "int op(int v) { __mmio_w8(25, 1); __mmio_w8(25, v); return 0; }",
      "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  invocation inv;
  inv.args = {0, 0, 0, 0, 0, 0, 0, 0};
  const auto [r, fx] = round_with_forensics(d, inv);
  ASSERT_TRUE(r.accepted());
  // Collect the P3OUT writes from the io trace.
  std::vector<verifier::io_event> p3;
  for (const auto& e : fx.io_trace) {
    if (e.addr == 0x0019) p3.push_back(e);
  }
  ASSERT_EQ(p3.size(), 2u);
  EXPECT_FALSE(p3[0].tainted);  // constant 1
  EXPECT_TRUE(p3[1].tainted);   // the argument
}

TEST(taint, flows_through_globals_and_arithmetic) {
  const auto prog = build_op(
      "int g;"
      "int op(int v) { g = v * 3; int x = g + 1; __mmio_w8(25, x);"
      "  return 7; }",
      "op", instr::instrumentation::dialed);
  test::hub_device d(prog);
  invocation inv;
  inv.args = {2, 0, 0, 0, 0, 0, 0, 0};
  const auto [r, fx] = round_with_forensics(d, inv);
  ASSERT_TRUE(r.accepted());
  ASSERT_FALSE(fx.io_trace.empty());
  bool any_tainted_p3 = false;
  for (const auto& e : fx.io_trace) {
    if (e.addr == 0x0019 && e.tainted) any_tainted_p3 = true;
  }
  EXPECT_TRUE(any_tainted_p3);
  EXPECT_FALSE(fx.result_tainted);  // returns the constant 7
}

TEST(taint, fig2_attack_actuation_is_input_tainted) {
  // The Fig. 2 verdict can explain itself: the actuation value was
  // attacker-influenced (the clobbered `set` was selected by the index).
  const auto prog =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  test::hub_device d(prog);
  const auto [r, fx] = round_with_forensics(d, apps::fig2_attack());
  ASSERT_EQ(r.error, proto_error::none);
  EXPECT_FALSE(r.accepted());
  bool tainted_actuation = false;
  for (const auto& e : fx.io_trace) {
    if (e.addr == 0x0019 && e.tainted) tainted_actuation = true;
  }
  EXPECT_TRUE(tainted_actuation);
}

}  // namespace
}  // namespace dialed::proto
