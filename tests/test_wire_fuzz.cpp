// The adversarial wire/store fuzz-and-differential battery (wire v2.1).
//
// A deterministic, structure-aware mutational fuzzer — seeded mt19937_64
// streams, no wall-clock anywhere, so every failure replays bit-exactly —
// hammering the attacker-reachable parsers:
//
//   * proto::decode_frame / decode_frame_into  (v2, v2.1 frames)
//   * proto::apply_or_delta                    (delta reconstruction)
//   * store::read_wal + fleet_store::open      (WAL / snapshot parsing)
//
// with truncations, length-field lies, CRC flips, version skews and
// baseline desyncs. The properties, from the issue:
//
//   1. decode never crashes (run this suite under ASan/UBSan — the CI
//      `fuzz` job does) and maps every malformed input to a TYPED error;
//   2. the verifier hub never accepts a frame whose reconstructed OR
//      differs from the ground-truth OR the device attested;
//   3. corrupt store bytes either load exactly or throw a typed
//      store_error — never a crash, never a partial load.
//
// Iteration counts: every heavy loop's default is multiplied by the env
// var DIALED_FUZZ_ITERS (a small integer scale factor; unset = 1). The
// CI fuzz job raises it; the defaults already sum to >120k iterations
// across the battery. Checked-in seed frames live in tests/fuzz_corpus/
// (path baked in via DIALED_FUZZ_CORPUS_DIR) so any regression replays
// from a file, not from a transcript; setting DIALED_FUZZ_WRITE_CORPUS=1
// regenerates them canonically. One file has no generator on purpose:
// v1_retired__bad_version.bin is a captured frame of the retired version
// 1 format, kept so that version stays rejected.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>

#include "common/store_error.h"
#include "helpers.h"
#include "proto/wire.h"
#include "store/codec.h"
#include "store/fleet_store.h"
#include "store/wal.h"

namespace dialed {
namespace {

namespace fs = std::filesystem;

using proto::decode_frame;
using proto::frame_info;
using proto::proto_error;
using proto::wire_v2;
using proto::wire_v21;
using test::build_op;

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

/// DIALED_FUZZ_ITERS multiplies a loop's default iteration count.
std::uint64_t scaled(std::uint64_t dflt) {
  if (const char* env = std::getenv("DIALED_FUZZ_ITERS")) {
    const unsigned long long n = std::strtoull(env, nullptr, 10);
    if (n > 0) return dflt * n;
  }
  return dflt;
}

std::string corpus_dir() {
#ifdef DIALED_FUZZ_CORPUS_DIR
  return DIALED_FUZZ_CORPUS_DIR;
#else
  return "tests/fuzz_corpus";
#endif
}

/// A deterministic synthetic report: real layout numbers, fake crypto —
/// the codec neither computes nor checks MACs, so corpus frames need no
/// device run and regenerate byte-identically forever.
verifier::attestation_report synthetic_report(std::size_t or_len,
                                              std::uint64_t tag) {
  verifier::attestation_report rep;
  rep.er_min = 0xc000;
  rep.er_max = 0xc1fe;
  rep.or_min = 0x0600;
  rep.or_max = static_cast<std::uint16_t>(0x0600 + (or_len ? or_len : 2) - 2);
  rep.exec = true;
  rep.claimed_result = static_cast<std::uint16_t>(tag * 17);
  rep.halt_code = 1;
  for (std::size_t i = 0; i < rep.challenge.size(); ++i) {
    rep.challenge[i] = static_cast<std::uint8_t>(tag + i);
  }
  for (std::size_t i = 0; i < rep.mac.size(); ++i) {
    rep.mac[i] = static_cast<std::uint8_t>(tag * 3 + i);
  }
  rep.or_bytes.resize(or_len);
  std::mt19937_64 rng(0xc0ffee00ull + tag);
  for (auto& b : rep.or_bytes) b = static_cast<std::uint8_t>(rng());
  return rep;
}

void refix_crc(byte_vec& f) {
  if (f.size() < 2) return;
  const auto body = std::span<const std::uint8_t>(f).subspan(0, f.size() - 2);
  const std::uint16_t crc = proto::crc16_ccitt(body);
  f[f.size() - 2] = static_cast<std::uint8_t>(crc & 0xff);
  f[f.size() - 1] = static_cast<std::uint8_t>(crc >> 8);
}

/// One structure-aware mutation step over a frame: the attacks the issue
/// names (truncation, length lies, CRC flips, version skew, baseline
/// desync) plus generic bit/byte noise. Mutations that re-fix the CRC
/// model the stronger attacker who frames damage plausibly.
void mutate(std::mt19937_64& rng, byte_vec& f) {
  if (f.empty()) {
    f.push_back(static_cast<std::uint8_t>(rng()));
    return;
  }
  switch (rng() % 10) {
    case 0:  // truncate anywhere
      f.resize(rng() % f.size());
      return;
    case 1: {  // extend with junk
      const std::size_t n = 1 + rng() % 64;
      for (std::size_t i = 0; i < n; ++i) {
        f.push_back(static_cast<std::uint8_t>(rng()));
      }
      return;
    }
    case 2:  // single bit flip (CRC should catch it)
      f[rng() % f.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
      return;
    case 3:  // byte smash
      f[rng() % f.size()] = static_cast<std::uint8_t>(rng());
      return;
    case 4:  // version skew, CRC fixed: the parser must cope on merit
      if (f.size() > 2) {
        f[2] = static_cast<std::uint8_t>(rng() % 6);
        refix_crc(f);
      }
      return;
    case 5: {  // lie in a 16-bit field at the length-bearing offsets
      static constexpr std::size_t offsets[] = {64, 72, 84, 86, 88, 90};
      const std::size_t off = offsets[rng() % std::size(offsets)];
      if (off + 2 <= f.size()) {
        store_le16(f, off, static_cast<std::uint16_t>(rng()));
        refix_crc(f);
      }
      return;
    }
    case 6: {  // splice a window from elsewhere in the frame
      if (f.size() < 8) return;
      const std::size_t n = 1 + rng() % 16;
      const std::size_t src = rng() % (f.size() - 1);
      const std::size_t dst = rng() % (f.size() - 1);
      for (std::size_t i = 0;
           i < n && src + i < f.size() && dst + i < f.size(); ++i) {
        f[dst + i] = f[src + i];
      }
      refix_crc(f);
      return;
    }
    case 7:  // flip a bit, then make the CRC agree
      f[rng() % f.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
      refix_crc(f);
      return;
    case 8:  // baseline desync: smash seq/hash bytes, CRC fixed
      if (f.size() > 84) {
        f[72 + rng() % 12] = static_cast<std::uint8_t>(rng());
        refix_crc(f);
      }
      return;
    default:  // zero a run (models a dropped radio burst)
      if (f.size() >= 4) {
        const std::size_t start = rng() % (f.size() - 1);
        const std::size_t n =
            std::min<std::size_t>(1 + rng() % 32, f.size() - start);
        std::fill(f.begin() + static_cast<std::ptrdiff_t>(start),
                  f.begin() + static_cast<std::ptrdiff_t>(start + n), 0);
      }
      return;
  }
}

/// Invariants every SUCCESSFUL decode must satisfy, whatever the bytes:
/// known version, and a delta section that is internally consistent
/// (non-empty ascending segments inside full_len, data exactly packed).
void check_decoded_invariants(const proto::decoded_frame& f) {
  ASSERT_TRUE(f.info.version == wire_v2 || f.info.version == wire_v21);
  if (f.delta.present) {
    ASSERT_EQ(f.info.version, wire_v21);
    ASSERT_TRUE(f.report.or_bytes.empty());
    std::size_t next_min = 0;
    std::size_t data_used = 0;
    for (const auto& seg : f.delta.segments) {
      ASSERT_GT(seg.length, 0u);
      ASSERT_GE(seg.offset, next_min);
      next_min = static_cast<std::size_t>(seg.offset) + seg.length;
      ASSERT_LE(next_min, f.delta.full_len);
      ASSERT_EQ(seg.data_pos, data_used);
      data_used += seg.length;
    }
    ASSERT_EQ(data_used, f.delta.data.size());
  } else {
    ASSERT_NE(f.info.version, wire_v21);
  }
}

/// The canonical seed frames: every wire version and delta shape, built
/// from synthetic reports so they are stable across runs and machines.
struct seed_frame {
  std::string name;       ///< corpus stem, suffixed "__<expected error>"
  byte_vec bytes;
  byte_vec baseline;      ///< ground-truth baseline for v2.1 seeds
  byte_vec ground_truth;  ///< the full OR this frame should reconstruct
};

std::vector<seed_frame> make_seed_frames() {
  std::vector<seed_frame> seeds;
  const auto rep_small = synthetic_report(96, 1);
  const auto rep_big = synthetic_report(2048, 2);

  frame_info v2i;
  v2i.device_id = 7;
  v2i.seq = 3;
  seeds.push_back({"v2__none", proto::encode_frame(v2i, rep_big), {},
                   rep_big.or_bytes});

  // v2.1, sparse delta: a handful of changed ranges over a big OR.
  auto cur = rep_big;
  cur.or_bytes[5] ^= 0x80;
  for (std::size_t i = 700; i < 740; ++i) cur.or_bytes[i] ^= 0x55;
  cur.or_bytes[2047] ^= 0x01;
  frame_info v21i;
  v21i.device_id = 7;
  v21i.seq = 4;
  seeds.push_back({"v21_sparse__none",
                   proto::encode_delta_frame(v21i, cur, 3, rep_big.or_bytes),
                   rep_big.or_bytes, cur.or_bytes});
  // v2.1, empty delta (steady-state poll: identical OR).
  seeds.push_back({"v21_empty__none",
                   proto::encode_delta_frame(v21i, rep_big, 3,
                                             rep_big.or_bytes),
                   rep_big.or_bytes, rep_big.or_bytes});
  // v2.1, worst case: every byte changed (delta degenerates to one run).
  auto churn = rep_small;
  for (auto& b : churn.or_bytes) b = static_cast<std::uint8_t>(~b);
  seeds.push_back({"v21_churn__none",
                   proto::encode_delta_frame(v21i, churn, 3,
                                             rep_small.or_bytes),
                   rep_small.or_bytes, churn.or_bytes});
  return seeds;
}

/// Deterministically-corrupted corpus entries: the classic attacks, with
/// the expected typed error baked into the file name.
std::vector<seed_frame> make_corrupt_frames() {
  std::vector<seed_frame> out;
  const auto seeds = make_seed_frames();
  const auto& v2 = seeds[0].bytes;
  const auto& v21 = seeds[1].bytes;

  const auto with = [](byte_vec f, auto&& fn) {
    fn(f);
    return f;
  };
  out.push_back({"empty__truncated", {}, {}, {}});
  out.push_back({"v2_cut_header__truncated",
                 byte_vec(v2.begin(), v2.begin() + 40), {}, {}});
  out.push_back({"v21_cut_header__truncated",
                 byte_vec(v21.begin(), v21.begin() + 80), {}, {}});
  out.push_back({"v2_bad_magic__bad_magic",
                 with(v2, [](byte_vec& f) { f[0] ^= 0xff; }), {}, {}});
  out.push_back({"v2_bad_version__bad_version", with(v2, [](byte_vec& f) {
                   f[2] = 9;
                   refix_crc(f);
                 }),
                 {}, {}});
  out.push_back({"v2_crc_flip__bad_crc",
                 with(v2, [](byte_vec& f) { f[100] ^= 0x01; }), {}, {}});
  out.push_back({"v21_crc_flip__bad_crc",
                 with(v21, [](byte_vec& f) { f[89] ^= 0x01; }), {}, {}});
  out.push_back({"v2_len_lie__bad_length", with(v2, [](byte_vec& f) {
                   store_le16(f, 72, 9);
                   refix_crc(f);
                 }),
                 {}, {}});
  out.push_back({"v21_segcount_lie__bad_length",
                 with(v21, [](byte_vec& f) {
                   store_le16(f, 86, 200);
                   refix_crc(f);
                 }),
                 {}, {}});
  out.push_back({"v21_seg_overflow__bad_length",
                 with(v21, [](byte_vec& f) {
                   store_le16(f, 84, 4);  // full_len shrunk under segments
                   refix_crc(f);
                 }),
                 {}, {}});
  // Decodes cleanly — the HUB rejects it later as baseline_mismatch.
  out.push_back({"v21_baseline_desync__none",
                 with(v21, [](byte_vec& f) {
                   f[76] ^= 0xff;
                   refix_crc(f);
                 }),
                 {}, {}});
  return out;
}

proto_error expected_from_name(const std::string& stem) {
  const auto pos = stem.rfind("__");
  EXPECT_NE(pos, std::string::npos) << stem;
  const std::string want = stem.substr(pos + 2);
  for (std::size_t i = 0; i < proto::proto_error_count; ++i) {
    const auto e = static_cast<proto_error>(i);
    if (proto::to_string(e) == want) return e;
  }
  ADD_FAILURE() << "corpus name encodes no proto_error: " << stem;
  return proto_error::none;
}

// ---------------------------------------------------------------------------
// Corpus: regenerate (DIALED_FUZZ_WRITE_CORPUS=1) or replay
// ---------------------------------------------------------------------------

TEST(wire_fuzz, corpus_replays_with_the_recorded_errors) {
  const fs::path dir = corpus_dir();
  if (std::getenv("DIALED_FUZZ_WRITE_CORPUS") != nullptr) {
    fs::create_directories(dir);
    for (const auto& list : {make_seed_frames(), make_corrupt_frames()}) {
      for (const auto& s : list) {
        std::ofstream out(dir / (s.name + ".bin"), std::ios::binary);
        out.write(reinterpret_cast<const char*>(s.bytes.data()),
                  static_cast<std::streamsize>(s.bytes.size()));
      }
    }
  }
  ASSERT_TRUE(fs::exists(dir)) << dir << " missing — corpus not checked in";
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".bin") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 14u);
  for (const auto& p : files) {
    std::ifstream in(p, std::ios::binary);
    const byte_vec bytes((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    const auto r = decode_frame(bytes);
    EXPECT_EQ(r.error, expected_from_name(p.stem().string())) << p;
    if (r.ok()) check_decoded_invariants(r.frame);
  }
}

TEST(wire_fuzz, checked_in_corpus_matches_the_generators) {
  // The corpus is not decoration: if an encoder change alters frame
  // bytes, the checked-in files must be regenerated CONSCIOUSLY
  // (DIALED_FUZZ_WRITE_CORPUS=1), because old captured frames must keep
  // decoding forever. This test pins the two together.
  const fs::path dir = corpus_dir();
  for (const auto& list : {make_seed_frames(), make_corrupt_frames()}) {
    for (const auto& s : list) {
      const fs::path p = dir / (s.name + ".bin");
      ASSERT_TRUE(fs::exists(p)) << p;
      std::ifstream in(p, std::ios::binary);
      const byte_vec bytes((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
      EXPECT_EQ(bytes, s.bytes) << p << " diverged from its generator — "
                                << "rerun with DIALED_FUZZ_WRITE_CORPUS=1 "
                                << "if the change is intentional";
    }
  }
}

// ---------------------------------------------------------------------------
// Layer A: pure garbage
// ---------------------------------------------------------------------------

TEST(wire_fuzz, random_garbage_never_crashes_the_decoder) {
  std::mt19937_64 rng(0x6a2ba6e5eed0001ull);
  byte_vec buf;
  proto::decoded_frame scratch;
  const std::uint64_t iters = scaled(30'000);
  for (std::uint64_t i = 0; i < iters; ++i) {
    buf.resize(rng() % 320);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    // Occasionally plant the magic/version so deeper paths get traffic.
    if (buf.size() >= 3 && rng() % 2 == 0) {
      buf[0] = 0xa7;
      buf[1] = 0xd1;
      buf[2] = static_cast<std::uint8_t>(1 + rng() % 3);
      if (rng() % 2 == 0) refix_crc(buf);
    }
    // The into-variant (the hub's hot path, reused scratch) must agree
    // with the allocating one on every input.
    ASSERT_EQ(proto::decode_frame_into(buf, scratch),
              decode_frame(buf).error);
    if (decode_frame(buf).ok()) check_decoded_invariants(scratch);
  }
}

// ---------------------------------------------------------------------------
// Layer B: structure-aware mutants of valid frames
// ---------------------------------------------------------------------------

TEST(wire_fuzz, mutated_frames_decode_to_typed_errors_or_sane_frames) {
  const auto seeds = make_seed_frames();
  std::mt19937_64 rng(0x5eed00a7a7e0002ull);
  byte_vec frame;
  byte_vec rebuilt;
  proto::decoded_frame scratch;
  const std::uint64_t iters = scaled(40'000);
  std::uint64_t decoded_ok = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto& seed = seeds[rng() % seeds.size()];
    frame = seed.bytes;
    const std::size_t steps = 1 + rng() % 3;
    for (std::size_t s = 0; s < steps; ++s) mutate(rng, frame);
    const auto err = proto::decode_frame_into(frame, scratch);
    if (err != proto_error::none) continue;  // typed rejection: good
    ++decoded_ok;
    // A surviving mutant must be structurally sane...
    check_decoded_invariants(scratch);
    // ...and its reconstruction, when it still applies over the true
    // baseline, must be bounded by its own declared full_len — and
    // byte-exact when the mutations happened to cancel out.
    if (scratch.delta.present && !seed.baseline.empty()) {
      const auto ar =
          proto::apply_or_delta(scratch.delta, seed.baseline, rebuilt);
      if (frame == seed.bytes) {
        ASSERT_EQ(ar, proto_error::none);
        ASSERT_EQ(rebuilt, seed.ground_truth);
      } else if (ar == proto_error::none) {
        ASSERT_EQ(rebuilt.size(), scratch.delta.full_len);
      }
    }
  }
  // CRC-refixing mutations must actually get some frames through the
  // framing layer, or the deeper validation saw no adversarial traffic.
  ASSERT_GT(decoded_ok, 0u);
}

// ---------------------------------------------------------------------------
// Layer C: delta codec differential — apply(decode(encode(x))) == x
// ---------------------------------------------------------------------------

TEST(wire_fuzz, delta_codec_round_trips_against_ground_truth) {
  std::mt19937_64 rng(0xde17ac0dec0003ull);
  byte_vec frame;
  byte_vec rebuilt(4096, 0xee);  // deliberately stale scratch
  proto::decoded_frame scratch;
  const std::uint64_t iters = scaled(30'000);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::size_t base_len = rng() % 2100;
    byte_vec baseline(base_len);
    for (auto& b : baseline) b = static_cast<std::uint8_t>(rng());

    // Current OR: the baseline, resized and sparsely perturbed — the
    // polling-loop shape the delta codec exists for.
    auto rep = synthetic_report(0, i);
    rep.or_bytes = baseline;
    if (rng() % 4 == 0) {
      rep.or_bytes.resize(rng() % 2100, static_cast<std::uint8_t>(rng()));
    }
    const std::size_t edits = rng() % 12;
    for (std::size_t e = 0; e < edits && !rep.or_bytes.empty(); ++e) {
      const std::size_t at = rng() % rep.or_bytes.size();
      const std::size_t run =
          std::min<std::size_t>(1 + rng() % 40, rep.or_bytes.size() - at);
      for (std::size_t k = 0; k < run; ++k) {
        rep.or_bytes[at + k] = static_cast<std::uint8_t>(rng());
      }
    }

    frame_info info;
    info.device_id = static_cast<std::uint32_t>(rng());
    info.seq = static_cast<std::uint32_t>(rng());
    const std::uint32_t bseq = static_cast<std::uint32_t>(rng());
    ASSERT_EQ(
        proto::encode_delta_frame_into(info, rep, bseq, baseline, frame),
        proto_error::none);
    // Determinism: the encoder is a pure function of its inputs.
    ASSERT_EQ(frame, proto::encode_delta_frame(info, rep, bseq, baseline));

    ASSERT_EQ(proto::decode_frame_into(frame, scratch), proto_error::none);
    ASSERT_TRUE(scratch.delta.present);
    ASSERT_EQ(scratch.delta.baseline_seq, bseq);
    ASSERT_EQ(scratch.delta.baseline_hash,
              proto::or_baseline_hash(bseq, baseline));
    ASSERT_EQ(proto::apply_or_delta(scratch.delta, baseline, rebuilt),
              proto_error::none);
    // Byte-exact reconstruction, with reused (stale) scratch throughout.
    ASSERT_EQ(rebuilt, rep.or_bytes);
  }
}

// ---------------------------------------------------------------------------
// Layer D: end to end — the hub never accepts a wrong-OR frame
// ---------------------------------------------------------------------------

TEST(wire_fuzz, hub_never_accepts_a_frame_with_a_wrong_or) {
  const auto prog = build_op("int op(int a, int b) { return a + b; }", "op",
                             instr::instrumentation::dialed);
  fleet::device_registry reg(byte_vec(32, 0x42));
  const auto id = reg.provision(prog);
  fleet::hub_config cfg;
  cfg.max_outstanding = 4;
  fleet::verifier_hub hub(reg, cfg);
  proto::prover_device dev(prog, reg.derive_key(id));
  proto::delta_emitter emitter;

  std::mt19937_64 rng(0xadd5eed00d1a1edull);
  byte_vec mutant;
  byte_vec rebuilt;
  proto::decoded_frame scratch;

  // The test's mirror of the hub's baseline table, updated by the same
  // accepted-only/max-seq rule — so accepted delta frames can be
  // reconstructed here and compared against the ground truth.
  byte_vec tracked_baseline;
  std::uint32_t tracked_seq = 0;
  bool have_baseline = false;

  const std::uint64_t rounds = scaled(18);
  std::uint64_t genuine_accepted = 0;
  std::uint64_t mac_reaching_mutants = 0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const auto grant = hub.challenge(id);
    proto::invocation inv;
    inv.args[0] = static_cast<std::uint16_t>(round);
    inv.args[1] = static_cast<std::uint16_t>(rng() % 100);
    const auto rep = dev.invoke(grant.nonce, inv);
    const byte_vec genuine = emitter.encode(id, grant.seq, rep);
    const byte_vec& truth = rep.or_bytes;

    // Property 2: any ACCEPTED submission must carry (full frame) or
    // reconstruct (delta frame) exactly the ground-truth OR.
    const auto check_accepted = [&](std::span<const std::uint8_t> f,
                                    const fleet::attest_result& res) {
      ASSERT_EQ(proto::decode_frame_into(f, scratch), proto_error::none);
      if (scratch.delta.present) {
        ASSERT_TRUE(have_baseline);
        ASSERT_EQ(
            proto::apply_or_delta(scratch.delta, tracked_baseline, rebuilt),
            proto_error::none);
        ASSERT_EQ(rebuilt, truth) << "round " << round;
      } else {
        ASSERT_EQ(scratch.report.or_bytes, truth) << "round " << round;
      }
      if (!have_baseline || res.seq > tracked_seq) {
        have_baseline = true;
        tracked_seq = res.seq;
        tracked_baseline = truth;
      }
    };

    const auto submit_mutants = [&] {
      for (std::uint64_t m = 0; m < 48; ++m) {
        mutant = genuine;
        const std::size_t steps = 1 + rng() % 2;
        for (std::size_t s = 0; s < steps; ++s) mutate(rng, mutant);
        // A mutation chain can be a byte-level no-op; submitting the
        // genuine bytes here would burn the nonce outside the emitter's
        // view and prove nothing — skip those.
        if (mutant == genuine) continue;
        const auto res = hub.submit(mutant);
        if (res.error == proto_error::none) ++mac_reaching_mutants;
        if (res.accepted()) check_accepted(mutant, res);
      }
    };

    // Most rounds the genuine frame goes first (and must be accepted);
    // every third round the mutants go first, so mutants reach the MAC
    // with a LIVE nonce — the arm where a wrong-OR acceptance would
    // have to show up.
    if (round % 3 != 0) {
      auto res = hub.submit(genuine);
      if (res.error == proto_error::baseline_mismatch) {
        // A surviving mutant from an earlier round advanced the hub's
        // baseline behind the emitter's back; drive the documented
        // fallback — drop the mirror, resend full on the same nonce.
        emitter.note_result(id, grant.seq, rep, res.error, false);
        const byte_vec full = emitter.encode(id, grant.seq, rep);
        res = hub.submit(full);
        ASSERT_TRUE(res.accepted()) << "round " << round << ": "
                                    << proto::to_string(res.error);
        check_accepted(full, res);
      } else {
        ASSERT_TRUE(res.accepted()) << "round " << round << ": "
                                    << proto::to_string(res.error);
        check_accepted(genuine, res);
      }
      ++genuine_accepted;
      emitter.note_result(id, grant.seq, rep, res.error, true);
      submit_mutants();
    } else {
      submit_mutants();
      const auto res = hub.submit(genuine);
      if (res.accepted()) {
        check_accepted(genuine, res);
        ++genuine_accepted;
      } else {
        // A mutant with intact nonce bytes burned the challenge: the
        // genuine frame now classifies as a typed replay — fine, but it
        // must never be silently mis-verified.
        ASSERT_NE(res.error, proto_error::none) << "round " << round;
      }
      emitter.note_result(id, grant.seq, rep, res.error, res.accepted());
    }
  }
  // The battery must have exercised the accept path AND pushed mutants
  // all the way to MAC verification, not just bounced them off framing.
  ASSERT_GE(genuine_accepted, rounds / 2);
  ASSERT_GT(mac_reaching_mutants, 0u);
}

// ---------------------------------------------------------------------------
// Layer E: store bytes — WAL records and snapshots fail closed
// ---------------------------------------------------------------------------

/// A synthetic WAL image: `n` framed records of plausible payloads.
byte_vec synth_wal(std::mt19937_64& rng, std::size_t n) {
  byte_vec img;
  for (std::size_t i = 0; i < n; ++i) {
    byte_vec payload(1 + rng() % 60);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    payload[0] = static_cast<std::uint8_t>(rng() % 9);  // record type-ish
    byte_vec hdr(8);
    store_le32(hdr, 0, static_cast<std::uint32_t>(payload.size()));
    store_le32(hdr, 4, store::crc32(payload));
    img.insert(img.end(), hdr.begin(), hdr.end());
    img.insert(img.end(), payload.begin(), payload.end());
  }
  return img;
}

TEST(wire_fuzz, wal_images_parse_or_throw_typed_errors) {
  std::mt19937_64 rng(0x3a110f0f5eed04ull);
  const std::uint64_t iters = scaled(20'000);
  for (std::uint64_t i = 0; i < iters; ++i) {
    byte_vec img = synth_wal(rng, rng() % 6);
    switch (rng() % 5) {
      case 0:
        if (!img.empty()) img.resize(rng() % img.size());
        break;
      case 1:
        if (!img.empty()) {
          img[rng() % img.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        }
        break;
      case 2:  // length-field lie
        if (img.size() >= 4) {
          store_le32(img, rng() % (img.size() - 3),
                     static_cast<std::uint32_t>(rng()));
        }
        break;
      case 3: {  // junk tail (torn append)
        const std::size_t n = rng() % 64;
        for (std::size_t k = 0; k < n; ++k) {
          img.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
      default:
        break;  // clean image: must parse
    }
    try {
      const auto parsed = store::read_wal(img);
      ASSERT_LE(parsed.valid_bytes, img.size());
    } catch (const store_error&) {
      // typed, fail-closed: exactly what mid-log corruption should do
    }
  }
}

TEST(wire_fuzz, mutated_store_dirs_load_exactly_or_fail_closed) {
  // Four seed stores: one real store with real history written by this
  // build (snapshot v5 plus a provisioning record), the checked-in v2
  // fixture from a build that persisted delta baselines (the v2 baseline
  // section and a type-7 WAL record), the checked-in v3 fixture from a
  // build that persisted stats counters (the v3 counter sections and
  // type-5 WAL records), and the checked-in v4 fixture from a build that
  // persisted challenges (the v4 hub-state rows and clock, and type-3,
  // type-4 and type-6 WAL records) — all checked and dropped on load.
  // Every iteration mutates one seed's bytes into a fresh dir and
  // reopens: open() must load a coherent fleet or throw typed.
  const fs::path root =
      fs::path(::testing::TempDir()) / "dialed-wire-fuzz-store";
  fs::remove_all(root);
  const fs::path pristine = root / "pristine";
  {
    store::fleet_store::options o;
    o.master_key = byte_vec(32, 0x42);
    o.compact_on_open = false;
    auto st = store::fleet_store::open(pristine.string(), o);
    const auto prog = build_op("int op(int a, int b) { return a + b; }",
                               "op", instr::instrumentation::dialed);
    const auto id = st.registry->provision(prog);
    proto::prover_device dev(prog, st.registry->find(id)->key);
    for (int round = 0; round < 2; ++round) {
      const auto g = st.hub->challenge(id);
      proto::invocation inv;
      inv.args[0] = static_cast<std::uint16_t>(round);
      proto::frame_info info;
      info.device_id = id;
      info.seq = g.seq;
      const auto r = st.hub->submit(
          proto::encode_frame(info, dev.invoke(g.nonce, inv)));
      ASSERT_TRUE(r.accepted());
    }
    st.store->compact();  // snapshot with the registry
    // plus a live WAL record on top: rounds journal nothing, so a second
    // device on the same firmware
    (void)st.registry->provision(prog);
  }
  const auto read_all = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return byte_vec((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  };
  struct store_seed {
    byte_vec snap;
    byte_vec wal;
  };
  const fs::path v2 = fs::path(corpus_dir()) / "store_v2";
  const fs::path v3 = fs::path(corpus_dir()) / "store_v3";
  const fs::path v4 = fs::path(corpus_dir()) / "store_v4";
  const store_seed seeds[] = {
      {read_all(pristine / "snapshot.dls"), read_all(pristine / "wal-1.log")},
      {read_all(v2 / "snapshot.dls"), read_all(v2 / "wal-1.log")},
      {read_all(v3 / "snapshot.dls"), read_all(v3 / "wal-1.log")},
      {read_all(v4 / "snapshot.dls"), read_all(v4 / "wal-1.log")},
  };
  constexpr std::size_t nseeds = std::size(seeds);
  for (const auto& seed : seeds) {
    ASSERT_FALSE(seed.snap.empty());
    ASSERT_FALSE(seed.wal.empty());
  }

  std::mt19937_64 rng(0x5707ef0220005ull);
  const std::uint64_t iters = scaled(800);  // 200 per seed
  const fs::path work = root / "mutated";
  std::size_t loaded[nseeds] = {};
  for (std::uint64_t i = 0; i < iters; ++i) {
    fs::remove_all(work);
    fs::create_directories(work);
    const auto& seed = seeds[i % nseeds];
    byte_vec s = seed.snap;
    byte_vec w = seed.wal;
    for (byte_vec* f : {&s, &w}) {
      if (rng() % 3 == 0 || f->empty()) continue;
      switch (rng() % 3) {
        case 0:
          f->resize(rng() % f->size());
          break;
        case 1:
          (*f)[rng() % f->size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
          break;
        default: {
          const std::size_t n = 1 + rng() % 8;
          for (std::size_t k = 0; k < n && !f->empty(); ++k) {
            (*f)[rng() % f->size()] = static_cast<std::uint8_t>(rng());
          }
          break;
        }
      }
    }
    const auto write_all = [](const fs::path& p, const byte_vec& b) {
      std::ofstream out(p, std::ios::binary);
      out.write(reinterpret_cast<const char*>(b.data()),
                static_cast<std::streamsize>(b.size()));
    };
    write_all(work / "snapshot.dls", s);
    write_all(work / "wal-1.log", w);

    store::fleet_store::options o;
    o.master_key = byte_vec(32, 0x42);
    o.compact_on_open = false;
    try {
      auto st = store::fleet_store::open(work.string(), o);
      // Loaded: it must be a coherent fleet (never a half-applied one).
      // No seed holds more than two devices.
      ASSERT_LE(st.registry->size(), 2u);
      for (const auto did : st.registry->ids()) {
        ASSERT_NE(st.registry->find(did), nullptr);
        ASSERT_NE(st.registry->find(did)->firmware, nullptr);
      }
      ++loaded[i % nseeds];
    } catch (const store_error&) {
      // the typed fail-closed path — the expected answer to corruption
    } catch (const error&) {
      // other typed dialed errors (e.g. a mutated-but-CRC-colliding
      // program image failing artifact construction) are fail-closed too
    }
  }
  // Every seed really loads when left intact or mutated harmlessly.
  for (std::size_t k = 0; k < nseeds; ++k) {
    EXPECT_GT(loaded[k], 0u) << "seed " << k;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace dialed
