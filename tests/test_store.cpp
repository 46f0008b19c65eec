// Durable fleet state: codec round trips, WAL torn-tail/corruption
// semantics, and the crash-recovery property end to end — a store
// rebuilt from snapshot + WAL re-interns firmware artifacts by content
// id, and its hub, which starts with no challenge state, rejects every
// pre-crash frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/store_error.h"
#include "fleet/verifier_hub.h"
#include "helpers.h"
#include "proto/wire.h"
#include "store/codec.h"
#include "store/fleet_store.h"
#include "store/wal.h"
#include "verifier/firmware_artifact.h"

namespace dialed::store {
namespace {

namespace fs = std::filesystem;

using test::build_op;

constexpr const char* adder = "int op(int a, int b) { return a + b; }";
constexpr const char* muler = "int op(int a, int b) { return a * b; }";

byte_vec master_key() { return byte_vec(32, 0x42); }

instr::linked_program prog_for(const char* src) {
  return build_op(src, "op", instr::instrumentation::dialed);
}

proto::invocation args(std::uint16_t a0, std::uint16_t a1 = 0) {
  proto::invocation inv;
  inv.args[0] = a0;
  inv.args[1] = a1;
  return inv;
}

byte_vec frame_for(fleet::device_id id, const fleet::challenge_grant& g,
                   const verifier::attestation_report& rep) {
  proto::frame_info info;
  info.device_id = id;
  info.seq = g.seq;
  return proto::encode_frame(info, rep);
}

/// One fresh round for device `id`: challenge, run the op, submit.
fleet::attest_result fresh_round(fleet_state& st, fleet::device_id id,
                                 std::uint16_t a0, std::uint16_t a1) {
  const auto* rec = st.registry->find(id);
  proto::prover_device dev(*rec->program, rec->key);
  const auto g = st.hub->challenge(id);
  return st.hub->submit(frame_for(id, g, dev.invoke(g.nonce, args(a0, a1))));
}

/// The recovery oracle: every frame from before the crash matches no
/// challenge of the reopened hub, and none of `ids` holds a challenge.
void expect_stale(fleet_state& st, const std::vector<byte_vec>& frames,
                  const std::vector<fleet::device_id>& ids) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(st.hub->submit(frames[i]).error,
              proto::proto_error::stale_nonce)
        << "frame " << i;
  }
  for (const auto id : ids) EXPECT_EQ(st.hub->outstanding(id), 0u) << id;
}

/// Counters are process-local: a freshly opened store's hub reads zero
/// everywhere, whatever its files held.
void expect_zero_counters(const fleet::hub_stats& s) {
  EXPECT_EQ(s.challenges_issued, 0u);
  EXPECT_EQ(s.challenges_expired, 0u);
  EXPECT_EQ(s.challenges_superseded, 0u);
  EXPECT_EQ(s.reports_submitted(), 0u);
  for (const auto& [id, c] : s.per_device) {
    EXPECT_EQ(c.total(), 0u) << "device " << id;
  }
}

/// One round a checked-in store fixture's writer issued: the seq, the
/// nonce (read off the fixture's challenge rows and records by the build
/// that wrote it), and the op inputs the frame is built with.
struct fixture_round {
  std::uint32_t seq = 0;
  fleet::nonce16 nonce{};
  std::uint16_t a0 = 0;
  std::uint16_t a1 = 0;
};

/// tests/fuzz_corpus/store_v2 and store_v3 both accepted two rounds for
/// device 1, the adder: (20, 22) at seq 1 and (7, 8) at seq 2.
const std::vector<fixture_round> v2_v3_rounds = {
    {1,
     {0x7a, 0x97, 0x4b, 0xd9, 0xf5, 0x7b, 0x24, 0x0b, 0x0b, 0xa3, 0xa5,
      0x6c, 0xe4, 0x1d, 0x04, 0xba},
     20,
     22},
    {2,
     {0xac, 0x9f, 0x42, 0x22, 0x17, 0x33, 0x45, 0x17, 0x4b, 0x8b, 0xec,
      0xcb, 0x7c, 0x34, 0x63, 0x4e},
     7,
     8},
};

/// tests/fuzz_corpus/store_v4 issued seven challenges to device 1, the
/// adder, under max_outstanding = 2: seq 1, 4 and 5 consumed by accepted
/// rounds (20, 22), (7, 8) and (30, 12); seq 2 and 3 superseded; seq 6
/// and 7 still outstanding. The unanswered ones get frames on (1, 2).
const std::vector<fixture_round> v4_rounds = {
    {1,
     {0x1c, 0x39, 0x9b, 0x32, 0x9e, 0x77, 0xfc, 0xee, 0x2c, 0xf0, 0xd0,
      0x80, 0xf4, 0xed, 0x32, 0x83},
     20,
     22},
    {2,
     {0x51, 0x4d, 0x53, 0x49, 0x0a, 0x23, 0x6c, 0x7b, 0x7c, 0x9d, 0xce,
      0xc3, 0xf2, 0x1b, 0x5e, 0x67},
     1,
     2},
    {3,
     {0x2d, 0x5c, 0xec, 0x89, 0x55, 0x81, 0x21, 0xf5, 0xb8, 0x2e, 0x29,
      0xff, 0x29, 0xd7, 0x9f, 0xee},
     1,
     2},
    {4,
     {0xcc, 0x17, 0xbb, 0xcf, 0x22, 0x66, 0x18, 0x50, 0x87, 0x5a, 0x2f,
      0x73, 0xf6, 0xf5, 0x84, 0x80},
     7,
     8},
    {5,
     {0x8b, 0x97, 0x0a, 0x79, 0x84, 0x24, 0x9d, 0x9c, 0x2c, 0xa6, 0x2c,
      0x19, 0xe2, 0x44, 0x28, 0x7e},
     30,
     12},
    {6,
     {0x6b, 0x7b, 0x77, 0x41, 0xf5, 0x47, 0xbb, 0x85, 0x51, 0x28, 0x37,
      0x85, 0x01, 0x6e, 0x30, 0xed},
     1,
     2},
    {7,
     {0x54, 0x4f, 0xd6, 0xc2, 0x04, 0x5f, 0x99, 0xdf, 0x61, 0xee, 0xd3,
      0x8b, 0x18, 0x29, 0xe7, 0xef},
     1,
     2},
};

/// The frames device `rec` would have sent for `rounds`.
std::vector<byte_vec> fixture_frames(const fleet::device_record& rec,
                                     const std::vector<fixture_round>& rounds) {
  proto::prover_device dev(*rec.program, rec.key);
  std::vector<byte_vec> frames;
  for (const auto& r : rounds) {
    fleet::challenge_grant g;
    g.seq = r.seq;
    frames.push_back(
        frame_for(rec.id, g, dev.invoke(r.nonce, args(r.a0, r.a1))));
  }
  return frames;
}

/// Copy a checked-in store fixture into `dir`.
void copy_fixture(const char* name, const fs::path& dir) {
  const fs::path fixture = fs::path(DIALED_FUZZ_CORPUS_DIR) / name;
  fs::create_directories(dir);
  for (const char* f : {"snapshot.dls", "wal-1.log"}) {
    fs::copy_file(fixture / f, dir / f);
  }
}

/// Fresh per-test state directory, removed on teardown.
class store_test : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("dialed-store-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fleet_store::options opts() const {
    fleet_store::options o;
    o.master_key = master_key();
    return o;
  }

  std::string dir() const { return dir_.string(); }
  fs::path wal_file(std::uint64_t gen) const {
    return dir_ / ("wal-" + std::to_string(gen) + ".log");
  }
  fs::path snapshot() const { return dir_ / fleet_store::snapshot_file; }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// codec: linked_program round trip
// ---------------------------------------------------------------------------

TEST(store_codec, program_round_trip_preserves_content_id) {
  for (const char* src : {adder, muler}) {
    const auto prog = prog_for(src);
    writer w;
    write_program(w, prog);
    reader r(w.data(), "test");
    const auto back = read_program(r);
    EXPECT_TRUE(r.done());

    // Content id covers image bytes, symbols, layout, memory map and
    // access sites — identical fingerprints mean the verification-
    // relevant state round-tripped byte-identically.
    EXPECT_EQ(verifier::firmware_artifact::fingerprint(prog),
              verifier::firmware_artifact::fingerprint(back));
    // And the parts the fingerprint does not cover survive too.
    EXPECT_EQ(prog.er_asm_text, back.er_asm_text);
    EXPECT_EQ(prog.compile_info.asm_text, back.compile_info.asm_text);
    EXPECT_EQ(prog.compile_info.globals.size(),
              back.compile_info.globals.size());
    EXPECT_EQ(prog.compile_info.functions.size(),
              back.compile_info.functions.size());
    EXPECT_EQ(prog.compile_info.helpers, back.compile_info.helpers);
    EXPECT_EQ(prog.image.listing.size(), back.image.listing.size());
    EXPECT_EQ(prog.options.pass_opts.symbols,
              back.options.pass_opts.symbols);
  }
}

TEST(store_codec, truncated_program_fails_closed) {
  const auto prog = prog_for(adder);
  writer w;
  write_program(w, prog);
  const auto full = w.data();
  // Every strict prefix must throw a typed truncation error, never
  // return a half-parsed program.
  for (const std::size_t cut : {std::size_t{0}, full.size() / 4,
                                full.size() / 2, full.size() - 1}) {
    reader r(std::span<const std::uint8_t>(full).subspan(0, cut), "test");
    try {
      (void)read_program(r);
      FAIL() << "prefix of " << cut << " bytes parsed";
    } catch (const store_error& e) {
      EXPECT_EQ(e.kind(), store_error_kind::truncated_record);
    }
  }
}

TEST(store_codec, crc32_known_vector) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s.data()),
                   s.size()}),
            0xcbf43926u);  // the IEEE 802.3 check value
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(store_wal, records_round_trip_and_torn_tail_drops) {
  const auto path = fs::path(::testing::TempDir()) / "wal-test.log";
  fs::remove(path);
  {
    wal_writer w(path.string(), 0, 0, {});
    w.append(byte_vec{1, 2, 3});
    w.append(byte_vec{4});
    EXPECT_EQ(w.records(), 2u);
  }
  auto data = *[&] {
    std::ifstream in(path, std::ios::binary);
    return std::optional<byte_vec>(
        byte_vec((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>()));
  }();
  const auto clean = read_wal(data);
  ASSERT_EQ(clean.records.size(), 2u);
  EXPECT_FALSE(clean.torn_tail);
  EXPECT_EQ(clean.records[0].payload, (byte_vec{1, 2, 3}));
  EXPECT_EQ(clean.records[1].payload, (byte_vec{4}));

  // Cut anywhere inside the final record: it is dropped, the first
  // survives, and valid_bytes points at the cut boundary.
  for (std::size_t cut = data.size() - 1; cut > 11; --cut) {
    const auto torn =
        read_wal(std::span<const std::uint8_t>(data).subspan(0, cut));
    EXPECT_EQ(torn.records.size(), 1u) << "cut=" << cut;
    EXPECT_TRUE(torn.torn_tail);
    EXPECT_EQ(torn.valid_bytes, 11u);
  }

  // Corrupting the FIRST record (intact bytes follow) is not a torn
  // write — it must fail closed.
  auto corrupt = data;
  corrupt[9] ^= 0xff;  // payload byte of record 0
  try {
    (void)read_wal(corrupt);
    FAIL() << "mid-log corruption loaded";
  } catch (const store_error& e) {
    EXPECT_EQ(e.kind(), store_error_kind::crc_mismatch);
  }

  // The same flip in the LAST record reads as a torn tail (a crash mid
  // write), dropping only that record.
  auto tail_flip = data;
  tail_flip[data.size() - 1] ^= 0xff;
  const auto dropped = read_wal(tail_flip);
  EXPECT_EQ(dropped.records.size(), 1u);
  EXPECT_TRUE(dropped.torn_tail);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// fleet_store: the crash-recovery property, end to end
// ---------------------------------------------------------------------------

TEST_F(store_test, accepted_report_is_replay_after_reopen) {
  byte_vec frame_a;
  fleet::device_id id_a = 0, id_b = 0;
  byte_vec key_a, key_b;
  {
    auto st = fleet_store::open(dir(), opts());
    // Two firmwares — recovery must re-intern BOTH by content id.
    id_a = st.registry->provision(prog_for(adder));
    id_b = st.registry->provision(prog_for(muler));
    key_a = st.registry->find(id_a)->key;
    key_b = st.registry->find(id_b)->key;
    ASSERT_EQ(st.catalog->size(), 2u);

    proto::prover_device dev(*st.registry->find(id_a)->program, key_a);
    const auto g = st.hub->challenge(id_a);
    frame_a = frame_for(id_a, g, dev.invoke(g.nonce, args(20, 22)));
    const auto r = st.hub->submit(frame_a);
    ASSERT_TRUE(r.accepted());
    EXPECT_EQ(r.verdict.replayed_result, 42);
    // The store journaled the registry only (2 firmware + 2 provision).
    // The round costs no record: challenges, counters and delta
    // baselines are all soft state.
    EXPECT_EQ(st.store->wal_records(), 4u);
  }  // "crash": drop every in-memory object

  auto st = fleet_store::open(dir(), opts());
  // Registry and catalog round-tripped: same keys, same shared-artifact
  // structure (one artifact per image, found by content id).
  EXPECT_EQ(st.registry->size(), 2u);
  EXPECT_EQ(st.catalog->size(), 2u);
  EXPECT_EQ(st.registry->find(id_a)->key, key_a);
  EXPECT_EQ(st.registry->find(id_b)->key, key_b);
  EXPECT_EQ(st.registry->find(id_a)->firmware,
            st.catalog->find(st.registry->find(id_a)->firmware->id()));

  // THE property: the frame accepted before the crash is rejected. The
  // restarted hub never issued its nonce, so it is stale.
  const auto replayed = st.hub->submit(frame_a);
  EXPECT_EQ(replayed.error, proto::proto_error::stale_nonce);

  // And the restarted hub still serves fresh rounds on both firmwares.
  for (const auto& [id, a, b, want] :
       {std::tuple{id_a, 20, 22, 42}, std::tuple{id_b, 6, 7, 42}}) {
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    const auto r = st.hub->submit(frame_for(
        id, g,
        dev.invoke(g.nonce, args(static_cast<std::uint16_t>(a),
                                 static_cast<std::uint16_t>(b)))));
    EXPECT_TRUE(r.accepted()) << "device " << id;
    EXPECT_EQ(r.verdict.replayed_result, want);
  }
}

TEST_F(store_test, restart_forgets_delta_baseline) {
  // Wire v2.1 baselines are soft state: accept a DELTA round, kill the
  // process (drop every in-memory object), reopen — on the snapshot path
  // and on the WAL-only path. After the reopen every delta is
  // baseline_mismatch with its challenge kept, the pre-crash round
  // included; the full-frame resend on that challenge is accepted and
  // becomes the new baseline.
  for (const bool snapshot_path : {true, false}) {
    SCOPED_TRACE(snapshot_path ? "snapshot" : "wal-only");
    fs::remove_all(dir_);
    auto o = opts();
    o.compact_on_open = snapshot_path;
    fleet::device_id id = 0;
    std::uint32_t pre_crash_seq = 0;
    byte_vec pre_crash_bytes;
    {
      auto st = fleet_store::open(dir(), o);
      id = st.registry->provision(prog_for(adder));
      proto::prover_device dev(*st.registry->find(id)->program,
                               st.registry->find(id)->key);
      // Round 1: full frame, establishes the baseline.
      const auto g1 = st.hub->challenge(id);
      const auto rep1 = dev.invoke(g1.nonce, args(20, 22));
      ASSERT_TRUE(st.hub->submit(frame_for(id, g1, rep1)).accepted());
      // Round 2: a DELTA round, accepted — its OR is the live baseline.
      const auto g2 = st.hub->challenge(id);
      const auto rep2 = dev.invoke(g2.nonce, args(7, 8));
      proto::frame_info info;
      info.device_id = id;
      info.seq = g2.seq;
      const auto r2 = st.hub->submit(
          proto::encode_delta_frame(info, rep2, g1.seq, rep1.or_bytes));
      ASSERT_TRUE(r2.accepted());
      EXPECT_EQ(r2.verdict.replayed_result, 15);
      pre_crash_seq = g2.seq;
      pre_crash_bytes = rep2.or_bytes;
      if (snapshot_path) st.store->compact();
    }  // "crash"

    auto st = fleet_store::open(dir(), o);
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g3 = st.hub->challenge(id);
    const auto rep3 = dev.invoke(g3.nonce, args(2, 3));
    proto::frame_info info;
    info.device_id = id;
    info.seq = g3.seq;
    // A baseline-DESYNCED delta (stale seq, wrong bytes) is the typed
    // error, not an acceptance — and not a burned nonce.
    const auto desynced = st.hub->submit(proto::encode_delta_frame(
        info, rep3, pre_crash_seq + 17, byte_vec(64, 0xcc)));
    EXPECT_EQ(desynced.error, proto::proto_error::baseline_mismatch);
    EXPECT_EQ(st.hub->outstanding(id), 1u);
    // A delta against the pre-crash round: the restarted hub never held
    // that baseline, so it is the same typed error.
    const auto stale = st.hub->submit(proto::encode_delta_frame(
        info, rep3, pre_crash_seq, pre_crash_bytes));
    EXPECT_EQ(stale.error, proto::proto_error::baseline_mismatch);
    EXPECT_EQ(st.hub->outstanding(id), 1u);  // challenge survived

    // The full resend on the same challenge is accepted...
    const auto full = st.hub->submit(frame_for(id, g3, rep3));
    ASSERT_TRUE(full.accepted());
    EXPECT_EQ(full.verdict.replayed_result, 5);

    // ...and is the new baseline: the next round deltas against it.
    const auto g4 = st.hub->challenge(id);
    const auto rep4 = dev.invoke(g4.nonce, args(30, 12));
    info.seq = g4.seq;
    const auto r4 = st.hub->submit(
        proto::encode_delta_frame(info, rep4, g3.seq, rep3.or_bytes));
    ASSERT_TRUE(r4.accepted());
    EXPECT_EQ(r4.verdict.replayed_result, 42);
  }
}

TEST_F(store_test, v2_store_with_persisted_baselines_loads_and_rewrites_v5) {
  // tests/fuzz_corpus/store_v2 was written by a build that persisted
  // delta baselines, counters and challenges: a v2 snapshot whose one
  // device (id 1, the adder) carries the baseline section for round
  // (20, 22) at seq 1, and a wal-1.log holding round (7, 8) at seq 2 with
  // its challenge, retire, type-7 baseline and type-5 verdict records.
  // Both load; everything but the registry and catalog is checked and
  // dropped.
  copy_fixture("store_v2", dir_);
  ASSERT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version_v2);
  const fleet::device_id id = 1;
  auto o = opts();
  o.compact_on_open = false;
  std::vector<byte_vec> pre_crash;
  {
    auto st = fleet_store::open(dir(), o);
    ASSERT_EQ(st.registry->size(), 1u);
    ASSERT_NE(st.registry->find(id), nullptr);
    expect_zero_counters(st.hub->stats());

    // The two rounds the old build accepted are rejected.
    pre_crash = fixture_frames(*st.registry->find(id), v2_v3_rounds);
    expect_stale(st, pre_crash, {id});
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);

    const auto g = st.hub->challenge(id);
    EXPECT_EQ(g.seq, 1u);  // seq is soft state too
    // Same inputs as the persisted round 2, so the same OR bytes: a delta
    // against the baseline the old build journaled.
    const auto rep = dev.invoke(g.nonce, args(7, 8));
    proto::frame_info info;
    info.device_id = id;
    info.seq = g.seq;
    const auto delta = st.hub->submit(
        proto::encode_delta_frame(info, rep, 2, rep.or_bytes));
    EXPECT_EQ(delta.error, proto::proto_error::baseline_mismatch);
    EXPECT_EQ(st.hub->outstanding(id), 1u);

    pre_crash.push_back(frame_for(id, g, rep));
    const auto full = st.hub->submit(pre_crash.back());
    ASSERT_TRUE(full.accepted());
    EXPECT_EQ(full.verdict.replayed_result, 15);
    EXPECT_EQ(full.verdict.replay, verifier::replay_path::replayed);
    st.store->compact();
  }
  EXPECT_EQ(snapshot_version, 5u);
  EXPECT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version);
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.registry->size(), 1u);
  expect_stale(st, pre_crash, {id});
  EXPECT_TRUE(fresh_round(st, id, 1, 2).accepted());
}

TEST_F(store_test, v3_store_with_persisted_counters_loads_and_rewrites_v5) {
  // tests/fuzz_corpus/store_v3 was written by a build that journaled
  // stats counters and challenges: a v3 snapshot whose counters are
  // nonzero (round (20, 22) accepted at seq 1 for device 1, the adder,
  // then replayed once) and a wal-1.log holding round (7, 8) at seq 2 as
  // challenge, retire and type-5 verdict records. The counter sections,
  // the challenge rows and the records are checked and dropped.
  copy_fixture("store_v3", dir_);
  ASSERT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version_v3);
  const fleet::device_id id = 1;
  auto o = opts();
  o.compact_on_open = false;
  std::vector<byte_vec> pre_crash;
  {
    auto st = fleet_store::open(dir(), o);
    ASSERT_EQ(st.registry->size(), 1u);
    ASSERT_NE(st.registry->find(id), nullptr);
    expect_zero_counters(st.hub->stats());

    pre_crash = fixture_frames(*st.registry->find(id), v2_v3_rounds);
    expect_stale(st, pre_crash, {id});
    // Only this process's rejections count.
    const auto s = st.hub->stats();
    EXPECT_EQ(s.rejected_by_error[static_cast<std::size_t>(
                  proto::proto_error::stale_nonce)],
              2u);
    EXPECT_EQ(s.reports_accepted, 0u);

    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    EXPECT_EQ(g.seq, 1u);
    pre_crash.push_back(
        frame_for(id, g, dev.invoke(g.nonce, args(30, 12))));
    const auto r = st.hub->submit(pre_crash.back());
    ASSERT_TRUE(r.accepted());
    EXPECT_EQ(r.verdict.replayed_result, 42);
    st.store->compact();
  }
  EXPECT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version);
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.registry->size(), 1u);
  expect_zero_counters(st.hub->stats());
  expect_stale(st, pre_crash, {id});
  EXPECT_TRUE(fresh_round(st, id, 1, 2).accepted());
}

TEST_F(store_test, v4_store_with_persisted_challenges_loads_and_rewrites_v5) {
  // tests/fuzz_corpus/store_v4 was written by the last build that
  // journaled challenges (hub seed 22, max_outstanding 2): a v4 snapshot
  // holding device 1's consumed, superseded and outstanding nonces and
  // the hub clock, and a wal-1.log holding tick, challenge and retire
  // records (see v4_rounds). The challenge rows, the clock and records
  // of types 3, 4 and 6 are checked and dropped.
  copy_fixture("store_v4", dir_);
  ASSERT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version_v4);
  {
    const auto wal = read_wal(*read_file(dir_ / "wal-1.log"));
    std::set<std::uint8_t> types;
    for (const auto& r : wal.records) types.insert(r.payload.at(0));
    EXPECT_EQ(types, (std::set<std::uint8_t>{
                         static_cast<std::uint8_t>(rec::challenge),
                         static_cast<std::uint8_t>(rec::retire),
                         static_cast<std::uint8_t>(rec::tick)}));
  }
  const fleet::device_id id = 1;
  auto o = opts();
  o.hub.seed = 22;  // the writer's seed: the epoch must still separate
  o.compact_on_open = false;
  std::vector<byte_vec> pre_crash;
  {
    auto st = fleet_store::open(dir(), o);
    ASSERT_EQ(st.registry->size(), 1u);
    ASSERT_NE(st.registry->find(id), nullptr);
    EXPECT_EQ(st.hub->now(), 0u);
    EXPECT_EQ(st.hub->outstanding(id), 0u);
    pre_crash = fixture_frames(*st.registry->find(id), v4_rounds);
    // Every pre-crash frame is rejected, even with the reopened hub's
    // own challenge for the frame's seq outstanding.
    for (std::size_t i = 0; i < pre_crash.size(); ++i) {
      const auto g = st.hub->challenge(id);
      ASSERT_EQ(g.seq, v4_rounds[i].seq);
      EXPECT_NE(g.nonce, v4_rounds[i].nonce) << "seq " << g.seq;
      EXPECT_EQ(st.hub->submit(pre_crash[i]).error,
                proto::proto_error::stale_nonce)
          << "seq " << v4_rounds[i].seq;
    }
    EXPECT_EQ(st.hub->outstanding(id), pre_crash.size());
    EXPECT_TRUE(fresh_round(st, id, 20, 22).accepted());
    st.store->compact();
  }
  EXPECT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version);
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.registry->size(), 1u);
  expect_stale(st, pre_crash, {id});
  EXPECT_TRUE(fresh_round(st, id, 1, 2).accepted());
}

TEST_F(store_test, auto_provision_after_reopen_never_reuses_ids) {
  fleet::device_id first = 0;
  {
    auto st = fleet_store::open(dir(), opts());
    first = st.registry->provision(prog_for(adder));
  }
  auto st = fleet_store::open(dir(), opts());
  const auto second = st.registry->provision(prog_for(adder));
  EXPECT_GT(second, first);
  EXPECT_EQ(st.catalog->size(), 1u);  // re-interned, not duplicated
}

TEST_F(store_test, kill_after_k_wal_records_recovers_prefix_state) {
  // Build a history, then replay every WAL prefix as its own "crash".
  auto o = opts();
  o.compact_on_open = false;  // keep the whole history in the WAL
  fleet::device_id id = 0;
  byte_vec frame;
  {
    auto st = fleet_store::open(dir(), o);
    id = st.registry->provision(prog_for(adder));
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    frame = frame_for(id, g, dev.invoke(g.nonce, args(20, 22)));
    ASSERT_TRUE(st.hub->submit(frame).accepted());
    ASSERT_EQ(st.store->wal_records(), 3u);
  }
  const auto full = [&] {
    std::ifstream in(wal_file(0), std::ios::binary);
    return byte_vec((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }();

  // Record boundaries from the framing itself.
  const auto parsed = read_wal(full);
  ASSERT_EQ(parsed.records.size(), 3u);
  std::vector<std::size_t> ends;
  std::size_t pos = 0;
  for (const auto& rec : parsed.records) {
    pos += 8 + rec.payload.size();
    ends.push_back(pos);
  }

  // Records: [boot, firmware, provision]. The frame's fate in each
  // prefix: no device yet, then a device whose pre-crash challenge the
  // reopened hub never issued.
  for (std::size_t k = 0; k <= 3; ++k) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const std::size_t bytes = k == 0 ? 0 : ends[k - 1];
    std::ofstream out(wal_file(0), std::ios::binary);
    out.write(reinterpret_cast<const char*>(full.data()),
              static_cast<std::streamsize>(bytes));
    out.close();

    auto st = fleet_store::open(dir(), o);
    EXPECT_EQ(st.registry->size(), k >= 3 ? 1u : 0u) << "k=" << k;
    EXPECT_EQ(st.catalog->size(), k >= 2 ? 1u : 0u) << "k=" << k;
    expect_zero_counters(st.hub->stats());
    EXPECT_EQ(st.hub->outstanding(id), 0u) << "k=" << k;
    EXPECT_EQ(st.hub->submit(frame).error,
              k >= 3 ? proto::proto_error::stale_nonce
                     : proto::proto_error::unknown_device)
        << "k=" << k;
    if (k >= 3) {
      const auto fresh = fresh_round(st, id, 6, 7);
      EXPECT_TRUE(fresh.accepted()) << "k=" << k;
      EXPECT_EQ(fresh.verdict.replayed_result, 13) << "k=" << k;
    }
  }
}

TEST_F(store_test, torn_final_wal_record_is_dropped_cleanly) {
  auto o = opts();
  o.compact_on_open = false;
  fleet::device_id id = 0;
  {
    auto st = fleet_store::open(dir(), o);
    id = st.registry->provision(prog_for(adder));
    ASSERT_EQ(st.store->wal_records(), 3u);  // boot, firmware, provision
  }
  // Tear the provision record: chop the last byte off the file.
  const auto before = fs::file_size(wal_file(0));
  fs::resize_file(wal_file(0), before - 1);

  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.catalog->size(), 1u);
  EXPECT_EQ(st.registry->size(), 0u);  // the torn provision never happened
  // The torn bytes were truncated away; the log keeps appending cleanly
  // from the cut (2 surviving records + this open's boot record + the
  // provision again, on the firmware already journaled).
  EXPECT_EQ(st.registry->provision(id, prog_for(adder)), id);
  EXPECT_EQ(st.store->wal_records(), 4u);
  EXPECT_TRUE(fresh_round(st, id, 1, 2).accepted());
}

TEST_F(store_test, zero_filled_wal_tail_reads_as_torn) {
  // Power loss can extend a file with zero blocks that were never
  // written; crc32("") == 0, so an all-zero "record" passes its CRC —
  // it must still be recognized as a torn tail, not loaded or fatal.
  auto o = opts();
  o.compact_on_open = false;
  fleet::device_id id = 0;
  {
    auto st = fleet_store::open(dir(), o);
    id = st.registry->provision(prog_for(adder));
  }
  {
    std::ofstream f(wal_file(0),
                    std::ios::binary | std::ios::app);
    const byte_vec zeros(64, 0);
    f.write(reinterpret_cast<const char*>(zeros.data()),
            static_cast<std::streamsize>(zeros.size()));
  }
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.registry->size(), 1u);
  EXPECT_NE(st.registry->find(id), nullptr);
  // But zeros with REAL data after them are corruption, not a tear.
  byte_vec bad(16, 0);
  bad[12] = 0xab;
  {
    std::ofstream f(wal_file(0),
                    std::ios::binary | std::ios::app);
    f.write(reinterpret_cast<const char*>(bad.data()),
            static_cast<std::streamsize>(bad.size()));
  }
  try {
    (void)fleet_store::open(dir(), o);
    FAIL() << "zeros followed by data loaded";
  } catch (const store_error& e) {
    EXPECT_EQ(e.kind(), store_error_kind::bad_record);
  }
}

TEST_F(store_test, corrupt_state_fails_closed_with_typed_errors) {
  {
    auto st = fleet_store::open(dir(), opts());
    (void)st.registry->provision(prog_for(adder));
    st.store->compact();  // ensure a snapshot exists
  }

  // CRC corruption in the snapshot body (XOR, so the byte always
  // actually changes).
  {
    std::fstream f(snapshot(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(64);
    const int b = f.get();
    f.seekp(64);
    f.put(static_cast<char>(b ^ 0xff));
  }
  try {
    (void)fleet_store::open(dir(), opts());
    FAIL() << "corrupt snapshot loaded";
  } catch (const store_error& e) {
    EXPECT_EQ(e.kind(), store_error_kind::crc_mismatch);
  }

  // Bad magic.
  {
    std::ofstream f(snapshot(), std::ios::binary);
    f << "NOPE this is not a snapshot";
  }
  try {
    (void)fleet_store::open(dir(), opts());
    FAIL() << "bad magic loaded";
  } catch (const store_error& e) {
    EXPECT_EQ(e.kind(), store_error_kind::bad_magic);
  }

  // A future version, and the retired v1: refuse, do not guess.
  {
    auto st = fleet_store::open(dir() + "-v2", opts());
    st.store->compact();
  }
  const auto pristine = *read_file(fs::path(dir() + "-v2") /
                                   fleet_store::snapshot_file);
  for (const std::uint8_t version : {std::uint8_t{0x63}, std::uint8_t{1}}) {
    auto data = pristine;
    data[4] = version;  // version byte
    store_le32(data, data.size() - 4,
               crc32(std::span(data).subspan(0, data.size() - 4)));
    write_file_atomic(snapshot(), data);
    try {
      (void)fleet_store::open(dir(), opts());
      FAIL() << "snapshot version " << int{version} << " loaded";
    } catch (const store_error& e) {
      EXPECT_EQ(e.kind(), store_error_kind::bad_version);
    }
  }
  fs::remove_all(dir() + "-v2");
}

TEST_F(store_test, master_key_mismatch_is_rejected) {
  {
    auto st = fleet_store::open(dir(), opts());
    (void)st.registry->provision(prog_for(adder));
  }
  auto wrong = opts();
  wrong.master_key = byte_vec(32, 0x13);
  try {
    (void)fleet_store::open(dir(), wrong);
    FAIL() << "wrong master key accepted";
  } catch (const store_error& e) {
    EXPECT_EQ(e.kind(), store_error_kind::master_key_mismatch);
  }
  // Empty key on reopen = "use the persisted one".
  auto inherit = opts();
  inherit.master_key.clear();
  auto st = fleet_store::open(dir(), inherit);
  EXPECT_EQ(st.registry->master_key(), master_key());
}

TEST_F(store_test, counters_restart_at_zero_after_reopen) {
  fleet::device_id id = 0;
  byte_vec frame;
  byte_vec stale;
  {
    auto st = fleet_store::open(dir(), opts());
    id = st.registry->provision(prog_for(adder));
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    frame = frame_for(id, g, dev.invoke(g.nonce, args(1, 2)));
    ASSERT_TRUE(st.hub->submit(frame).accepted());
    // A replay and a stale nonce, for the reject counters.
    EXPECT_EQ(st.hub->submit(frame).error,
              proto::proto_error::replayed_report);
    auto rep = dev.invoke(g.nonce, args(1, 2));
    rep.challenge[0] ^= 0xff;
    stale = frame_for(id, g, rep);
    EXPECT_EQ(st.hub->submit(stale).error, proto::proto_error::stale_nonce);

    const auto s = st.hub->stats();
    ASSERT_EQ(s.per_device.count(id), 1u);
    EXPECT_EQ(s.per_device.at(id).accepted, 1u);
    EXPECT_EQ(s.per_device.at(id).replayed, 1u);
    EXPECT_EQ(s.per_device.at(id).rejected_protocol, 1u);
  }
  auto st = fleet_store::open(dir(), opts());
  // The counters did not survive, and neither did the challenge: both
  // pre-crash frames are stale to the reopened hub.
  expect_zero_counters(st.hub->stats());
  EXPECT_EQ(st.hub->submit(frame).error, proto::proto_error::stale_nonce);
  EXPECT_EQ(st.hub->submit(stale).error, proto::proto_error::stale_nonce);
  EXPECT_TRUE(fresh_round(st, id, 3, 4).accepted());

  // From here the counters count this process only.
  const auto s = st.hub->stats();
  ASSERT_EQ(s.per_device.count(id), 1u);
  EXPECT_EQ(s.per_device.at(id).accepted, 1u);
  EXPECT_EQ(s.per_device.at(id).replayed, 0u);
  EXPECT_EQ(s.per_device.at(id).rejected_protocol, 2u);
  EXPECT_EQ(s.reports_accepted, 1u);
  EXPECT_EQ(s.challenges_issued, 1u);
  EXPECT_EQ(s.rejected_by_error[static_cast<std::size_t>(
                proto::proto_error::stale_nonce)],
            2u);
}

TEST_F(store_test, fixed_seed_nonces_never_repeat_across_reopen) {
  // Nonces are a PRF of (device, seq) under the hub key; a pinned seed
  // gives every reopen the same key, so freshness rests on seq being
  // restored. Issue k challenges (answering every other one), reopen on
  // the snapshot path and on the WAL-only path, issue k more: all 2k
  // nonces differ.
  constexpr int k = 6;
  for (const bool snapshot_path : {true, false}) {
    SCOPED_TRACE(snapshot_path ? "snapshot" : "wal-only");
    fs::remove_all(dir_);
    auto o = opts();
    o.hub.seed = 7;
    o.hub.max_outstanding = 2 * k;
    o.compact_on_open = snapshot_path;
    std::set<fleet::nonce16> nonces;
    fleet::device_id id = 0;
    {
      auto st = fleet_store::open(dir(), o);
      id = st.registry->provision(prog_for(adder));
      proto::prover_device dev(*st.registry->find(id)->program,
                               st.registry->find(id)->key);
      for (int i = 0; i < k; ++i) {
        const auto g = st.hub->challenge(id);
        nonces.insert(g.nonce);
        if (i % 2 == 0) {
          ASSERT_TRUE(
              st.hub->submit(frame_for(id, g, dev.invoke(g.nonce, args(1))))
                  .accepted());
        }
      }
      if (snapshot_path) {
        st.store->compact();
        EXPECT_EQ(st.store->wal_records(), 0u);
      }
    }  // "crash"
    auto st = fleet_store::open(dir(), o);
    EXPECT_EQ(st.hub->outstanding(id), 0u);  // challenges are soft state
    for (int i = 0; i < k; ++i) nonces.insert(st.hub->challenge(id).nonce);
    EXPECT_EQ(nonces.size(), static_cast<std::size_t>(2 * k));
  }
}

TEST_F(store_test, made_up_nonces_cost_no_journal_records) {
  // A frame that names a provisioned device but matches no challenge
  // never reaches the MAC check. It is counted in memory and costs the
  // journal nothing: no record, no byte, nothing shipped.
  auto o = opts();
  o.compact_on_open = false;
  auto st = fleet_store::open(dir(), o);
  const auto id = st.registry->provision(prog_for(adder));
  proto::prover_device dev(*st.registry->find(id)->program,
                           st.registry->find(id)->key);
  const auto g = st.hub->challenge(id);
  auto rep = dev.invoke(g.nonce, args(1, 2));
  const auto records = st.store->wal_records();
  const auto bytes = st.store->wal_bytes();
  constexpr std::uint32_t frames = 1000;
  for (std::uint32_t i = 0; i < frames; ++i) {
    rep.challenge.fill(0xa5);
    for (std::size_t b = 0; b < 4; ++b) {
      rep.challenge[b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    ASSERT_EQ(st.hub->submit(frame_for(id, g, rep)).error,
              proto::proto_error::stale_nonce);
  }
  EXPECT_EQ(st.store->wal_records(), records);
  EXPECT_EQ(st.store->wal_bytes(), bytes);
  const auto s = st.hub->stats();
  EXPECT_EQ(s.rejected_by_error[static_cast<std::size_t>(
                proto::proto_error::stale_nonce)],
            frames);
  EXPECT_EQ(s.per_device.at(id).rejected_protocol, frames);
  EXPECT_EQ(st.hub->outstanding(id), 1u);  // the real challenge is intact
}

TEST_F(store_test, compaction_preserves_state_and_resets_wal) {
  fleet::device_id id = 0;
  fleet::device_id late = 0;
  std::vector<byte_vec> pre_crash;
  {
    auto st = fleet_store::open(dir(), opts());
    id = st.registry->provision(prog_for(adder));
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    pre_crash.push_back(frame_for(id, g, dev.invoke(g.nonce, args(20, 22))));
    ASSERT_TRUE(st.hub->submit(pre_crash.back()).accepted());

    const auto gen_before = st.store->generation();
    st.store->compact();
    EXPECT_EQ(st.store->wal_records(), 0u);
    EXPECT_EQ(st.store->generation(), gen_before + 1);
    EXPECT_FALSE(fs::exists(wal_file(gen_before)));

    // A grant costs no record; a provision lands in the new generation.
    const auto pending = st.hub->challenge(id);
    pre_crash.push_back(
        frame_for(id, pending, dev.invoke(pending.nonce, args(6, 7))));
    EXPECT_EQ(st.store->wal_records(), 0u);
    late = st.registry->provision(prog_for(muler));
    EXPECT_EQ(st.store->wal_records(), 2u);  // firmware + provision
  }
  auto st = fleet_store::open(dir(), opts());
  EXPECT_EQ(st.registry->size(), 2u);
  EXPECT_EQ(st.catalog->size(), 2u);
  // The accepted frame and the answer to the still-pending grant are
  // both stale to the reopened hub.
  expect_stale(st, pre_crash, {id});
  const auto r = fresh_round(st, late, 6, 7);
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 42);
}

TEST_F(store_test, interrupted_compaction_chain_replays_both_logs) {
  // An online compaction that crashes between rolling the log and
  // publishing the snapshot leaves wal-G AND wal-(G+1), both live.
  // Simulate that layout by splitting a real log at a record boundary.
  auto o = opts();
  o.compact_on_open = false;
  fleet::device_id id = 0, id2 = 0;
  byte_vec frame;
  {
    auto st = fleet_store::open(dir(), o);
    id = st.registry->provision(prog_for(adder));
    id2 = st.registry->provision(prog_for(adder));
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    frame = frame_for(id, g, dev.invoke(g.nonce, args(20, 22)));
    ASSERT_TRUE(st.hub->submit(frame).accepted());
    // boot, firmware, provision, provision
    ASSERT_EQ(st.store->wal_records(), 4u);
  }
  const auto bytes = *read_file(wal_file(0));
  const auto parsed = read_wal(bytes);
  ASSERT_EQ(parsed.records.size(), 4u);
  const auto rewrite = [&](std::uint64_t gen, std::size_t from,
                           std::size_t to) {
    fs::remove(wal_file(gen));
    wal_writer w(wal_file(gen).string(), 0, 0, {});
    for (std::size_t i = from; i < to; ++i) {
      w.append(parsed.records[i].payload);
    }
  };
  rewrite(0, 0, 3);
  rewrite(1, 3, 4);

  {
    // The chain replays in order: full pre-crash registry, generation
    // advanced to the newest log, new appends land there.
    auto st = fleet_store::open(dir(), o);
    EXPECT_EQ(st.store->generation(), 1u);
    EXPECT_EQ(st.registry->size(), 2u);
    ASSERT_NE(st.registry->find(id2), nullptr);
    EXPECT_EQ(st.hub->submit(frame).error, proto::proto_error::stale_nonce);
    // 1 replayed in wal-1 + this open's boot record; neither the grant
    // nor the rejection is journaled.
    (void)st.hub->challenge(id);
    EXPECT_EQ(st.store->wal_records(), 2u);
  }

  // compact_on_open folds a multi-file chain back into one snapshot +
  // one fresh log even when the tail generation alone looks compact.
  rewrite(0, 0, 3);
  rewrite(1, 3, 4);
  {
    auto st = fleet_store::open(dir(), opts());
    EXPECT_EQ(st.store->generation(), 2u);
    EXPECT_EQ(st.store->wal_records(), 0u);
    EXPECT_FALSE(fs::exists(wal_file(0)));
    EXPECT_FALSE(fs::exists(wal_file(1)));
    EXPECT_EQ(st.registry->size(), 2u);
    EXPECT_EQ(st.hub->submit(frame).error, proto::proto_error::stale_nonce);
  }
}

TEST_F(store_test, damaged_wal_chain_fails_closed) {
  // Same split-chain layout, then damage it: only the NEWEST generation
  // may end torn — a torn or missing log with a successor was complete
  // once, so the damage is corruption, not a crash signature.
  auto o = opts();
  o.compact_on_open = false;
  {
    auto st = fleet_store::open(dir(), o);
    (void)st.registry->provision(prog_for(adder));
    (void)st.registry->provision(prog_for(adder));
    ASSERT_EQ(st.store->wal_records(), 4u);
  }
  const auto bytes = *read_file(wal_file(0));
  const auto parsed = read_wal(bytes);
  const auto rewrite = [&](std::uint64_t gen, std::size_t from,
                           std::size_t to) {
    fs::remove(wal_file(gen));
    wal_writer w(wal_file(gen).string(), 0, 0, {});
    for (std::size_t i = from; i < to; ++i) {
      w.append(parsed.records[i].payload);
    }
  };

  // Torn mid-chain: truncate wal-0's final record while wal-1 exists.
  rewrite(0, 0, 3);
  rewrite(1, 3, 4);
  fs::resize_file(wal_file(0), fs::file_size(wal_file(0)) - 1);
  try {
    auto st = fleet_store::open(dir(), o);
    FAIL() << "torn mid-chain log loaded";
  } catch (const store_error& e) {
    EXPECT_EQ(e.kind(), store_error_kind::crc_mismatch);
  }

  // Missing mid-chain: wal-1 exists but wal-0 is gone entirely.
  fs::remove(wal_file(0));
  try {
    auto st = fleet_store::open(dir(), o);
    FAIL() << "gapped chain loaded";
  } catch (const store_error& e) {
    EXPECT_EQ(e.kind(), store_error_kind::crc_mismatch);
  }
}

TEST_F(store_test, concurrent_traffic_journals_consistently) {
  // Four devices hammered from four threads. No round journals anything,
  // so the log does not move; the reopened hub rejects every pre-crash
  // frame and every device still attests.
  auto o = opts();
  o.hub.max_outstanding = 64;
  constexpr int kthreads = 4;
  constexpr int kiters = 6;
  std::vector<fleet::device_id> ids;
  std::vector<std::vector<byte_vec>> frames(kthreads);
  {
    auto st = fleet_store::open(dir(), o);
    for (int t = 0; t < kthreads; ++t) {
      ids.push_back(st.registry->provision(prog_for(adder)));
    }
    const auto records = st.store->wal_records();
    std::vector<std::thread> threads;
    for (int t = 0; t < kthreads; ++t) {
      threads.emplace_back([&, t] {
        const auto id = ids[static_cast<std::size_t>(t)];
        proto::prover_device dev(*st.registry->find(id)->program,
                                 st.registry->find(id)->key);
        for (int i = 0; i < kiters; ++i) {
          const auto g = st.hub->challenge(id);
          auto frame =
              frame_for(id, g, dev.invoke(g.nonce, args(1, 2)));
          ASSERT_TRUE(st.hub->submit(frame).accepted());
          frames[static_cast<std::size_t>(t)].push_back(std::move(frame));
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(st.hub->stats().reports_accepted,
              static_cast<std::uint64_t>(kthreads * kiters));
    EXPECT_EQ(st.store->wal_records(), records);
  }
  auto st = fleet_store::open(dir(), o);
  for (int t = 0; t < kthreads; ++t) {
    const auto& f = frames[static_cast<std::size_t>(t)];
    ASSERT_EQ(f.size(), static_cast<std::size_t>(kiters));
    expect_stale(st, f, {ids[static_cast<std::size_t>(t)]});
  }
  for (const auto id : ids) {
    EXPECT_TRUE(fresh_round(st, id, 3, 4).accepted()) << id;
  }
}

TEST_F(store_test, enrolled_devices_keep_their_external_keys) {
  fleet::device_id id = 0;
  const byte_vec psk(32, 0x99);
  {
    auto st = fleet_store::open(dir(), opts());
    id = st.registry->enroll(prog_for(adder), psk);
  }
  auto st = fleet_store::open(dir(), opts());
  ASSERT_NE(st.registry->find(id), nullptr);
  EXPECT_EQ(st.registry->find(id)->key, psk);
  // The restored key is NOT the KDF key — exactly why key material is
  // persisted rather than re-derived.
  EXPECT_NE(st.registry->find(id)->key, st.registry->derive_key(id));
}

// ---------------------------------------------------------------------------
// wal_writer sync policies
// ---------------------------------------------------------------------------

class wal_sync_test : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::path(::testing::TempDir()) /
            ("dialed-wal-sync-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             ".log");
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }

  static wal_options with(wal_sync s) {
    wal_options o;
    o.sync = s;
    return o;
  }

  fs::path path_;
};

TEST_F(wal_sync_test, per_record_is_durable_at_append_return) {
  wal_writer w(path_.string(), 0, 0, with(wal_sync::per_record));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    w.append(byte_vec{static_cast<std::uint8_t>(i)});
    // Every append fsynced inline: one batch of one record each.
    EXPECT_EQ(w.sync_stats().syncs, i);
  }
  const auto s = w.sync_stats();
  EXPECT_EQ(s.syncs, 5u);
  EXPECT_EQ(s.records, 5u);
}

TEST_F(wal_sync_test, none_never_fsyncs_but_reports_covered) {
  wal_writer w(path_.string(), 0, 0, with(wal_sync::none));
  for (std::uint64_t i = 1; i <= 4; ++i) w.append(byte_vec{7});
  // `none` treats flush-to-OS as its durability ceiling: the records are
  // in the file, and the counters stay zero.
  EXPECT_EQ(w.records(), 4u);
  EXPECT_EQ(read_wal(*read_file(path_)).records.size(), 4u);
  const auto s = w.sync_stats();
  EXPECT_EQ(s.syncs, 0u);
  EXPECT_EQ(s.records, 0u);
}

// ---------------------------------------------------------------------------
// Challenges are soft state: nothing on the report path touches the store
// ---------------------------------------------------------------------------

TEST_F(store_test, pre_crash_frames_are_stale_after_reopen) {
  // Pre-crash frames of every kind — consumed by an accepted round,
  // superseded by capacity, still outstanding — after a reopen on the
  // snapshot path and on the WAL-only path, under the default key and a
  // pinned seed. Each is submitted while the reopened hub holds its own
  // outstanding challenge for the frame's seq, so a key that repeated
  // across the reopen would be caught accepting it. And no round costs
  // a journal record.
  for (const bool snapshot_path : {true, false}) {
    for (const bool pinned : {false, true}) {
      SCOPED_TRACE(std::string(snapshot_path ? "snapshot" : "wal-only") +
                   (pinned ? ", pinned seed" : ", default key"));
      fs::remove_all(dir_);
      auto o = opts();
      o.compact_on_open = snapshot_path;
      o.hub.max_outstanding = 2;
      if (pinned) o.hub.seed = 7;
      fleet::device_id id = 0;
      std::vector<fleet::challenge_grant> grants;
      std::vector<byte_vec> pre_crash;
      {
        auto st = fleet_store::open(dir(), o);
        id = st.registry->provision(prog_for(adder));
        proto::prover_device dev(*st.registry->find(id)->program,
                                 st.registry->find(id)->key);
        for (int i = 0; i < 4; ++i) {
          grants.push_back(st.hub->challenge(id));
          pre_crash.push_back(frame_for(
              id, grants.back(), dev.invoke(grants.back().nonce, args(1, 2))));
          if (i == 0) {
            ASSERT_TRUE(st.hub->submit(pre_crash[0]).accepted());
          }
        }
        // seq 1 consumed, seq 2 superseded by seq 4, seq 3 and 4
        // outstanding.
        EXPECT_EQ(grants[3].note, proto::proto_error::challenge_superseded);
        EXPECT_EQ(st.hub->outstanding(id), 2u);
        if (snapshot_path) st.store->compact();
      }  // "crash"

      auto st = fleet_store::open(dir(), o);
      EXPECT_EQ(st.hub->outstanding(id), 0u);
      for (std::size_t i = 0; i < pre_crash.size(); ++i) {
        const auto g = st.hub->challenge(id);
        ASSERT_EQ(g.seq, grants[i].seq);
        EXPECT_NE(g.nonce, grants[i].nonce) << "seq " << g.seq;
        EXPECT_EQ(st.hub->submit(pre_crash[i]).error,
                  proto::proto_error::stale_nonce)
            << "seq " << grants[i].seq;
      }
      const auto records = st.store->wal_records();
      const auto bytes = st.store->wal_bytes();
      for (std::uint16_t i = 0; i < 100; ++i) {
        ASSERT_TRUE(fresh_round(st, id, i, 1).accepted()) << i;
      }
      EXPECT_EQ(st.store->wal_records(), records);
      EXPECT_EQ(st.store->wal_bytes(), bytes);
    }
  }
}

TEST_F(store_test, boot_epoch_is_durable_before_the_first_grant) {
  // Every open() bumps the epoch: a fresh directory carries it in the
  // open-time snapshot (no WAL record); a reopen that does not compact
  // journals one boot record; the next reopen folds that into a new
  // snapshot.
  const auto epoch_on_disk = [&] {
    auto img = parse_snapshot(*read_file(snapshot()), "snapshot");
    if (const auto wal = read_file(wal_file(img.wal_generation))) {
      const auto parsed = read_wal(*wal);
      for (std::size_t i = 0; i < parsed.records.size(); ++i) {
        apply_record(img, parsed.records[i].payload, i);
      }
    }
    return img.boot_epoch;
  };
  {
    auto st = fleet_store::open(dir(), opts());
    EXPECT_EQ(st.store->wal_records(), 0u);
    EXPECT_EQ(epoch_on_disk(), 1u);
  }
  {
    auto st = fleet_store::open(dir(), opts());
    EXPECT_EQ(st.store->wal_records(), 1u);  // the boot record
    EXPECT_EQ(epoch_on_disk(), 2u);
  }
  {
    auto st = fleet_store::open(dir(), opts());
    EXPECT_EQ(st.store->wal_records(), 0u);  // folded into the snapshot
    EXPECT_EQ(epoch_on_disk(), 3u);
  }
}

TEST(store_records, older_builds_challenge_records_are_checked_then_dropped) {
  // Types 3 (challenge), 4 (retire) and 6 (tick) are no longer written;
  // replay checks their structure and drops them.
  state_image img;
  const auto fw = prog_for(adder);
  const auto fid = verifier::firmware_artifact::fingerprint(fw);
  {
    writer w;
    w.u8(static_cast<std::uint8_t>(rec::firmware));
    w.raw(fid);
    writer pw;
    write_program(pw, fw);
    w.bytes(pw.data());
    apply_record(img, w.data(), 0);
    writer d;
    d.u8(static_cast<std::uint8_t>(rec::provision));
    d.u32(1);
    d.bytes(byte_vec(32, 0x11));
    d.raw(fid);
    apply_record(img, d.data(), 1);
  }
  const auto challenge = [](fleet::device_id id) {
    writer w;
    w.u8(static_cast<std::uint8_t>(rec::challenge));
    w.u32(id);
    w.u32(1);
    w.raw(fleet::nonce16{});
    w.u64(0);
    return w.take();
  };
  const auto retire = [](fleet::device_id id, std::uint8_t fate) {
    writer w;
    w.u8(static_cast<std::uint8_t>(rec::retire));
    w.u32(id);
    w.raw(fleet::nonce16{});
    w.u8(fate);
    return w.take();
  };
  writer tick;
  tick.u8(static_cast<std::uint8_t>(rec::tick));
  tick.u64(9);
  // A retire whose nonce was never issued is fine now: nothing is kept
  // to match it against.
  for (const auto& ok : {challenge(1), retire(1, 0), retire(1, 2),
                         tick.data()}) {
    EXPECT_NO_THROW(apply_record(img, ok, 2));
  }
  EXPECT_EQ(img.devices.size(), 1u);
  EXPECT_EQ(img.boot_epoch, 0u);

  auto trailing = challenge(1);
  trailing.push_back(0);
  auto short_tick = tick.take();
  short_tick.pop_back();
  const std::pair<byte_vec, store_error_kind> bad[] = {
      {challenge(2), store_error_kind::bad_record},  // unprovisioned
      {retire(2, 0), store_error_kind::bad_record},  // unprovisioned
      {retire(1, 3), store_error_kind::bad_record},  // no such fate
      {trailing, store_error_kind::bad_record},
      {short_tick, store_error_kind::truncated_record},
  };
  for (const auto& [payload, kind] : bad) {
    try {
      apply_record(img, payload, 3);
      ADD_FAILURE() << "record of type " << int{payload[0]} << " loaded";
    } catch (const store_error& e) {
      EXPECT_EQ(e.kind(), kind) << e.what();
    }
  }
}

}  // namespace
}  // namespace dialed::store
