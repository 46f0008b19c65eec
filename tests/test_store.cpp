// Durable fleet state: codec round trips, WAL torn-tail/corruption
// semantics, and the crash-recovery property end to end — a hub rebuilt
// from snapshot + WAL rejects pre-crash replays and re-interns firmware
// artifacts by content id.
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

/// The anti-replay recovery oracle: every frame accepted before the
/// crash is a replay now, and none of `ids` holds a challenge.
void expect_replays(fleet_state& st, const std::vector<byte_vec>& frames,
                    const std::vector<fleet::device_id>& ids) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(st.hub->submit(frames[i]).error,
              proto::proto_error::replayed_report)
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

/// Both checked-in store fixtures (tests/fuzz_corpus/store_v2 and
/// store_v3) accepted two rounds for device 1, the adder: (20, 22) at
/// seq 1 and (7, 8) at seq 2. Rebuilds those two frames from the nonces
/// the fixture in `dir` records as consumed.
std::vector<byte_vec> fixture_frames(const fs::path& dir,
                                     const fleet::device_record& rec) {
  auto img = parse_snapshot(*read_file(dir / fleet_store::snapshot_file),
                            "fixture snapshot");
  const auto wal = read_wal(*read_file(dir / "wal-1.log"));
  for (std::size_t i = 0; i < wal.records.size(); ++i) {
    apply_record(img, wal.records[i].payload, i, 0);
  }
  std::vector<fleet::nonce16> nonces;
  for (const auto& n : img.states.at(rec.id).retired) {
    if (n.fate == fleet::nonce_fate::consumed) nonces.push_back(n.nonce);
  }
  EXPECT_EQ(nonces.size(), 2u);
  proto::prover_device dev(*rec.program, rec.key);
  const std::pair<std::uint16_t, std::uint16_t> inputs[] = {{20, 22},
                                                            {7, 8}};
  std::vector<byte_vec> frames;
  for (std::uint32_t k = 0; k < 2 && k < nonces.size(); ++k) {
    fleet::challenge_grant g;
    g.seq = k + 1;
    frames.push_back(frame_for(
        rec.id, g,
        dev.invoke(nonces[k], args(inputs[k].first, inputs[k].second))));
  }
  return frames;
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
    o.hub.sequential_batch = true;  // single-threaded tests
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
    // The store saw every event (2 firmware + 2 provision + 1 challenge
    // + 1 retire). Neither the verdict nor the accepted OR is journaled:
    // counters are process-local and delta baselines soft state.
    EXPECT_EQ(st.store->wal_records(), 6u);
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

  // THE property: the frame accepted before the crash is a replay now.
  const auto replayed = st.hub->submit(frame_a);
  EXPECT_EQ(replayed.error, proto::proto_error::replayed_report);

  // And the restarted hub still serves fresh rounds on both firmwares.
  for (const auto [id, a, b, want] :
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

TEST_F(store_test, v2_store_with_persisted_baselines_loads_and_rewrites_v4) {
  // tests/fuzz_corpus/store_v2 was written by a build that persisted
  // delta baselines and counters: a v2 snapshot whose one device (id 1,
  // the adder) carries the baseline section for round (20, 22) at seq 1,
  // and a wal-1.log holding round (7, 8) at seq 2 with its type-7
  // baseline and type-5 verdict records. Both load; the baselines and
  // counters are checked and dropped.
  const fs::path fixture = fs::path(DIALED_FUZZ_CORPUS_DIR) / "store_v2";
  fs::create_directories(dir_);
  for (const char* f : {"snapshot.dls", "wal-1.log"}) {
    fs::copy_file(fixture / f, dir_ / f);
  }
  ASSERT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version_v2);
  const fleet::device_id id = 1;
  auto o = opts();
  o.hub.shards = 1;
  o.compact_on_open = false;
  std::vector<byte_vec> accepted;
  {
    auto st = fleet_store::open(dir(), o);
    ASSERT_EQ(st.registry->size(), 1u);
    ASSERT_NE(st.registry->find(id), nullptr);
    expect_zero_counters(st.hub->stats());

    // The two rounds the old build accepted are replays.
    accepted = fixture_frames(dir_, *st.registry->find(id));
    expect_replays(st, accepted, {id});
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);

    const auto g = st.hub->challenge(id);
    EXPECT_EQ(g.seq, 3u);
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

    accepted.push_back(frame_for(id, g, rep));
    const auto full = st.hub->submit(accepted.back());
    ASSERT_TRUE(full.accepted());
    EXPECT_EQ(full.verdict.replayed_result, 15);
    EXPECT_EQ(full.verdict.replay, verifier::replay_path::replayed);
    st.store->compact();
  }
  EXPECT_EQ(snapshot_version, 4u);
  EXPECT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version);
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.registry->size(), 1u);
  expect_replays(st, accepted, {id});
  EXPECT_TRUE(fresh_round(st, id, 1, 2).accepted());
}

TEST_F(store_test, v3_store_with_persisted_counters_loads_and_rewrites_v4) {
  // tests/fuzz_corpus/store_v3 was written by a build that journaled
  // stats counters: a v3 snapshot whose counters are nonzero (round
  // (20, 22) accepted at seq 1 for device 1, the adder, then replayed
  // once) and a wal-1.log holding round (7, 8) at seq 2 as challenge,
  // retire and type-5 verdict records. The counter sections and the
  // type-5 record are checked and dropped.
  const fs::path fixture = fs::path(DIALED_FUZZ_CORPUS_DIR) / "store_v3";
  fs::create_directories(dir_);
  for (const char* f : {"snapshot.dls", "wal-1.log"}) {
    fs::copy_file(fixture / f, dir_ / f);
  }
  ASSERT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version_v3);
  const fleet::device_id id = 1;
  auto o = opts();
  o.hub.shards = 1;
  o.compact_on_open = false;
  std::vector<byte_vec> accepted;
  {
    auto st = fleet_store::open(dir(), o);
    ASSERT_EQ(st.registry->size(), 1u);
    ASSERT_NE(st.registry->find(id), nullptr);
    expect_zero_counters(st.hub->stats());

    accepted = fixture_frames(dir_, *st.registry->find(id));
    expect_replays(st, accepted, {id});
    // Only this process's rejections count.
    const auto s = st.hub->stats();
    EXPECT_EQ(s.rejected_by_error[static_cast<std::size_t>(
                  proto::proto_error::replayed_report)],
              2u);
    EXPECT_EQ(s.reports_accepted, 0u);

    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    EXPECT_EQ(g.seq, 3u);
    accepted.push_back(frame_for(id, g, dev.invoke(g.nonce, args(30, 12))));
    const auto r = st.hub->submit(accepted.back());
    ASSERT_TRUE(r.accepted());
    EXPECT_EQ(r.verdict.replayed_result, 42);
    st.store->compact();
  }
  EXPECT_EQ(load_le32(*read_file(snapshot()), 4), snapshot_version);
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.registry->size(), 1u);
  expect_zero_counters(st.hub->stats());
  expect_replays(st, accepted, {id});
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

TEST_F(store_test, outstanding_challenges_and_clock_survive) {
  fleet::device_id id = 0;
  fleet::challenge_grant g2;
  byte_vec key;
  {
    auto o = opts();
    o.hub.challenge_ttl = 10;
    auto st = fleet_store::open(dir(), o);
    id = st.registry->provision(prog_for(adder));
    key = st.registry->find(id)->key;
    st.hub->tick(3);
    (void)st.hub->challenge(id);
    g2 = st.hub->challenge(id);
    EXPECT_EQ(st.hub->outstanding(id), 2u);
  }
  auto o = opts();
  o.hub.challenge_ttl = 10;
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.hub->now(), 3u);
  EXPECT_EQ(st.hub->outstanding(id), 2u);
  // A pre-crash grant still verifies after the restart (the answer was
  // only delayed, not lost).
  proto::prover_device dev(*st.registry->find(id)->program, key);
  const auto r =
      st.hub->submit(frame_for(id, g2, dev.invoke(g2.nonce, args(1, 2))));
  EXPECT_TRUE(r.accepted());
  // And the TTL keeps counting on the restored clock.
  const auto g3 = st.hub->challenge(id);
  st.hub->tick(11);
  const auto late =
      st.hub->submit(frame_for(id, g3, dev.invoke(g3.nonce, args(1))));
  EXPECT_EQ(late.error, proto::proto_error::challenge_expired);
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
    ASSERT_EQ(st.store->wal_records(), 4u);
  }
  const auto full = [&] {
    std::ifstream in(wal_file(0), std::ios::binary);
    return byte_vec((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }();

  // Record boundaries from the framing itself.
  const auto parsed = read_wal(full);
  ASSERT_EQ(parsed.records.size(), 4u);
  std::vector<std::size_t> ends;
  std::size_t pos = 0;
  for (const auto& rec : parsed.records) {
    pos += 8 + rec.payload.size();
    ends.push_back(pos);
  }

  // The frame's fate in each prefix: no device yet, no challenge yet,
  // issued but not consumed (the crash beat the verdict, so the report
  // still verifies), consumed.
  const proto::proto_error frame_error[] = {
      proto::proto_error::unknown_device, proto::proto_error::unknown_device,
      proto::proto_error::stale_nonce, proto::proto_error::none,
      proto::proto_error::replayed_report};
  const std::size_t outstanding_after[] = {0, 0, 0, 1, 0};
  for (std::size_t k = 0; k <= 4; ++k) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const std::size_t bytes = k == 0 ? 0 : ends[k - 1];
    std::ofstream out(wal_file(0), std::ios::binary);
    out.write(reinterpret_cast<const char*>(full.data()),
              static_cast<std::streamsize>(bytes));
    out.close();

    auto st = fleet_store::open(dir(), o);
    // Records: [firmware, provision, challenge, retire].
    EXPECT_EQ(st.registry->size(), k >= 2 ? 1u : 0u) << "k=" << k;
    EXPECT_EQ(st.catalog->size(), k >= 1 ? 1u : 0u) << "k=" << k;
    expect_zero_counters(st.hub->stats());
    if (k >= 2) {
      EXPECT_EQ(st.hub->outstanding(id), outstanding_after[k])
          << "k=" << k;
    }
    const auto r = st.hub->submit(frame);
    EXPECT_EQ(r.error, frame_error[k]) << "k=" << k;
    if (frame_error[k] == proto::proto_error::none) {
      EXPECT_TRUE(r.accepted()) << "k=" << k;
    }
    if (k >= 2) {
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
    (void)st.hub->challenge(id);
    ASSERT_EQ(st.store->wal_records(), 3u);
  }
  // Tear the challenge record: chop the last byte off the file.
  const auto before = fs::file_size(wal_file(0));
  fs::resize_file(wal_file(0), before - 1);

  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.registry->size(), 1u);
  EXPECT_EQ(st.hub->outstanding(id), 0u);  // torn grant never happened
  // The torn bytes were truncated away; the log keeps appending cleanly
  // from the cut (2 surviving records + the new challenge). The torn
  // grant's seq is lost with its record, so it is issued again.
  EXPECT_EQ(st.hub->challenge(id).seq, 1u);
  EXPECT_EQ(st.store->wal_records(), 3u);
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

TEST_F(store_test, restore_under_smaller_cap_reconverges) {
  fleet::device_id id = 0;
  {
    auto o = opts();
    o.hub.max_outstanding = 8;
    auto st = fleet_store::open(dir(), o);
    id = st.registry->provision(prog_for(adder));
    for (int i = 0; i < 8; ++i) (void)st.hub->challenge(id);
    EXPECT_EQ(st.hub->outstanding(id), 8u);
  }
  auto o = opts();
  o.hub.max_outstanding = 1;
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.hub->outstanding(id), 8u);  // restored as persisted...
  const auto g = st.hub->challenge(id);
  // ...but one grant under the smaller cap re-establishes the invariant
  // (all 8 restored entries evicted, the new one outstanding).
  EXPECT_EQ(g.note, proto::proto_error::challenge_superseded);
  EXPECT_EQ(st.hub->outstanding(id), 1u);
  EXPECT_EQ(st.hub->stats().challenges_superseded, 8u);
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

TEST_F(store_test, counters_restart_at_zero_while_replay_state_survives) {
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
  // The counters did not survive; the anti-replay state did.
  expect_zero_counters(st.hub->stats());
  EXPECT_EQ(st.hub->submit(frame).error,
            proto::proto_error::replayed_report);
  EXPECT_EQ(st.hub->submit(stale).error, proto::proto_error::stale_nonce);
  EXPECT_TRUE(fresh_round(st, id, 3, 4).accepted());

  // From here the counters count this process only.
  const auto s = st.hub->stats();
  ASSERT_EQ(s.per_device.count(id), 1u);
  EXPECT_EQ(s.per_device.at(id).accepted, 1u);
  EXPECT_EQ(s.per_device.at(id).replayed, 1u);
  EXPECT_EQ(s.per_device.at(id).rejected_protocol, 1u);
  EXPECT_EQ(s.reports_accepted, 1u);
  EXPECT_EQ(s.challenges_issued, 1u);
  EXPECT_EQ(s.rejected_by_error[static_cast<std::size_t>(
                proto::proto_error::replayed_report)],
            1u);
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
    EXPECT_EQ(st.hub->outstanding(id), static_cast<std::size_t>(k / 2));
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
  byte_vec frame;
  fleet::challenge_grant pending;
  {
    auto st = fleet_store::open(dir(), opts());
    id = st.registry->provision(prog_for(adder));
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    frame = frame_for(id, g, dev.invoke(g.nonce, args(20, 22)));
    ASSERT_TRUE(st.hub->submit(frame).accepted());

    const auto gen_before = st.store->generation();
    st.store->compact();
    EXPECT_EQ(st.store->wal_records(), 0u);
    EXPECT_EQ(st.store->generation(), gen_before + 1);
    EXPECT_FALSE(fs::exists(wal_file(gen_before)));

    // Post-compaction events land in the new generation's log.
    pending = st.hub->challenge(id);
    EXPECT_EQ(st.store->wal_records(), 1u);
  }
  auto st = fleet_store::open(dir(), opts());
  EXPECT_EQ(st.hub->submit(frame).error,
            proto::proto_error::replayed_report);
  EXPECT_EQ(st.hub->outstanding(id), 1u);
  // The grant issued after the compaction is still answerable.
  proto::prover_device dev(*st.registry->find(id)->program,
                           st.registry->find(id)->key);
  const auto r = st.hub->submit(
      frame_for(id, pending, dev.invoke(pending.nonce, args(6, 7))));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 13);
}

TEST_F(store_test, interrupted_compaction_chain_replays_both_logs) {
  // An online compaction that crashes between rolling the log and
  // publishing the snapshot leaves wal-G AND wal-(G+1), both live.
  // Simulate that layout by splitting a real log at a record boundary.
  auto o = opts();
  o.compact_on_open = false;
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
    // The chain replays in order: full pre-crash state, generation
    // advanced to the newest log, new appends land there.
    auto st = fleet_store::open(dir(), o);
    EXPECT_EQ(st.store->generation(), 1u);
    EXPECT_EQ(st.hub->submit(frame).error,
              proto::proto_error::replayed_report);
    (void)st.hub->challenge(id);
    // 1 replayed in wal-1 + 1 challenge; the replay rejection is not
    // journaled.
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
    EXPECT_EQ(st.hub->submit(frame).error,
              proto::proto_error::replayed_report);
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
    const auto id = st.registry->provision(prog_for(adder));
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    ASSERT_TRUE(
        st.hub->submit(frame_for(id, g, dev.invoke(g.nonce, args(1, 2))))
            .accepted());
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
  // Four devices hammered from four threads, every event journaled
  // through the store's shared appender (shard locks + registry lock all
  // feeding one WAL). The reopened hub must agree with the live one.
  auto o = opts();
  o.hub.sequential_batch = false;
  o.hub.workers = 2;
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
  }
  // Every accepted frame replays, no challenge is left, and every
  // device still attests.
  auto st = fleet_store::open(dir(), o);
  for (int t = 0; t < kthreads; ++t) {
    const auto& f = frames[static_cast<std::size_t>(t)];
    ASSERT_EQ(f.size(), static_cast<std::size_t>(kiters));
    expect_replays(st, f, {ids[static_cast<std::size_t>(t)]});
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
// wal_writer sync policies: the group-commit protocol (PR 8)
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

  static wal_options with(wal_sync s, std::uint32_t delay_us = 100) {
    wal_options o;
    o.sync = s;
    o.group_max_delay_us = delay_us;
    return o;
  }

  fs::path path_;
};

TEST_F(wal_sync_test, per_record_is_durable_at_append_return) {
  wal_writer w(path_.string(), 0, 0, with(wal_sync::per_record));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(w.append(byte_vec{static_cast<std::uint8_t>(i)}), i);
    // Horizon tracks the staged LSN exactly: every append fsynced inline.
    EXPECT_EQ(w.synced_lsn(), i);
    w.sync_to(i);  // already covered — must return instantly
  }
  const auto s = w.sync_stats();
  EXPECT_EQ(s.syncs, 5u);
  EXPECT_EQ(s.records, 5u);
  EXPECT_EQ(s.batch_hist[0], 5u);  // all batches of exactly 1
}

TEST_F(wal_sync_test, none_never_fsyncs_but_reports_covered) {
  wal_writer w(path_.string(), 0, 0, with(wal_sync::none));
  for (std::uint64_t i = 1; i <= 4; ++i) w.append(byte_vec{7});
  // `none` treats flush-to-OS as its durability ceiling, so sync_to has
  // nothing to wait for and the counters stay zero.
  EXPECT_EQ(w.staged_lsn(), 4u);
  EXPECT_EQ(w.synced_lsn(), 4u);
  w.sync_to(4);
  const auto s = w.sync_stats();
  EXPECT_EQ(s.syncs, 0u);
  EXPECT_EQ(s.records, 0u);
}

TEST_F(wal_sync_test, group_sync_to_advances_horizon_and_batches) {
  wal_writer w(path_.string(), 0, 0, with(wal_sync::group));
  const auto a = w.append(byte_vec{1});
  const auto b = w.append(byte_vec{2});
  const auto c = w.append(byte_vec{3});
  EXPECT_EQ(c, 3u);
  // Staged but not yet durable.
  EXPECT_EQ(w.staged_lsn(), 3u);
  EXPECT_EQ(w.synced_lsn(), 0u);

  // One sync_to covers everything staged at fsync time — a and b ride
  // along with c's batch.
  w.sync_to(c);
  EXPECT_GE(w.synced_lsn(), c);
  const auto s = w.sync_stats();
  EXPECT_EQ(s.syncs, 1u);
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.batch_hist[2], 1u);  // batch of 3 → (2,4] bucket

  // Already-covered LSNs never trigger another fsync.
  w.sync_to(a);
  w.sync_to(b);
  EXPECT_EQ(w.sync_stats().syncs, 1u);
}

TEST_F(wal_sync_test, reset_to_hands_off_durability_and_keeps_lsns) {
  const auto next = fs::path(path_.string() + ".g1");
  fs::remove(next);
  wal_writer w(path_.string(), 0, 0, with(wal_sync::group));
  w.append(byte_vec{1});
  w.append(byte_vec{2});
  ASSERT_EQ(w.synced_lsn(), 0u);

  // Rotation fsyncs the outgoing file (handoff) and releases the
  // horizon: nothing staged before the rotation can be lost by it.
  w.reset_to(next.string());
  EXPECT_EQ(w.synced_lsn(), 2u);
  EXPECT_EQ(w.records(), 0u);  // per-file count reset...
  EXPECT_EQ(w.append(byte_vec{3}), 3u);  // ...but LSNs stay monotone
  EXPECT_EQ(w.staged_lsn(), 3u);
  w.sync_to(3);
  EXPECT_EQ(w.synced_lsn(), 3u);
  fs::remove(next);
}

TEST_F(wal_sync_test, group_commit_multithread_hammer) {
  // N appender threads each staging then waiting for durability, the
  // way verifier-hub traffic drives the store. Every record must end
  // covered, LSNs must be unique, and the batching counters must add up
  // (records == total appends; syncs <= that, usually far fewer).
  constexpr int kthreads = 8;
  constexpr int kiters = 25;
  wal_writer w(path_.string(), 0, 0, with(wal_sync::group, 200));
  std::vector<std::thread> threads;
  std::array<std::array<std::uint64_t, kiters>, kthreads> lsns{};
  for (int t = 0; t < kthreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kiters; ++i) {
        const auto lsn = w.append(byte_vec{static_cast<std::uint8_t>(t),
                                           static_cast<std::uint8_t>(i)});
        w.sync_to(lsn);
        ASSERT_GE(w.synced_lsn(), lsn);
        lsns[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            lsn;
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr auto total =
      static_cast<std::uint64_t>(kthreads) * kiters;
  EXPECT_EQ(w.staged_lsn(), total);
  EXPECT_EQ(w.synced_lsn(), total);

  // Every LSN unique (the per-thread sequences interleave arbitrarily).
  std::vector<std::uint64_t> flat;
  for (const auto& row : lsns) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(std::adjacent_find(flat.begin(), flat.end()), flat.end());
  EXPECT_EQ(flat.front(), 1u);
  EXPECT_EQ(flat.back(), total);

  // Accounting: every record was made durable by exactly one batch.
  const auto s = w.sync_stats();
  EXPECT_EQ(s.records, total);
  EXPECT_GE(s.syncs, 1u);
  EXPECT_LE(s.syncs, total);
  std::uint64_t hist_syncs = 0;
  for (const auto n : s.batch_hist) hist_syncs += n;
  EXPECT_EQ(hist_syncs, s.syncs);

  // And the file itself holds all records intact.
  const auto bytes = *read_file(path_);
  const auto parsed = read_wal(bytes);
  EXPECT_FALSE(parsed.torn_tail);
  EXPECT_EQ(parsed.records.size(), total);
}

// ---------------------------------------------------------------------------
// fleet_store under group commit: the verdict-durability invariant
// ---------------------------------------------------------------------------

TEST_F(store_test, verdict_never_precedes_consumed_nonce_on_disk) {
  // THE group-commit safety property: by the time submit() returns a
  // verdict, the retire record consuming that nonce is durable — the
  // hub's sync_barrier between nonce consumption and crypto guarantees
  // a crash after the verdict can only lose *later* records, so replay
  // protection never regresses.
  auto o = opts();
  o.wal.sync = wal_sync::group;
  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.store->wal_sync_policy(), wal_sync::group);
  const auto id = st.registry->provision(prog_for(adder));
  proto::prover_device dev(*st.registry->find(id)->program,
                           st.registry->find(id)->key);
  const auto g = st.hub->challenge(id);
  ASSERT_TRUE(
      st.hub->submit(frame_for(id, g, dev.invoke(g.nonce, args(20, 22))))
          .accepted());

  // Read the WAL straight off disk while the store is still live: the
  // retire record for g.nonce must already be there.
  const auto maybe_bytes = read_file(wal_file(st.store->generation()));
  ASSERT_TRUE(maybe_bytes.has_value());
  const auto& bytes = *maybe_bytes;
  const auto parsed = read_wal(bytes);
  bool retired_on_disk = false;
  for (const auto& r : parsed.records) {
    if (r.payload.size() > 1 + 4 + g.nonce.size() &&
        r.payload[0] == static_cast<std::uint8_t>(rec::retire) &&
        std::equal(g.nonce.begin(), g.nonce.end(),
                   r.payload.begin() + 1 + 4)) {
      retired_on_disk = true;
    }
  }
  EXPECT_TRUE(retired_on_disk)
      << "verdict returned but consumed nonce not durable";

  // The barrier fsyncs: the store's group-commit counters saw it.
  const auto s = st.store->group_commit();
  EXPECT_GE(s.syncs, 1u);
  EXPECT_GE(s.records, 1u);
}

TEST_F(store_test, group_commit_crash_recovery_matches_per_record) {
  // Same crash-recovery property the per-record suite proves, under
  // group commit: an accepted frame is a replay after reopen, and the
  // counters show batched fsyncs did the journaling.
  auto o = opts();
  o.wal.sync = wal_sync::group;
  byte_vec frame;
  fleet::device_id id = 0;
  {
    auto st = fleet_store::open(dir(), o);
    id = st.registry->provision(prog_for(adder));
    proto::prover_device dev(*st.registry->find(id)->program,
                             st.registry->find(id)->key);
    const auto g = st.hub->challenge(id);
    frame = frame_for(id, g, dev.invoke(g.nonce, args(20, 22)));
    ASSERT_TRUE(st.hub->submit(frame).accepted());
    EXPECT_GE(st.store->group_commit().syncs, 1u);
  }  // crash

  auto st = fleet_store::open(dir(), o);
  EXPECT_EQ(st.hub->submit(frame).error,
            proto::proto_error::replayed_report);
  // Fresh rounds still verify after recovery.
  proto::prover_device dev(*st.registry->find(id)->program,
                           st.registry->find(id)->key);
  const auto g = st.hub->challenge(id);
  const auto r =
      st.hub->submit(frame_for(id, g, dev.invoke(g.nonce, args(6, 7))));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict.replayed_result, 13);
}

TEST_F(store_test, group_commit_concurrent_hub_traffic) {
  // The store-level hammer: concurrent verifier traffic over a
  // group-commit WAL. Each submit crosses the sync_barrier, so
  // concurrent rounds' retire records fold into shared fsyncs.
  auto o = opts();
  o.hub.sequential_batch = false;
  o.hub.workers = 2;
  o.hub.max_outstanding = 64;
  o.wal.sync = wal_sync::group;
  constexpr int kthreads = 4;
  constexpr int kiters = 6;
  std::vector<fleet::device_id> ids;
  std::vector<std::vector<byte_vec>> frames(kthreads);
  {
    auto st = fleet_store::open(dir(), o);
    for (int t = 0; t < kthreads; ++t) {
      ids.push_back(st.registry->provision(prog_for(adder)));
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kthreads; ++t) {
      threads.emplace_back([&, t] {
        const auto id = ids[static_cast<std::size_t>(t)];
        proto::prover_device dev(*st.registry->find(id)->program,
                                 st.registry->find(id)->key);
        for (int i = 0; i < kiters; ++i) {
          const auto g = st.hub->challenge(id);
          auto frame = frame_for(id, g, dev.invoke(g.nonce, args(1, 2)));
          ASSERT_TRUE(st.hub->submit(frame).accepted());
          frames[static_cast<std::size_t>(t)].push_back(std::move(frame));
        }
      });
    }
    for (auto& th : threads) th.join();
    const auto s = st.store->group_commit();
    // Every accepted round's retire record crossed a sync_barrier, so at
    // least that many records are durable — but concurrent barriers fold
    // into shared fsyncs, so syncs can be (and usually is) far fewer.
    EXPECT_GE(s.records, static_cast<std::uint64_t>(kthreads * kiters));
    EXPECT_GE(s.syncs, 1u);
    EXPECT_LE(s.syncs, s.records);
  }
  // Reopen: every journaled consumption replays, so every accepted
  // frame is a replay and every device still attests.
  auto st = fleet_store::open(dir(), o);
  for (int t = 0; t < kthreads; ++t) {
    const auto& f = frames[static_cast<std::size_t>(t)];
    ASSERT_EQ(f.size(), static_cast<std::size_t>(kiters));
    expect_replays(st, f, {ids[static_cast<std::size_t>(t)]});
  }
  for (const auto id : ids) {
    EXPECT_TRUE(fresh_round(st, id, 3, 4).accepted()) << id;
  }
}

}  // namespace
}  // namespace dialed::store
