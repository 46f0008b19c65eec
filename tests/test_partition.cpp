// Partitioned fleet: N hubs over one registry. mix64(id) % N placement,
// routing parity with a bare hub, reopening one store under any
// partition count, fleet-wide id assignment and artifact sharing, the
// refusal of the retired per-partition layout, WAL shipping to a warm
// standby, whole-store promotion (pre-crash replays rejected on every
// partition), and online compaction under concurrent traffic.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "common/store_error.h"
#include "fleet/partition.h"
#include "fleet/verifier_hub.h"
#include "helpers.h"
#include "proto/wire.h"
#include "store/codec.h"
#include "store/fleet_store.h"
#include "store/ship.h"
#include "store/state_image.h"

namespace dialed::fleet {
namespace {

namespace fs = std::filesystem;

using test::build_op;

constexpr const char* adder = "int op(int a, int b) { return a + b; }";

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

byte_vec frame_for(device_id id, const challenge_grant& g,
                   const verifier::attestation_report& rep) {
  proto::frame_info info;
  info.device_id = id;
  info.seq = g.seq;
  return proto::encode_frame(info, rep);
}

/// One full accepted round for `id` through any hub surface; returns the
/// submitted frame so callers can replay it later.
byte_vec run_round(hub_like& hub, device_registry& reg, device_id id,
                   std::uint16_t a, std::uint16_t b) {
  const auto* rec = reg.find(id);
  proto::prover_device dev(*rec->program, rec->key);
  const auto g = hub.challenge(id);
  EXPECT_TRUE(g.ok());
  const auto frame = frame_for(id, g, dev.invoke(g.nonce, args(a, b)));
  const auto r = hub.submit(frame);
  EXPECT_TRUE(r.accepted()) << "device " << id;
  EXPECT_EQ(r.verdict.replayed_result, a + b);
  return frame;
}

/// First device id owned by each partition (scanning up from 1).
std::vector<device_id> one_id_per_partition(
    const partition_router& router) {
  std::vector<device_id> ids(router.partition_count(), 0);
  std::size_t found = 0;
  for (device_id id = 1; found < ids.size(); ++id) {
    const std::size_t p = router.index_of(id);
    if (ids[p] == 0) {
      ids[p] = id;
      ++found;
    }
  }
  return ids;
}

/// Fresh per-test state directory, removed on teardown.
class partition_test : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("dialed-partition-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  store::fleet_store::options opts() const {
    store::fleet_store::options o;
    o.master_key = master_key();
    return o;
  }

  std::string dir() const { return dir_.string(); }
  std::string sub(const char* name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(partition_placement, placement_is_mix64_mod_n_pure_and_balanced) {
  auto a = partitioned_fleet::create(4, master_key());
  auto b = partitioned_fleet::create(4, master_key());
  std::array<std::size_t, 4> load{};
  const std::size_t ids = 20000;
  for (device_id id = 1; id <= ids; ++id) {
    // A pure function of (id, N): no seed, no ring, no coordination.
    EXPECT_EQ(a.index_of(id), mix64(id) % 4);
    EXPECT_EQ(a.index_of(id), b.index_of(id));
    ++load[a.index_of(id)];
  }
  for (std::size_t p = 0; p < 4; ++p) {
    // mix64 is a bijection with good avalanche, so sequential ids spread
    // within a few percent of fair share.
    EXPECT_GT(load[p], ids / 4 * 9 / 10) << "partition " << p;
    EXPECT_LT(load[p], ids / 4 * 11 / 10) << "partition " << p;
  }
  // The service smokes attest ids 1..8 and expect every partition of
  // four to see traffic.
  std::set<std::size_t> reached;
  for (device_id id = 1; id <= 8; ++id) reached.insert(a.index_of(id));
  EXPECT_EQ(reached.size(), 4u);
}

TEST(partition_placement, single_partition_routes_everything_to_zero) {
  auto fleet = partitioned_fleet::create(1, master_key());
  for (device_id id = 1; id <= 64; ++id) {
    EXPECT_EQ(fleet.index_of(id), 0u);
  }
}

// ---------------------------------------------------------------------------
// Routing parity with a bare hub
// ---------------------------------------------------------------------------

TEST(partition_router, routes_rounds_to_owners_and_aggregates_stats) {
  auto fleet = partitioned_fleet::create(4, master_key());
  const auto ids = one_id_per_partition(fleet.router());
  const auto prog = prog_for(adder);
  for (const auto id : ids) fleet.provision(id, prog);

  byte_vec first_frame;
  for (std::size_t p = 0; p < ids.size(); ++p) {
    const auto frame =
        run_round(fleet.router(), fleet.registry(), ids[p],
                  static_cast<std::uint16_t>(10 + p), 5);
    if (p == 0) first_frame = frame;
    // The round landed on the owning partition and nowhere else.
    EXPECT_EQ(fleet.hub_of(p).stats().reports_accepted, 1u);
  }

  // Replays route back to the same owner and are rejected there.
  EXPECT_EQ(fleet.router().submit(first_frame).error,
            proto::proto_error::replayed_report);

  // Aggregate = sum of partitions; per_device merges disjoint maps.
  const auto total = fleet.router().stats();
  EXPECT_EQ(total.challenges_issued, 4u);
  EXPECT_EQ(total.reports_accepted, 4u);
  EXPECT_EQ(total.rejected_by_error[static_cast<std::size_t>(
                proto::proto_error::replayed_report)],
            1u);
  EXPECT_EQ(total.per_device.size(), 4u);

  const auto parts = fleet.router().partition_stats();
  ASSERT_EQ(parts.size(), 4u);
  std::uint64_t sum = 0;
  for (const auto& s : parts) sum += s.reports_accepted;
  EXPECT_EQ(sum, total.reports_accepted);
}

TEST(partition_router, undecodable_frames_match_a_bare_hub) {
  auto fleet = partitioned_fleet::create(4, master_key());
  auto bare = partitioned_fleet::create(1, master_key());

  // Unpeekable damage (empty, short, wrong magic, wrong version) and a
  // peekable-but-truncated header: the router must surface exactly the
  // typed error a single hub returns — routing adds no error surface.
  const std::vector<byte_vec> damaged = {
      {},                                              // empty
      {0xa7, 0xd1},                                    // short
      {0x00, 0x00, 2, 0, 1, 0, 0, 0, 0, 0},            // bad magic
      {0xa7, 0xd1, 99, 0, 1, 0, 0, 0, 0, 0},           // bad version
      {0xa7, 0xd1, 2, 0, 0x39, 0x05, 0x00, 0x00},      // truncated v2
      {0xa7, 0xd1, 3, 0, 0xff, 0xff, 0xff, 0x7f, 1},   // truncated v2.1
  };
  for (const auto& frame : damaged) {
    const auto via_router = fleet.router().submit(frame);
    const auto via_hub = bare.hub_of(0).submit(frame);
    EXPECT_EQ(via_router.error, via_hub.error)
        << "frame size " << frame.size();
    EXPECT_NE(via_router.error, proto::proto_error::none);
  }
}

/// The same answer in the retired version-1 layout: the v2 header minus
/// its (device_id, seq) pair, version byte 1, CRC recomputed.
byte_vec as_v1_frame(byte_vec v2) {
  v2.erase(v2.begin() + 4, v2.begin() + 12);
  v2[2] = 1;
  v2.resize(v2.size() - 2);
  const std::uint16_t crc = proto::crc16_ccitt(v2);
  v2.push_back(static_cast<std::uint8_t>(crc & 0xff));
  v2.push_back(static_cast<std::uint8_t>(crc >> 8));
  return v2;
}

TEST(partition_router, retired_v1_frames_are_bad_version_and_burn_nothing) {
  // A genuine v1-encoded answer to an outstanding challenge, through both
  // front doors: a typed bad_version, counted, with the challenge left
  // outstanding so the same report still verifies as a v2 frame.
  auto fleet = partitioned_fleet::create(4, master_key());
  auto bare = partitioned_fleet::create(1, master_key());
  const auto prog = prog_for(adder);
  const device_id id = 7;
  fleet.provision(id, prog);
  bare.provision(id, prog);
  constexpr auto bad_version =
      static_cast<std::size_t>(proto::proto_error::bad_version);

  hub_like* doors[] = {&bare.hub_of(0), &fleet.router()};
  device_registry* regs[] = {&bare.registry(), &fleet.registry()};
  for (std::size_t k = 0; k < 2; ++k) {
    hub_like& hub = *doors[k];
    const auto* rec = regs[k]->find(id);
    proto::prover_device dev(*rec->program, rec->key);
    const auto g = hub.challenge(id);
    ASSERT_TRUE(g.ok());
    const auto v2 = frame_for(id, g, dev.invoke(g.nonce, args(2, 3)));
    const auto v1 = as_v1_frame(v2);
    EXPECT_EQ(proto::decode_frame(v1).error, proto::proto_error::bad_version);

    const auto r = hub.submit(v1);
    EXPECT_EQ(r.error, proto::proto_error::bad_version) << "door " << k;
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(hub.outstanding(id), 1u) << "door " << k;
    EXPECT_EQ(hub.stats().rejected_by_error[bad_version], 1u) << "door " << k;

    const auto ok = hub.submit(v2);
    EXPECT_TRUE(ok.accepted()) << "door " << k;
    EXPECT_EQ(ok.verdict.replayed_result, 5);
  }
}

TEST(partition_router, batch_scatter_preserves_input_order) {
  auto fleet = partitioned_fleet::create(4, master_key());
  const auto ids = one_id_per_partition(fleet.router());
  const auto prog = prog_for(adder);
  for (const auto id : ids) fleet.provision(id, prog);

  // Three rounds per device, interleaved so consecutive frames belong to
  // different partitions — the scatter path, not the fast path.
  std::vector<byte_vec> frames;
  std::vector<device_id> expect_dev;
  std::vector<std::uint16_t> expect_sum;
  for (std::uint16_t round = 0; round < 3; ++round) {
    for (std::size_t p = 0; p < ids.size(); ++p) {
      const auto* rec = fleet.registry().find(ids[p]);
      proto::prover_device dev(*rec->program, rec->key);
      const auto g = fleet.router().challenge(ids[p]);
      ASSERT_TRUE(g.ok());
      const std::uint16_t a = static_cast<std::uint16_t>(3 * round + p);
      frames.push_back(
          frame_for(ids[p], g, dev.invoke(g.nonce, args(a, 7))));
      expect_dev.push_back(ids[p]);
      expect_sum.push_back(static_cast<std::uint16_t>(a + 7));
    }
  }
  // A damaged frame mid-batch stays at its index with its typed error.
  const std::size_t bad_at = 5;
  frames.insert(frames.begin() + bad_at, byte_vec{0xde, 0xad});
  expect_dev.insert(expect_dev.begin() + bad_at, 0);
  expect_sum.insert(expect_sum.begin() + bad_at, 0);

  const auto results = fleet.router().verify_batch(frames);
  ASSERT_EQ(results.size(), frames.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == bad_at) {
      EXPECT_NE(results[i].error, proto::proto_error::none);
      continue;
    }
    EXPECT_TRUE(results[i].accepted()) << "frame " << i;
    EXPECT_EQ(results[i].device, expect_dev[i]) << "frame " << i;
    EXPECT_EQ(results[i].verdict.replayed_result, expect_sum[i]);
  }

  const auto total = fleet.router().stats();
  EXPECT_EQ(total.reports_accepted, 12u);
}

TEST(partition_router, tick_fans_out_one_logical_clock) {
  auto fleet = partitioned_fleet::create(3, master_key());
  fleet.router().tick(5);
  EXPECT_EQ(fleet.router().now(), 5u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(fleet.hub_of(p).now(), 5u);
  }
}

// ---------------------------------------------------------------------------
// One registry, one store, any partition count
// ---------------------------------------------------------------------------

TEST_F(partition_test, reopen_under_any_partition_count_serves_every_device) {
  constexpr device_id devices = 8;
  std::vector<byte_vec> earlier;  // every frame any earlier boot accepted
  {
    auto fleet = partitioned_fleet::open(dir(), 4, opts());
    const auto prog = prog_for(adder);
    std::set<std::size_t> reached;
    for (device_id id = 1; id <= devices; ++id) {
      reached.insert(fleet.provision(id, prog));
      earlier.push_back(
          run_round(fleet.router(), fleet.registry(), id, 1, 2));
    }
    ASSERT_EQ(reached.size(), 4u);
  }
  // Placement is not persisted: the same directory reopens under 4, 2
  // and then 1 partitions. Each time the registry is rebuilt from the
  // store and every hub starts with no challenge state, so every earlier
  // frame is stale and every device's first fresh round verifies.
  for (const std::size_t n : {4u, 2u, 1u}) {
    auto fleet = partitioned_fleet::open(dir(), n, opts());
    ASSERT_EQ(fleet.partition_count(), n);
    EXPECT_EQ(fleet.registry().size(), devices);
    for (const auto& frame : earlier) {
      EXPECT_EQ(fleet.router().submit(frame).error,
                proto::proto_error::stale_nonce)
          << n << " partitions";
    }
    for (device_id id = 1; id <= devices; ++id) {
      earlier.push_back(run_round(fleet.router(), fleet.registry(), id,
                                  static_cast<std::uint16_t>(n), 3));
    }
  }
}

TEST(partition_fleet, auto_assigned_ids_verify_through_the_router) {
  auto fleet = partitioned_fleet::create(4, master_key());
  const auto prog = prog_for(adder);
  // One registry assigns ids fleet-wide: no two partitions hand out the
  // same id, and each lands wherever mix64 places it.
  std::set<device_id> ids;
  for (int k = 0; k < 8; ++k) ids.insert(fleet.registry().provision(prog));
  ASSERT_EQ(ids.size(), 8u);
  std::map<std::size_t, std::uint64_t> expected;
  for (const auto id : ids) {
    run_round(fleet.router(), fleet.registry(), id, 4, 5);
    ++expected[fleet.index_of(id)];
  }
  EXPECT_GT(expected.size(), 1u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(fleet.hub_of(p).stats().reports_accepted, expected[p])
        << "partition " << p;
  }
}

TEST_F(partition_test, one_image_is_one_artifact_across_partitions) {
  const auto prog = prog_for(adder);
  {
    auto fleet = partitioned_fleet::open(dir(), 4, opts());
    const auto ids = one_id_per_partition(fleet.router());
    for (const auto id : ids) fleet.provision(id, prog);
    const auto* first = fleet.registry().find(ids[0])->firmware.get();
    for (const auto id : ids) {
      EXPECT_EQ(fleet.registry().find(id)->firmware.get(), first);
    }
    EXPECT_EQ(fleet.registry().catalog()->size(), 1u);
  }
  // A reopen re-interns the image once, under any partition count.
  auto fleet = partitioned_fleet::open(dir(), 2, opts());
  const auto ids = fleet.registry().ids();
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_NE(fleet.index_of(ids[0]), fleet.index_of(ids[1]));
  for (const auto id : ids) {
    EXPECT_EQ(fleet.registry().find(id)->firmware.get(),
              fleet.registry().find(ids[0])->firmware.get());
  }
  EXPECT_EQ(fleet.registry().catalog()->size(), 1u);
}

/// Every regular file under `root`, relative path -> contents.
std::map<std::string, byte_vec> tree_of(const fs::path& root) {
  std::map<std::string, byte_vec> out;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (!e.is_regular_file()) continue;
    out[fs::relative(e.path(), root).string()] = *store::read_file(e.path());
  }
  return out;
}

TEST_F(partition_test, old_layout_directory_is_refused_untouched) {
  // The layout older builds wrote: one store per partition under p<i>,
  // pinned by a CRC-guarded manifest ("DLPM", version 1, N, vnodes, seed).
  for (const char* p : {"p0", "p1"}) {
    auto st = store::fleet_store::open((dir_ / p).string(), opts());
    (void)st.registry->provision(prog_for(adder));
  }
  store::writer w;
  w.raw(std::array<std::uint8_t, 4>{'D', 'L', 'P', 'M'});
  w.u32(1);
  w.u32(2);
  w.u32(64);
  w.u64(0x9e3779b97f4a7c15ULL);
  w.u32(store::crc32(w.data()));
  store::write_file_atomic(dir_ / "partitions.meta", w.data());
  const auto before = tree_of(dir_);

  // Opening it as a fresh one-store fleet would re-provision its devices
  // under new keys: refused, typed, naming the layout, for any N.
  for (const std::size_t n : {2u, 1u}) {
    try {
      auto fleet = partitioned_fleet::open(dir(), n, opts());
      FAIL() << "old layout opened as " << n << " partitions";
    } catch (const store_error& e) {
      EXPECT_EQ(e.kind(), store_error_kind::bad_version);
      EXPECT_NE(std::string(e.what()).find("partitions.meta"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(tree_of(dir_), before);
}

// ---------------------------------------------------------------------------
// WAL shipping + promotion
// ---------------------------------------------------------------------------

TEST_F(partition_test, follower_tracks_primary_and_promotes) {
  auto st = store::fleet_store::open(sub("primary"), opts());
  store::wal_shipper shipper;
  store::wal_follower follower(sub("standby"));
  shipper.add_follower(&follower);
  st.store->attach_shipper(&shipper);
  EXPECT_EQ(shipper.snapshots_shipped(), 1u);  // bootstrap snapshot
  EXPECT_TRUE(follower.synced());

  const auto id = st.registry->provision(prog_for(adder));
  EXPECT_EQ(shipper.records_shipped(), 2u);  // firmware + provision
  // A round ships nothing: challenges are soft state.
  const auto pre_crash = run_round(*st.hub, *st.registry, id, 20, 22);
  EXPECT_EQ(follower.records_applied(), shipper.records_shipped());
  EXPECT_EQ(shipper.records_shipped(), st.store->wal_records());
  EXPECT_EQ(follower.generation(), st.store->generation());

  // Compaction ships a fresh snapshot; the follower rolls its log in
  // lockstep and keeps applying post-compaction records.
  st.store->compact();
  EXPECT_EQ(shipper.snapshots_shipped(), 2u);
  EXPECT_EQ(follower.generation(), st.store->generation());
  const auto id2 = st.registry->provision(prog_for(adder));
  EXPECT_EQ(follower.records_applied(), 3u);
  run_round(*st.hub, *st.registry, id2, 6, 7);
  EXPECT_FALSE(follower.error().has_value());

  // Promote: the standby is exactly a restarted primary — pre-crash
  // frames are stale, fresh rounds verify.
  auto promoted = follower.promote(opts());
  EXPECT_EQ(promoted.registry->size(), 2u);
  EXPECT_EQ(promoted.hub->submit(pre_crash).error,
            proto::proto_error::stale_nonce);
  run_round(*promoted.hub, *promoted.registry, id, 30, 12);
  run_round(*promoted.hub, *promoted.registry, id2, 30, 12);

  // The old primary does not know its standby left: the next shipped
  // record latches the follower into the sticky desync state.
  (void)st.registry->provision(prog_for(adder));
  ASSERT_TRUE(follower.error().has_value());
  EXPECT_EQ(follower.error()->kind(), store_error_kind::ship_desync);
  EXPECT_FALSE(follower.synced());
}

TEST(partition_obs, router_merges_and_labels_pipelines) {
  auto fleet = partitioned_fleet::create(3, master_key());
  const auto prog = prog_for(adder);
  const auto ids = one_id_per_partition(fleet.router());
  for (const auto id : ids) fleet.provision(id, prog);

  // One accepted round per partition, plus one replay on partition of
  // ids[0] to seed its rejected ring.
  byte_vec replay;
  for (const auto id : ids) {
    replay = run_round(fleet.router(), fleet.registry(), id, 2, 2);
  }
  EXPECT_EQ(fleet.router().submit(replay).error,
            proto::proto_error::replayed_report);

  // Per-partition snapshots: each partition timed exactly its own
  // report(s); the aggregate is their sum.
  const auto per = fleet.router().partition_pipelines();
  ASSERT_EQ(per.size(), 3u);
  const auto agg = fleet.router().pipeline();
  using obs::stage;
  const auto replay_idx = static_cast<std::size_t>(stage::replay);
  std::uint64_t sum = 0;
  for (const auto& p : per) {
    EXPECT_EQ(p.stages[replay_idx].count, 1u);
    sum += p.stages[replay_idx].count;
  }
  EXPECT_EQ(agg.stages[replay_idx].count, sum);

  // Merged traces carry the partition index the router assigned.
  const auto traces = fleet.router().traces();
  ASSERT_EQ(traces.rejected.size(), 1u);
  const auto last = fleet.index_of(ids.back());
  EXPECT_EQ(traces.rejected[0].partition,
            static_cast<std::uint32_t>(last));
  EXPECT_EQ(traces.slow.size(), 3u);
  for (const auto& t : traces.slow) {
    EXPECT_LT(t.partition, 3u);
    EXPECT_TRUE(t.accepted);
  }
  // Ascending by duration: the router keeps the slowest at the back.
  for (std::size_t i = 1; i < traces.slow.size(); ++i) {
    EXPECT_GE(traces.slow[i].total_ns, traces.slow[i - 1].total_ns);
  }
}

TEST_F(partition_test, shipper_stats_track_lag_and_desync) {
  auto st = store::fleet_store::open(sub("primary"), opts());
  store::wal_shipper shipper;
  store::wal_follower follower(sub("standby"));
  shipper.add_follower(&follower);
  st.store->attach_shipper(&shipper);

  auto ss = shipper.stats();
  EXPECT_EQ(ss.followers, 1u);
  EXPECT_EQ(ss.max_lag_records, 0u);
  EXPECT_FALSE(ss.any_desync);

  (void)st.registry->provision(prog_for(adder));
  ss = shipper.stats();
  EXPECT_GT(ss.records_shipped, 0u);
  EXPECT_EQ(ss.max_lag_records, 0u);  // synchronous apply: no lag

  // Latch a desync, then keep shipping: the follower stops applying, so
  // its lag now grows with every record while any_desync holds.
  follower.on_record(/*generation=*/999, byte_vec{0xde, 0xad});
  (void)st.registry->provision(prog_for(adder));
  ss = shipper.stats();
  EXPECT_TRUE(ss.any_desync);
  EXPECT_EQ(ss.max_lag_records,
            ss.records_shipped - follower.records_applied());
  EXPECT_GT(ss.max_lag_records, 0u);
  st.store->attach_shipper(nullptr);
}

TEST_F(partition_test, shipping_protocol_violations_latch_desync) {
  // A record before any snapshot: nothing to apply it to.
  {
    store::wal_follower f(sub("f1"));
    f.on_record(0, byte_vec{1, 2, 3});
    ASSERT_TRUE(f.error().has_value());
    EXPECT_EQ(f.error()->kind(), store_error_kind::ship_desync);
    EXPECT_THROW((void)f.promote(opts()), store_error);
  }

  // A record for the wrong generation after a good snapshot.
  store::state_image img;
  img.master_key = master_key();
  const auto snapshot = store::serialize_snapshot(img, /*generation=*/4);
  {
    store::wal_follower f(sub("f2"));
    f.on_snapshot(4, snapshot);
    EXPECT_TRUE(f.synced());
    EXPECT_EQ(f.generation(), 4u);
    f.on_record(9, byte_vec{1});
    ASSERT_TRUE(f.error().has_value());
    EXPECT_EQ(f.error()->kind(), store_error_kind::ship_desync);
    // Errors are sticky: later traffic cannot un-desync a follower.
    f.on_snapshot(4, snapshot);
    EXPECT_FALSE(f.synced());
  }

  // A record the promote-time replay would refuse is refused NOW, not
  // at promotion: garbage never reaches the follower's disk.
  {
    store::wal_follower f(sub("f3"));
    f.on_snapshot(4, snapshot);
    f.on_record(4, byte_vec{0xff, 0xff, 0xff});
    ASSERT_TRUE(f.error().has_value());
    EXPECT_EQ(f.records_applied(), 0u);
    EXPECT_THROW((void)f.promote(opts()), store_error);
  }
}

TEST_F(partition_test, promotion_mid_campaign_rejects_pre_crash_replays) {
  constexpr std::size_t n = 3;
  // The standby follows the fleet's one store, attached before
  // provisioning so every device reaches it as shipped records.
  store::wal_shipper shipper;
  store::wal_follower follower(sub("standby"));
  shipper.add_follower(&follower);
  std::vector<device_id> ids;
  std::vector<byte_vec> pre_crash;
  {
    auto fleet = partitioned_fleet::open(sub("fleet"), n, opts());
    fleet.store()->attach_shipper(&shipper);
    ids = one_id_per_partition(fleet.router());
    const auto prog = prog_for(adder);
    for (const auto id : ids) fleet.provision(id, prog);

    // Mid-campaign: K accepted rounds on every partition, none shipped.
    for (std::uint16_t k = 0; k < 3; ++k) {
      for (const auto id : ids) {
        pre_crash.push_back(run_round(fleet.router(), fleet.registry(), id,
                                      static_cast<std::uint16_t>(k + 1),
                                      2));
      }
    }
    ASSERT_GT(shipper.records_shipped(), 0u);
    ASSERT_TRUE(follower.synced());
    fleet.store()->attach_shipper(nullptr);
  }  // the primary dies: its store, registry and every hub

  // Promotion is whole-store: the N-hub fleet is built over the
  // promoted standby exactly as open() builds one over a directory.
  auto fleet = partitioned_fleet::over(follower.promote(opts()), n);
  ASSERT_EQ(fleet.partition_count(), n);
  EXPECT_EQ(fleet.registry().size(), ids.size());
  for (std::size_t p = 0; p < n; ++p) {
    // Counters and challenge state are process-local: zero.
    EXPECT_EQ(fleet.hub_of(p).stats().reports_submitted(), 0u);
    EXPECT_EQ(fleet.hub_of(p).stats().challenges_issued, 0u);
    EXPECT_EQ(fleet.router().outstanding(ids[p]), 0u);
  }

  // THE property, across the router: every report the dead primary
  // accepted, on every partition, is rejected by the successor, which
  // never issued its nonce.
  for (const auto& frame : pre_crash) {
    EXPECT_EQ(fleet.router().submit(frame).error,
              proto::proto_error::stale_nonce);
  }
  // And every partition serves fresh rounds.
  for (const auto id : ids) {
    run_round(fleet.router(), fleet.registry(), id, 20, 22);
  }
}

// ---------------------------------------------------------------------------
// Online compaction under traffic
// ---------------------------------------------------------------------------

TEST_F(partition_test, online_compaction_under_concurrent_traffic) {
  constexpr std::size_t devices = 3;
  constexpr std::size_t rounds = 10;
  constexpr std::size_t late_devices = 8;
  std::vector<std::vector<byte_vec>> frames(devices);
  std::vector<device_id> ids;
  std::atomic<std::size_t> accepted{0};
  std::uint64_t compactions = 0;

  {
    auto st = store::fleet_store::open(sub("primary"), opts());
    store::wal_shipper shipper;
    store::wal_follower follower(sub("standby"));
    shipper.add_follower(&follower);
    st.store->attach_shipper(&shipper);

    const auto prog = prog_for(adder);
    for (std::size_t d = 0; d < devices; ++d) {
      ids.push_back(st.registry->provision(prog));
    }

    // The point of ONLINE compaction: these run at the same time, with
    // no quiescence handshake, and nothing is lost or torn. Rounds do not
    // journal, so a provisioner keeps records racing the compactor.
    std::atomic<bool> done{false};
    std::thread compactor([&] {
      while (!done.load(std::memory_order_relaxed) || compactions < 3) {
        st.store->compact();
        ++compactions;
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> workers;
    workers.emplace_back([&] {
      for (std::size_t d = 0; d < late_devices; ++d) {
        (void)st.registry->provision(prog);
      }
    });
    for (std::size_t d = 0; d < devices; ++d) {
      workers.emplace_back([&, d] {
        const auto* rec = st.registry->find(ids[d]);
        proto::prover_device dev(*rec->program, rec->key);
        for (std::size_t r = 0; r < rounds; ++r) {
          const auto g = st.hub->challenge(ids[d]);
          const auto frame = frame_for(
              ids[d], g,
              dev.invoke(g.nonce,
                         args(static_cast<std::uint16_t>(r), 1)));
          if (st.hub->submit(frame).accepted()) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
          frames[d].push_back(frame);
        }
      });
    }
    for (auto& w : workers) w.join();
    done.store(true, std::memory_order_relaxed);
    compactor.join();

    EXPECT_EQ(accepted.load(), devices * rounds);
    EXPECT_GE(st.store->generation(), 3u);
    EXPECT_FALSE(follower.error().has_value())
        << follower.error()->what();
    EXPECT_EQ(follower.generation(), st.store->generation());
  }  // "crash" the primary

  // Reopen from the primary's directory: whatever mix of snapshot
  // generation + WAL tail the compactor left behind replays to the full
  // registry — every accepted frame is stale, no challenge is left over,
  // and every device still attests.
  auto st = store::fleet_store::open(sub("primary"), opts());
  EXPECT_EQ(st.registry->size(), devices + late_devices);
  for (std::size_t d = 0; d < devices; ++d) {
    ASSERT_EQ(frames[d].size(), rounds);
    for (const auto& frame : frames[d]) {
      EXPECT_EQ(st.hub->submit(frame).error,
                proto::proto_error::stale_nonce);
    }
    EXPECT_EQ(st.hub->outstanding(ids[d]), 0u);
    run_round(*st.hub, *st.registry, ids[d], 4, 5);
  }
}

}  // namespace
}  // namespace dialed::fleet
