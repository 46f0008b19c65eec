// dialed-serve: the DIALED attestation service. Builds the operation from
// mini-C source, provisions a fleet of devices for it, and serves the
// challenge/report protocol over TCP (length-prefixed frames) from one
// epoll reactor thread, with live Prometheus metrics on the same port:
//
//   dialed-serve <source.c> [--entry NAME] [--devices N] [--bind ADDR]
//                [--port P] [--max-outstanding N] [--max-pending N]
//                [--idle-timeout-ms MS] [--state-dir DIR]
//                [--standby-dir DIR]
//                [--partitions N] [--wal-sync per_record|none]
//                [--log-level trace|debug|info|warn|error|off]
//                [--log-json]
//
// Devices 1..N are provisioned from the fleet demo master key (0xAB*32 —
// real deployments must supply their own), so any dialed-attest --connect
// client that derives K_dev from the same key can attest. With
// --state-dir the registry and catalog are resumed from (and journaled
// to) a durable fleet store. The hub is not: its challenges and counters
// start empty after a restart, so every frame answering a pre-restart
// challenge is rejected as stale_nonce and the prover asks for a new
// one, and the /metrics counters start again at zero (Prometheus rate()
// treats that as a counter reset). No report costs a WAL record, so
// --wal-sync only sets how provisioning is made durable.
//
// Challenge nonces are keyed by a per-process random key, so two runs
// never hand a device the same nonce, not even on a fresh state dir.
//
// --partitions N serves the fleet from N hubs over one registry
// (src/fleet/partition.h): device id `id` is verified by partition
// mix64(id) % N, and /metrics grows per-partition dialed_partition_*
// families. Placement is not persisted, so a restart may change N
// freely. --state-dir DIR holds the one fleet store (DIR/snapshot.dls,
// DIR/wal-<G>.log) whatever N is; a DIR written by an older build in
// the per-partition layout (DIR/partitions.meta, DIR/p<i>) is refused
// and left untouched. --partitions is also the one parallelism option:
// each partition verifies on one long-lived thread of its own, so the
// process runs the main (reactor) thread plus N verify threads. The
// default, 1, verifies every report on one thread however many cores
// the host has. Each verify thread takes up to 64 of whatever frames
// are queued for it whenever it is free (src/net/batcher.h). The wire
// protocol is unchanged — clients cannot tell a partitioned service from
// a single hub.
//
// Prints "listening: tcp=PORT" once serving (PORT resolves
// --port 0 to the kernel's pick, for scripts and tests). SIGINT/SIGTERM
// shut down cleanly: the handler only calls the async-signal-safe
// request_stop().
//
// Observability on the TCP port: GET /metrics (Prometheus text, incl.
// per-stage latency histograms and build info), GET /healthz (hub +
// per-partition store/standby health JSON; 503 once a standby desyncs),
// GET /debug/traces (flight-recorder dump). --log-level turns on the
// structured event log to stderr (logfmt, or JSON with --log-json).
// --standby-dir DIR keeps a warm standby of the store in DIR by WAL
// shipping; its lag and desync state surface on both endpoints (as
// partition="0").
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "fleet/partition.h"
#include "net/server.h"
#include "obs/event_log.h"
#include "store/ship.h"
#include "verifier/firmware_artifact.h"

namespace {

dialed::net::attest_server* g_server = nullptr;

extern "C" void handle_signal(int) {
  // Async-signal-safe: an atomic store plus an eventfd write(2).
  if (g_server != nullptr) g_server->request_stop();
}

std::uint32_t parse_u32(const std::string& s, std::uint32_t max) {
  try {
    if (!s.empty() && s[0] == '-') throw dialed::error("negative: " + s);
    std::size_t used = 0;
    const unsigned long v = std::stoul(s, &used, 0);
    if (used != s.size() || v > max) {
      throw dialed::error("value out of range: " + s);
    }
    return static_cast<std::uint32_t>(v);
  } catch (const dialed::error&) {
    throw;
  } catch (const std::exception&) {
    throw dialed::error("not a number: '" + s + "'");
  }
}

void usage() {
  std::fprintf(
      stderr,
      "usage: dialed-serve <source.c> [--entry NAME] [--devices N] "
      "[--bind ADDR] [--port P] "
      "[--max-outstanding N] [--max-pending N] [--idle-timeout-ms MS] "
      "[--state-dir DIR] [--standby-dir DIR] [--partitions N] "
      "[--wal-sync per_record|none] "
      "[--log-level trace|debug|info|warn|error|off] [--log-json]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dialed;
  std::string path;
  std::string entry = "op";
  std::string state_dir;
  std::string standby_dir;
  std::uint32_t devices = 4;
  std::uint32_t partitions = 1;
  std::uint32_t max_outstanding = 64;
  store::wal_options wal_opts;
  net::server_config cfg;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--entry") {
        entry = next();
      } else if (arg == "--devices") {
        devices = parse_u32(next(), 100000);
        if (devices == 0) throw error("--devices needs a nonzero count");
      } else if (arg == "--bind") {
        cfg.bind_addr = next();
      } else if (arg == "--port") {
        cfg.tcp_port = static_cast<std::uint16_t>(parse_u32(next(), 0xffff));
      } else if (arg == "--max-outstanding") {
        max_outstanding = parse_u32(next(), 100000);
        if (max_outstanding == 0) {
          throw error("--max-outstanding needs a nonzero count");
        }
      } else if (arg == "--max-pending") {
        cfg.max_pending_frames = parse_u32(next(), 1000000);
      } else if (arg == "--idle-timeout-ms") {
        cfg.limits.idle_timeout_ms = parse_u32(next(), 3600000);
      } else if (arg == "--state-dir") {
        state_dir = next();
      } else if (arg == "--standby-dir") {
        standby_dir = next();
      } else if (arg == "--log-level") {
        const std::string v = next();
        obs::log_level lv;
        if (!obs::parse_log_level(v, lv)) {
          throw error("--log-level: unknown level '" + v + "'");
        }
        obs::log().configure(lv, obs::log().json());
      } else if (arg == "--log-json") {
        obs::log().configure(obs::log().level(), true);
      } else if (arg == "--wal-sync") {
        const std::string v = next();
        if (v == "per_record") {
          wal_opts.sync = store::wal_sync::per_record;
        } else if (v == "none") {
          wal_opts.sync = store::wal_sync::none;
        } else {
          throw error("--wal-sync must be per_record or none");
        }
      } else if (arg == "--partitions") {
        partitions = parse_u32(next(), 1024);
        if (partitions == 0) {
          throw error("--partitions needs a nonzero count");
        }
      } else if (!arg.empty() && arg[0] == '-') {
        throw error("unknown option " + arg);
      } else {
        path = arg;
      }
    }
  } catch (const error& e) {
    std::fprintf(stderr, "dialed-serve: %s\n", e.what());
    usage();
    return 2;
  }
  if (path.empty()) {
    usage();
    return 2;
  }
  if (!standby_dir.empty() && state_dir.empty()) {
    std::fprintf(stderr,
                 "dialed-serve: --standby-dir needs --state-dir (a "
                 "standby follows a durable store's WAL)\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dialed-serve: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();

  try {
    instr::link_options lo;
    lo.entry = entry;
    lo.mode = instr::instrumentation::dialed;
    const auto prog = instr::build_operation(ss.str(), lo);

    fleet::hub_config hub_cfg;
    hub_cfg.max_outstanding = max_outstanding;

    const byte_vec demo_master_key(32, 0xAB);
    fleet::partitioned_fleet fleet_parts =
        state_dir.empty()
            ? fleet::partitioned_fleet::create(partitions,
                                               demo_master_key, hub_cfg)
            : [&] {
                store::fleet_store::options so;
                so.master_key = demo_master_key;
                so.hub = hub_cfg;
                so.wal = wal_opts;
                return fleet::partitioned_fleet::open(
                    state_dir, partitions, std::move(so));
              }();

    const auto fw_id = verifier::firmware_artifact::fingerprint(prog);
    std::uint32_t provisioned = 0, resumed = 0;
    for (std::uint32_t id = 1; id <= devices; ++id) {
      if (const auto* rec = fleet_parts.registry().find(id)) {
        if (rec->firmware->id() != fw_id) {
          std::fprintf(stderr,
                       "dialed-serve: device %u is provisioned with a "
                       "different firmware (%.16s...) in %s\n",
                       id, rec->firmware->id_hex().c_str(),
                       state_dir.c_str());
          return 2;
        }
        ++resumed;
      } else {
        fleet_parts.provision(id, prog);
        ++provisioned;
      }
    }

    fleet::hub_like& hub = fleet_parts.router();

    // Warm standby: one follower + shipper for the store, wired before
    // the server exists and destroyed after it stops (the server reads
    // shipper stats on every scrape).
    std::optional<store::wal_follower> follower;
    store::wal_shipper shipper;
    std::vector<const store::wal_shipper*> shipper_ptrs;
    if (!standby_dir.empty()) {
      follower.emplace(standby_dir);
      shipper.add_follower(&*follower);
      fleet_parts.store()->attach_shipper(&shipper);
      shipper_ptrs.push_back(&shipper);
      obs::log().emit(obs::log_level::info, "standby_attached",
                      {{"dir", standby_dir}});
    }

    std::vector<store::fleet_store*> stores;
    if (fleet_parts.store() != nullptr) stores.push_back(fleet_parts.store());
    net::attest_server server(hub, cfg, stores, shipper_ptrs);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::printf("fleet:    %u device(s) (%u provisioned, %u resumed), "
                "firmware %.16s...\n",
                devices, provisioned, resumed,
                fleet_parts.registry().find(1)->firmware->id_hex().c_str());
    if (partitions > 1) {
      std::printf("partitions: %u hubs over one registry\n", partitions);
    }
    if (const auto* st = fleet_parts.store()) {
      std::printf("state:    %s (generation %llu, %llu WAL records, "
                  "wal-sync=%s)\n",
                  state_dir.c_str(),
                  static_cast<unsigned long long>(st->generation()),
                  static_cast<unsigned long long>(st->wal_records()),
                  store::to_string(wal_opts.sync));
    }
    std::printf("verify-threads=%zu\n", hub.partition_count());
    std::printf("listening: tcp=%u\n",
                static_cast<unsigned>(server.tcp_port()));
    std::fflush(stdout);

    server.run();
    g_server = nullptr;
    // Detach the shipper before it (and the follower) is destroyed.
    if (follower) fleet_parts.store()->attach_shipper(nullptr);

    const auto net = server.stats();
    const auto hs = hub.stats();
    const auto& b = net.batching;
    std::printf("served:   %llu conns, %llu frames, "
                "%llu accepted, %llu rejected, %llu batches "
                "(mean %.1f frames)\n",
                static_cast<unsigned long long>(net.connections_accepted),
                static_cast<unsigned long long>(net.tcp_frames),
                static_cast<unsigned long long>(hs.reports_accepted),
                static_cast<unsigned long long>(hs.reports_submitted() -
                                                hs.reports_accepted),
                static_cast<unsigned long long>(b.batches),
                b.batches == 0 ? 0.0
                               : static_cast<double>(b.batch_frames) /
                                     static_cast<double>(b.batches));
    return 0;
  } catch (const error& e) {
    std::fprintf(stderr, "dialed-serve: %s\n", e.what());
    return 1;
  }
}
