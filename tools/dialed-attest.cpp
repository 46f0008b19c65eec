// dialed-attest: run one attested invocation of a mini-C operation on the
// emulated device and verify the report — the full fleet protocol from the
// command line. The operation's device is provisioned into a one-entry
// fleet registry (per-device key derived from a master key), attested via
// the verifier hub, and the report travels as a wire v2 frame.
//
//   dialed-attest <source.c> [--entry op] [--device-id N] [--args a,b,...]
//                 [--net b,b,...] [--adc s,s,...] [--repeat K]
//                 [--delta] [--state-dir DIR]
//                 [--stats-json PATH] [--hex-frame] [--trace]
//                 [--connect HOST:PORT [--timeout-ms MS] [--scrape]]
//
// --repeat K runs K attested invocations (K challenges outstanding at
// once, K wire frames) and verifies them as one batch on this thread —
// the shared-firmware-artifact batch path, exercisable from the command
// line. Verify parallelism lives in the service: dialed-serve
// --partitions N runs one verify thread per partition.
//
// --delta switches the transport to the wire v2.1 polling loop: rounds
// run strictly sequentially through a proto::delta_emitter, so every
// round after the first ships a sparse OR delta against the last
// ACCEPTED report (with the full-frame fallback when the hub answers
// baseline_mismatch), and the per-round/total byte savings are printed.
// Baselines live in memory on both sides: with --state-dir, a SECOND
// process run starts without one (the hub does not persist baselines and
// the emitter's mirror is per process), so its first round ships a full
// frame and re-syncs the lockstep immediately.
//
// --state-dir DIR opens (or initializes) a durable fleet store there and
// resumes it: the device registry and firmware catalog survive across
// invocations, so a second run reuses the provisioned device. The hub's
// challenges do not: each run's seq restarts at 1 under a new nonce key,
// and a frame captured in an earlier run is rejected as stale_nonce. The
// stats counters do not survive either: they are process-local. The demo master key is fixed
// (0xAB * 32) — real deployments must supply their own. Challenge nonces
// are keyed per process, so they differ from run to run.
//
// --stats-json PATH writes the hub's counters (including the per-device
// accept/reject/replay breakdown) as JSON on exit — the minimal
// exportable metrics endpoint. With --state-dir they cover only the
// current process, not the runs before it.
//
// --trace replays the first report once more with a forensic sink and
// prints its peripheral writes with input-taint provenance.
//
// Exit code 0 = every report verified, 1 = any rejected, 2 = usage error.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "crypto/sha256.h"
#include "fleet/stats_render.h"
#include "fleet/verifier_hub.h"
#include "net/client.h"
#include "proto/prover.h"
#include "proto/wire.h"
#include "store/fleet_store.h"
#include "verifier/firmware_artifact.h"
#include "verifier/replay.h"

namespace {

// Throws dialed::error on malformed or out-of-range numbers so main can
// report a usage error (exit 2) instead of dying on an uncaught
// std::invalid_argument from std::stoul. `max` is the flag's value range
// (16-bit args/ADC samples, 8-bit net bytes, 32-bit device ids) so
// oversized values fail loudly instead of silently truncating at the
// use site.
std::vector<std::uint32_t> parse_list(const std::string& s,
                                      std::uint32_t max = 0xffffffffu) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      // stoul happily parses negatives (wrapping them into unsigned
      // long) and values beyond 32 bits; reject both explicitly.
      if (!item.empty() && item[0] == '-') {
        throw dialed::error("negative value: " + item);
      }
      std::size_t used = 0;
      const unsigned long v = std::stoul(item, &used, 0);
      if (used != item.size()) {
        throw dialed::error("trailing junk in number: " + item);
      }
      if (v > max) {
        throw dialed::error("value out of range (max " +
                            std::to_string(max) + "): " + item);
      }
      out.push_back(static_cast<std::uint32_t>(v));
    } catch (const dialed::error&) {
      throw;
    } catch (const std::exception&) {
      throw dialed::error("not a number: '" + item + "'");
    }
  }
  return out;
}

void usage() {
  std::fprintf(stderr,
               "usage: dialed-attest <source.c> [--entry NAME] "
               "[--device-id N] [--args a,b,...] [--net b,b,...] "
               "[--adc s,s,...] [--repeat K] [--delta] "
               "[--state-dir DIR] [--stats-json PATH] "
               "[--connect HOST:PORT] [--timeout-ms MS] [--scrape] "
               "[--hex-frame] [--trace]\n");
}

/// "HOST:PORT" for --connect. Throws dialed::error on anything else.
std::pair<std::string, std::uint16_t> parse_host_port(
    const std::string& s) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    throw dialed::error("--connect needs HOST:PORT, got '" + s + "'");
  }
  const auto port = parse_list(s.substr(colon + 1), 0xffff);
  if (port.size() != 1 || port[0] == 0) {
    throw dialed::error("--connect needs a nonzero port in '" + s + "'");
  }
  return {s.substr(0, colon), static_cast<std::uint16_t>(port[0])};
}

/// Hub counters (with the per-device breakdown) as a JSON document — the
/// "exportable metrics endpoint" in its minimal, file-shaped form. The
/// rendering itself lives in fleet/stats_render so this file export and
/// dialed-serve's /metrics can never drift apart.
void write_stats_json(const dialed::fleet::hub_stats& s,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw dialed::error("cannot write stats json: " + path);
  }
  out << dialed::fleet::render_stats_json(s);
}

/// --connect mode: the same attested rounds, but the verifier hub lives
/// in a dialed-serve process across a socket. The device key is derived
/// locally from the shared demo master key (the HMAC KDF needs no
/// provisioning round-trip); rounds run sequentially so --delta keeps its
/// lockstep, with the full-frame fallback on the SAME challenge when the
/// server answers baseline_mismatch (the nonce survives by design).
int run_connected(const std::string& host, std::uint16_t port,
                  const dialed::instr::linked_program& prog,
                  const dialed::proto::invocation& inv,
                  dialed::fleet::device_id device_id, std::uint32_t repeat,
                  bool delta, bool hex_frame, bool scrape,
                  int timeout_ms) {
  using namespace dialed;
  const byte_vec demo_master_key(32, 0xAB);
  const fleet::device_registry key_source(demo_master_key);
  proto::prover_device dev(prog, key_source.derive_key(device_id));
  net::attest_client client(host, port, timeout_ms);

  std::size_t accepted = 0;
  proto::delta_emitter emitter;
  for (std::uint32_t k = 0; k < repeat; ++k) {
    const auto grant = client.get_challenge(device_id);
    if (grant.error != proto::proto_error::none) {
      std::fprintf(stderr, "dialed-attest: challenge refused: %s\n",
                   proto::to_string(grant.error).c_str());
      return 1;
    }
    const auto rep = dev.invoke(grant.nonce, inv);
    byte_vec frame;
    if (delta) {
      frame = emitter.encode(device_id, grant.seq, rep);
    } else {
      proto::frame_info info;
      info.device_id = device_id;
      info.seq = grant.seq;
      frame = proto::encode_frame(info, rep);
    }
    if (hex_frame && k == 0) {
      std::printf("frame (%zu bytes): %s\n", frame.size(),
                  to_hex(frame).c_str());
    }
    auto res = client.submit_report(frame);
    if (delta && res.error == proto::proto_error::baseline_mismatch) {
      // Delta desync (e.g. the server restarted without our baseline):
      // fall back to a full frame on the same still-alive nonce.
      emitter.note_result(device_id, grant.seq, rep, res.error, false);
      frame = emitter.encode(device_id, grant.seq, rep);  // now full
      res = client.submit_report(frame);
    }
    if (delta) {
      emitter.note_result(device_id, grant.seq, rep, res.error,
                          res.accepted);
    }
    if (res.accepted) {
      ++accepted;
    } else {
      std::fprintf(stderr, "dialed-attest: round %u: %s\n", k,
                   res.error != proto::proto_error::none
                       ? proto::to_string(res.error).c_str()
                       : "REJECTED");
    }
    if (k == 0 || k + 1 == repeat) {
      std::printf("round %u:  seq=%u frame=%zuB (%s) -> %s\n", k,
                  grant.seq, frame.size(),
                  frame.size() > 2 && frame[2] == proto::wire_v21
                      ? "wire v2.1 delta"
                      : "wire v2 full",
                  res.accepted ? "ACCEPTED" : "rejected");
    }
  }
  if (delta) {
    const auto& es = emitter.transport_stats();
    std::printf(
        "wire:     %llu frames (%llu delta), %llu B emitted vs %llu B "
        "as full v2 (%.1fx smaller)\n",
        static_cast<unsigned long long>(es.frames),
        static_cast<unsigned long long>(es.delta_frames),
        static_cast<unsigned long long>(es.wire_bytes),
        static_cast<unsigned long long>(es.full_bytes),
        es.wire_bytes != 0 ? static_cast<double>(es.full_bytes) /
                                 static_cast<double>(es.wire_bytes)
                           : 0.0);
  }
  std::printf("remote:   %zu/%u reports accepted by %s:%u\n", accepted,
              repeat, host.c_str(), port);
  if (scrape) {
    std::printf("---- GET /healthz ----\n%s",
                net::http_get(host, port, "/healthz", timeout_ms).c_str());
    std::printf("---- GET /metrics ----\n%s",
                net::http_get(host, port, "/metrics", timeout_ms).c_str());
  }
  return accepted == repeat ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dialed;
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string path;
  std::string entry = "op";
  std::string state_dir;
  std::string stats_json;
  std::string connect;
  proto::invocation inv;
  fleet::device_id device_id = 1;
  std::uint32_t repeat = 1;
  std::uint32_t timeout_ms = 5000;
  bool delta = false, hex_frame = false, trace = false, scrape = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--entry" && i + 1 < argc) {
        entry = argv[++i];
      } else if (arg == "--device-id" && i + 1 < argc) {
        const auto vals = parse_list(argv[++i]);
        if (vals.size() != 1 || vals[0] == 0) {
          throw error("--device-id needs one nonzero id");
        }
        device_id = vals[0];
      } else if (arg == "--args" && i + 1 < argc) {
        const auto vals = parse_list(argv[++i], 0xffff);
        for (std::size_t k = 0; k < vals.size() && k < 8; ++k) {
          inv.args[k] = static_cast<std::uint16_t>(vals[k]);
        }
      } else if (arg == "--net" && i + 1 < argc) {
        for (const auto v : parse_list(argv[++i], 0xff)) {
          inv.net_rx.push_back(static_cast<std::uint8_t>(v));
        }
      } else if (arg == "--adc" && i + 1 < argc) {
        for (const auto v : parse_list(argv[++i], 0xffff)) {
          inv.adc_samples.push_back(static_cast<std::uint16_t>(v));
        }
      } else if (arg == "--repeat" && i + 1 < argc) {
        const auto vals = parse_list(argv[++i], 100000);
        if (vals.size() != 1 || vals[0] == 0) {
          throw error("--repeat needs one nonzero count");
        }
        repeat = vals[0];
      } else if (arg == "--delta") {
        delta = true;
      } else if (arg == "--state-dir" && i + 1 < argc) {
        state_dir = argv[++i];
      } else if (arg == "--stats-json" && i + 1 < argc) {
        stats_json = argv[++i];
      } else if (arg == "--connect" && i + 1 < argc) {
        connect = argv[++i];
      } else if (arg == "--timeout-ms" && i + 1 < argc) {
        const auto vals = parse_list(argv[++i], 3600000);
        if (vals.size() != 1) throw error("--timeout-ms needs one value");
        timeout_ms = vals[0];
      } else if (arg == "--scrape") {
        scrape = true;
      } else if (arg == "--hex-frame") {
        hex_frame = true;
      } else if (arg == "--trace") {
        trace = true;
      } else if (!arg.empty() && arg[0] == '-') {
        usage();
        return 2;
      } else {
        path = arg;
      }
    }
  } catch (const error& e) {
    std::fprintf(stderr, "dialed-attest: %s\n", e.what());
    usage();
    return 2;
  }
  if (path.empty()) {
    usage();
    return 2;
  }
  if (!connect.empty() &&
      (!state_dir.empty() || !stats_json.empty())) {
    std::fprintf(stderr,
                 "dialed-attest: --state-dir/--stats-json are "
                 "server-side in --connect mode (run dialed-serve with "
                 "them)\n");
    return 2;
  }
  if (scrape && connect.empty()) {
    std::fprintf(stderr, "dialed-attest: --scrape needs --connect\n");
    return 2;
  }
  std::pair<std::string, std::uint16_t> remote;
  if (!connect.empty()) {
    try {
      remote = parse_host_port(connect);
    } catch (const error& e) {
      std::fprintf(stderr, "dialed-attest: %s\n", e.what());
      return 2;  // a bad HOST:PORT is a usage error, not a runtime one
    }
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dialed-attest: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();

  try {
    instr::link_options lo;
    lo.entry = entry;
    lo.mode = instr::instrumentation::dialed;
    const auto prog = instr::build_operation(ss.str(), lo);

    if (!connect.empty()) {
      return run_connected(remote.first, remote.second, prog, inv,
                           device_id, repeat, delta, hex_frame, scrape,
                           static_cast<int>(timeout_ms));
    }

    fleet::hub_config hub_cfg;
    hub_cfg.max_outstanding = repeat;  // all K challenges live at once

    // Fleet-side provisioning: the hub holds only the master key; the
    // device is burned with the derived K_dev. The registry interns the
    // program into its firmware catalog — the shared-artifact path every
    // batch report verifies on. With --state-dir, registry and catalog
    // are resumed from (and journaled to) the durable store instead of
    // built fresh; the hub starts empty either way.
    const byte_vec demo_master_key(32, 0xAB);
    std::optional<fleet::device_registry> local_registry;
    store::fleet_state persisted;
    if (state_dir.empty()) {
      local_registry.emplace(demo_master_key);
    } else {
      store::fleet_store::options so;
      so.master_key = demo_master_key;
      so.hub = hub_cfg;
      persisted = store::fleet_store::open(state_dir, so);
    }
    fleet::device_registry& registry =
        local_registry ? *local_registry : *persisted.registry;

    if (const auto* rec = registry.find(device_id)) {
      // Resumed device: the firmware on disk must be the firmware we are
      // about to run, or every MAC would fail inscrutably.
      if (rec->firmware->id() !=
          verifier::firmware_artifact::fingerprint(prog)) {
        std::fprintf(stderr,
                     "dialed-attest: device %u is provisioned with a "
                     "different firmware (%.16s...) in %s\n",
                     device_id, rec->firmware->id_hex().c_str(),
                     state_dir.c_str());
        return 2;
      }
    } else {
      registry.provision(device_id, prog);
    }

    std::optional<fleet::verifier_hub> local_hub;
    if (local_registry) local_hub.emplace(registry, hub_cfg);
    fleet::verifier_hub& hub = local_hub ? *local_hub : *persisted.hub;
    if (!state_dir.empty()) {
      std::printf("state:    %s (generation %llu, %llu WAL records)\n",
                  state_dir.c_str(),
                  static_cast<unsigned long long>(
                      persisted.store->generation()),
                  static_cast<unsigned long long>(
                      persisted.store->wal_records()));
    }
    proto::prover_device dev(prog, registry.find(device_id)->key);

    std::vector<fleet::attest_result> results;
    std::optional<verifier::attestation_report> first_rep;  // for --trace
    // Wall time spent verifying (the --repeat reports/s figure): the
    // batch path times verify_batch alone; the delta path is strictly
    // sequential rounds, so the whole invoke+encode+submit loop is timed
    // and the figure is end-to-end round throughput.
    double verify_seconds = 0.0;
    if (delta) {
      // The wire v2.1 polling loop: strictly sequential rounds through a
      // delta emitter, every accepted round becoming the next round's
      // baseline; a baseline_mismatch answer (e.g. first run against a
      // resumed --state-dir hub) falls back to a full frame on the SAME
      // challenge.
      proto::delta_emitter emitter;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint32_t k = 0; k < repeat; ++k) {
        const auto grant = hub.challenge(device_id);
        const auto rep = dev.invoke(grant.nonce, inv);
        byte_vec frame = emitter.encode(device_id, grant.seq, rep);
        auto res = hub.submit(frame);
        if (res.error == proto::proto_error::baseline_mismatch) {
          emitter.note_result(device_id, grant.seq, rep, res.error, false);
          frame = emitter.encode(device_id, grant.seq, rep);  // now full
          res = hub.submit(frame);
        }
        emitter.note_result(device_id, grant.seq, rep, res.error,
                            res.accepted());
        results.push_back(res);
        if (k == 0) first_rep = rep;
        if (k == 0 || k + 1 == repeat) {
          std::printf(
              "device:   id=%u result=%u, EXEC=%d, op=%llu cycles, "
              "log=%dB, frame=%zuB (wire %s, seq %u)\n",
              device_id, rep.claimed_result, rep.exec ? 1 : 0,
              static_cast<unsigned long long>(dev.last_op_cycles()),
              dev.last_log_bytes(), frame.size(),
              frame.size() > 2 && frame[2] == proto::wire_v21
                  ? "v2.1 delta"
                  : "v2 full",
              grant.seq);
        }
        if (hex_frame && k == 0) {
          std::printf("frame (%zu bytes): %s\n", frame.size(),
                      to_hex(frame).c_str());
        }
      }
      verify_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      const auto& es = emitter.transport_stats();
      std::printf(
          "wire:     %llu frames (%llu delta), %llu B emitted vs %llu B "
          "as full v2 (%.1fx smaller)\n",
          static_cast<unsigned long long>(es.frames),
          static_cast<unsigned long long>(es.delta_frames),
          static_cast<unsigned long long>(es.wire_bytes),
          static_cast<unsigned long long>(es.full_bytes),
          es.wire_bytes != 0 ? static_cast<double>(es.full_bytes) /
                                   static_cast<double>(es.wire_bytes)
                             : 0.0);
    } else {
      // Run one attested invocation per challenge and ship each report
      // through the wire format, as a real deployment would
      // (max_outstanding keeps all K challenges live at once).
      std::vector<byte_vec> frames;
      for (std::uint32_t k = 0; k < repeat; ++k) {
        const auto grant = hub.challenge(device_id);
        const auto rep = dev.invoke(grant.nonce, inv);
        proto::frame_info info;
        info.device_id = device_id;
        info.seq = grant.seq;
        frames.push_back(proto::encode_frame(info, rep));
        if (k == 0) {
          first_rep = rep;
          std::printf("device:   id=%u result=%u, EXEC=%d, op=%llu cycles, "
                      "log=%dB, frame=%zuB (wire v2, seq %u)\n",
                      device_id, rep.claimed_result, rep.exec ? 1 : 0,
                      static_cast<unsigned long long>(dev.last_op_cycles()),
                      dev.last_log_bytes(), frames.back().size(), grant.seq);
          if (hex_frame) {
            std::printf("frame (%zu bytes): %s\n", frames.back().size(),
                        to_hex(frames.back()).c_str());
          }
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      results = hub.verify_batch(frames);
      verify_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
    }
    std::size_t accepted = 0;
    for (const auto& r : results) {
      if (r.accepted()) ++accepted;
    }

    // Report the first result in detail (the single-invocation contract),
    // then the batch summary when --repeat was given.
    const auto& first = results.front();
    if (first.error != proto::proto_error::none) {
      std::fprintf(stderr, "dialed-attest: protocol error: %s\n",
                   proto::to_string(first.error).c_str());
    } else {
      const auto& v = first.verdict;
      std::printf("verifier: %s (replayed result %u, %llu instructions)\n",
                  v.accepted ? "ACCEPTED" : "REJECTED", v.replayed_result,
                  static_cast<unsigned long long>(v.replay_instructions));
      for (const auto& f : v.findings) {
        std::printf("  %-20s %s\n", verifier::to_string(f.kind).c_str(),
                    f.detail.c_str());
      }
      if (trace) {
        std::printf("peripheral writes (replayed, with provenance):\n");
        verifier::forensics fx;
        if (v.replay != verifier::replay_path::none) {
          verifier::replay_operation(*registry.find(device_id)->firmware,
                                     *first_rep, {}, &fx);
        }
        for (const auto& e : fx.io_trace) {
          std::printf("  pc=0x%04x [0x%04x] <- 0x%04x %s\n", e.pc, e.addr,
                      e.value,
                      e.tainted ? "(input-derived)" : "(constant)");
        }
      }
    }
    if (repeat > 1) {
      // Diagnostics for every rejected report beyond the detailed first
      // one — a failing batch must name which report failed and why.
      for (std::size_t i = 1; i < results.size(); ++i) {
        const auto& r = results[i];
        if (r.accepted()) continue;
        if (r.error != proto::proto_error::none) {
          std::fprintf(stderr,
                       "dialed-attest: report %zu: protocol error: %s\n",
                       i, proto::to_string(r.error).c_str());
          continue;
        }
        std::fprintf(stderr, "dialed-attest: report %zu: REJECTED\n", i);
        for (const auto& f : r.verdict.findings) {
          std::fprintf(stderr, "  %-20s %s\n",
                       verifier::to_string(f.kind).c_str(),
                       f.detail.c_str());
        }
      }
      const auto stats = hub.stats();
      std::printf("batch:    %zu/%zu reports accepted (firmware "
                  "%.16s...)\n",
                  accepted, results.size(),
                  registry.find(device_id)->firmware->id_hex().c_str());
      if (verify_seconds > 0.0) {
        std::printf("rate:     %.0f reports/s (%zu reports in %.3fs, "
                    "SHA-256 backend %s)\n",
                    static_cast<double>(results.size()) / verify_seconds,
                    results.size(), verify_seconds,
                    crypto::to_string(crypto::sha256_active_backend()));
      }
      std::printf("hub:      issued=%llu accepted=%llu rejected=%llu\n",
                  static_cast<unsigned long long>(stats.challenges_issued),
                  static_cast<unsigned long long>(stats.reports_accepted),
                  static_cast<unsigned long long>(
                      stats.reports_submitted() - stats.reports_accepted));
    }
    if (!stats_json.empty()) {
      write_stats_json(hub.stats(), stats_json);
    }
    return accepted == results.size() ? 0 : 1;
  } catch (const error& e) {
    std::fprintf(stderr, "dialed-attest: %s\n", e.what());
    return 1;
  }
}
