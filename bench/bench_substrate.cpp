// Substrate microbenchmarks (A3): the building blocks' host-side
// performance — HMAC-SHA256 throughput (SW-Att's workload), emulator
// instruction throughput, toolchain latency, and verifier replay speed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>

#include "bench_common.h"
#include "crypto/hmac.h"
#include "fleet/partition.h"
#include "fleet/verifier_hub.h"
#include "masm/masm.h"
#include "net/client.h"
#include "net/server.h"
#include "proto/wire.h"
#include "store/fleet_store.h"
#include "store/ship.h"
#include "verifier/firmware_artifact.h"
#include "verifier/replay.h"
#include "verifier/verifier.h"

namespace {

using dialed::byte_vec;
using dialed::bench::bench_key;

void BM_hmac_sha256(benchmark::State& state) {
  const byte_vec key(32, 0x11);
  byte_vec data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    const auto mac = dialed::crypto::hmac_sha256::compute(key, data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_hmac_sha256)->Arg(256)->Arg(2048)->Arg(16384);

void BM_sha256_backend(benchmark::State& state) {
  // The PR 8 dispatch sweep: the same bytes through every compression
  // backend. Unsupported rows (non-x86, DIALED_SHA256_SIMD=OFF, CPU
  // without the extension) are skipped, not failed.
  const auto backend =
      static_cast<dialed::crypto::sha256_backend>(state.range(0));
  if (!dialed::crypto::sha256_backend_supported(backend)) {
    state.SkipWithError("backend not supported by this build/CPU");
    return;
  }
  const auto prev = dialed::crypto::sha256_active_backend();
  dialed::crypto::sha256_force_backend(backend);
  byte_vec data(static_cast<std::size_t>(state.range(1)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131);
  }
  for (auto _ : state) {
    const auto d = dialed::crypto::sha256::hash(data);
    benchmark::DoNotOptimize(d);
  }
  dialed::crypto::sha256_force_backend(prev);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(dialed::crypto::to_string(backend));
}
BENCHMARK(BM_sha256_backend)
    ->ArgNames({"backend", "len"})
    ->ArgsProduct({{0, 1, 2}, {256, 2048, 16384}});

void BM_hmac_sha256_keystate(benchmark::State& state) {
  // The cached-key-schedule path the verifier hot loop runs: ipad/opad
  // midstates derived once, replayed per message. Compare against
  // BM_hmac_sha256 at the same length for the two-compression saving.
  const byte_vec key(32, 0x11);
  const auto ks = dialed::crypto::hmac_keystate::derive(key);
  byte_vec data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    const auto mac = dialed::crypto::hmac_sha256::compute(ks, data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_hmac_sha256_keystate)->Arg(256)->Arg(2048)->Arg(16384);

void BM_emulator_mips(benchmark::State& state) {
  // A tight counted loop: 3 instructions per iteration.
  dialed::emu::memory_map map;
  const auto img = dialed::masm::assemble_text(
      "        .org 0xc000\n"
      "__start:\n"
      "        mov #50000, r15\n"
      "loop:   dec r15\n"
      "        jne loop\n"
      "        mov #1, &HALT_PORT\n"
      "        .org RESET_VECTOR\n"
      "        .word __start\n",
      map.predefined_symbols());
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    dialed::emu::machine m(map);
    m.load(img);
    m.reset();
    m.run(10'000'000);
    instructions += 100'003;
  }
  state.counters["emulated_instr_per_s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_emulator_mips)->Unit(benchmark::kMillisecond);

void BM_assembler(benchmark::State& state) {
  std::string src = "        .org 0xc000\n";
  for (int i = 0; i < 200; ++i) {
    src += "l" + std::to_string(i) + ": mov #" + std::to_string(i) +
           ", r15\n        add r15, r14\n";
  }
  for (auto _ : state) {
    const auto img = dialed::masm::assemble_text(src);
    benchmark::DoNotOptimize(img);
  }
}
BENCHMARK(BM_assembler)->Unit(benchmark::kMillisecond);

void BM_full_attestation_round(benchmark::State& state) {
  // Device run + SW-Att + Vrf verification (MAC + abstract execution).
  const auto app = dialed::apps::evaluation_apps()[1];  // FireSensor
  const auto prog =
      dialed::apps::build_app(app, dialed::instr::instrumentation::dialed);
  dialed::proto::prover_device dev(prog, bench_key());
  dialed::verifier::op_verifier vrf(prog, bench_key());
  std::array<std::uint8_t, 16> chal{};
  for (auto _ : state) {
    const auto rep = dev.invoke(chal, app.representative_input);
    const auto v = vrf.verify(rep);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_full_attestation_round)->Unit(benchmark::kMillisecond);

void BM_verifier_replay_scaling(benchmark::State& state) {
  // Vrf-side abstract-execution cost as a function of attested work (the
  // loop count drives both op length and log size).
  const auto n = static_cast<std::uint16_t>(state.range(0));
  dialed::instr::link_options lo;
  lo.entry = "op";
  lo.mode = dialed::instr::instrumentation::dialed;
  const auto prog = dialed::instr::build_operation(
      "int g = 3;"
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + g + i; } return s; }",
      lo);
  dialed::proto::prover_device dev(prog, bench_key());
  dialed::verifier::op_verifier vrf(prog, bench_key());
  std::array<std::uint8_t, 16> chal{};
  dialed::proto::invocation inv;
  inv.args[0] = n;
  const auto rep = dev.invoke(chal, inv);
  double instructions = 0;
  for (auto _ : state) {
    const auto v = vrf.verify(rep);
    instructions = static_cast<double>(v.replay_instructions);
    benchmark::DoNotOptimize(v);
  }
  state.counters["replayed_instr"] = instructions;
  state.counters["log_bytes"] = dev.last_log_bytes();
}
BENCHMARK(BM_verifier_replay_scaling)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Shared scaffolding for the fleet verify_batch benchmarks: `n_devices`
// provisioned devices x `rounds` wire v2 frames each. Frames are produced
// once (device emulation is the slow part and is not what these measure);
// each iteration re-arms a hub with the same challenge RNG seed so the
// pre-built frames' nonces are outstanding again, verifies the first
// `warmup_rounds` rounds untimed, then times verify_batch over the rest:
// decode + per-device key MAC + abstract execution. A device's rounds
// carry different inputs, so every timed report replays — except that
// warm-up rounds repeat the first timed round's inputs, whose reports
// then reuse the device's last accepted round instead.
struct fleet_batch_bench {
  dialed::fleet::device_registry reg{bench_key()};
  dialed::fleet::hub_config cfg;
  std::vector<dialed::fleet::device_id> ids;
  std::vector<dialed::byte_vec> frames;
  int rounds = 4;
  int warmup_rounds = 0;

  explicit fleet_batch_bench(std::uint32_t n_devices, int n_rounds = 4,
                             int n_warmup_rounds = 0)
      : rounds(n_rounds), warmup_rounds(n_warmup_rounds) {
    cfg.seed = 0xfee1f1ee7ull;
    cfg.max_outstanding = static_cast<std::uint32_t>(rounds);

    dialed::instr::link_options lo;
    lo.entry = "op";
    lo.mode = dialed::instr::instrumentation::dialed;
    const auto prog = dialed::instr::build_operation(
        "int g = 3;"
        "int op(int n) { int s = 0; int i;"
        "  for (i = 0; i < n; i++) { s = s + g + i; } return s; }",
        lo);
    for (std::uint32_t d = 0; d < n_devices; ++d) {
      ids.push_back(reg.provision(prog));
    }

    dialed::fleet::verifier_hub setup_hub(reg, cfg);
    const auto grants = issue_all(setup_hub);
    std::size_t g = 0;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t d = 0; d < ids.size(); ++d, ++g) {
        dialed::proto::prover_device dev(prog, reg.derive_key(ids[d]));
        dialed::proto::invocation inv;
        inv.args[0] =
            static_cast<std::uint16_t>(8 + std::max(0, r - warmup_rounds));
        const auto rep = dev.invoke(grants[g].nonce, inv);
        dialed::proto::frame_info info;
        info.device_id = ids[d];
        info.seq = grants[g].seq;
        frames.push_back(dialed::proto::encode_frame(info, rep));
      }
    }
  }

  std::vector<dialed::fleet::challenge_grant> issue_all(
      dialed::fleet::hub_like& hub) const {
    std::vector<dialed::fleet::challenge_grant> grants;
    for (int r = 0; r < rounds; ++r) {
      for (const auto id : ids) grants.push_back(hub.challenge(id));
    }
    return grants;
  }

  void run(benchmark::State& state) {
    const auto all_ok = [](const auto& results) {
      return std::all_of(results.begin(), results.end(),
                         [](const auto& r) { return r.accepted(); });
    };
    const std::span<const dialed::byte_vec> all(frames);
    const auto warmup = all.first(
        static_cast<std::size_t>(warmup_rounds) * ids.size());
    const auto timed = all.subspan(warmup.size());
    for (auto _ : state) {
      state.PauseTiming();
      dialed::fleet::verifier_hub hub(reg, cfg);
      issue_all(hub);  // identical seed + order -> identical nonces
      // (No per-device verifier warmup needed anymore: every device
      // verifies off the registry's shared firmware artifact, interned
      // once at provisioning.)
      if (!all_ok(hub.verify_batch(warmup))) {
        state.SkipWithError("warm-up report rejected");
        break;
      }
      state.ResumeTiming();
      const auto results = hub.verify_batch(timed);
      if (!all_ok(results)) {
        state.SkipWithError("batch report rejected");
        break;
      }
      benchmark::DoNotOptimize(results);
    }
    state.counters["reports_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(timed.size()),
        benchmark::Counter::kIsRate);
  }
};

void BM_fleet_verify_batch(benchmark::State& state) {
  // The sequential baseline: one thread, `range(0)` devices x 4 rounds.
  fleet_batch_bench bench(static_cast<std::uint32_t>(state.range(0)));
  bench.run(state);
}
BENCHMARK(BM_fleet_verify_batch)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_fleet_verify_batch_one_firmware(benchmark::State& state) {
  // The fleet's dominant shape: MANY devices, ONE firmware image. All
  // `range(0)` devices intern to a single shared firmware_artifact, so
  // per-device verifier memory is O(firmwares) + a per-device record —
  // the counters report the before/after memory model:
  //   bytes_per_device_dedicated — the pre-catalog design (every device
  //     cached an op_verifier owning its own linked_program copy);
  //   bytes_per_device_shared    — the catalog design (one artifact,
  //     amortized over the fleet, plus the per-device record).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  fleet_batch_bench bench(n, /*n_rounds=*/1);
  bench.run(state);

  const auto* rec = bench.reg.find(bench.ids[0]);
  const double artifact_bytes =
      static_cast<double>(rec->firmware->footprint_bytes());
  const double program_bytes = static_cast<double>(
      dialed::verifier::firmware_artifact::program_footprint_bytes(
          rec->firmware->program()));
  const double record_bytes =
      static_cast<double>(sizeof(dialed::fleet::device_record)) +
      static_cast<double>(rec->key.capacity());
  state.counters["devices"] = n;
  state.counters["firmwares"] =
      static_cast<double>(bench.reg.catalog()->size());
  state.counters["artifact_bytes"] = artifact_bytes;
  state.counters["bytes_per_device_shared"] =
      artifact_bytes / n + record_bytes;
  state.counters["bytes_per_device_dedicated"] =
      program_bytes + record_bytes;
}
BENCHMARK(BM_fleet_verify_batch_one_firmware)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_fleet_verify_batch_reused(benchmark::State& state) {
  // Replay reuse's headline case: a fleet of idle devices re-attesting
  // byte-identical inputs. An untimed warm-up round is accepted first;
  // in the timed round the MAC still runs per report, but each device's
  // replay is served from its last accepted round.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  fleet_batch_bench bench(n, /*n_rounds=*/2, /*n_warmup_rounds=*/1);
  bench.run(state);
}
BENCHMARK(BM_fleet_verify_batch_reused)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_verifier_replay_dispatch(benchmark::State& state) {
  // The pure replay loop on one report of an n-trip loop: predecoded
  // dispatch, no MAC, no hub — instructions per second of the loop alone.
  const auto n = static_cast<std::uint16_t>(state.range(0));
  dialed::instr::link_options lo;
  lo.entry = "op";
  lo.mode = dialed::instr::instrumentation::dialed;
  const auto prog = dialed::instr::build_operation(
      "int g = 3;"
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + g + i; } return s; }",
      lo);
  dialed::proto::prover_device dev(prog, bench_key());
  std::array<std::uint8_t, 16> chal{};
  dialed::proto::invocation inv;
  inv.args[0] = n;
  const auto rep = dev.invoke(chal, inv);
  const auto fw = dialed::verifier::firmware_artifact::build(prog);
  double instructions = 0;
  for (auto _ : state) {
    const auto r = dialed::verifier::replay_operation(*fw, rep, {});
    instructions = static_cast<double>(r.instructions);
    benchmark::DoNotOptimize(r);
  }
  state.counters["replayed_instr"] = instructions;
  state.counters["instr_per_s"] = benchmark::Counter(
      instructions * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_verifier_replay_dispatch)
    ->ArgName("n")
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_fleet_obs_overhead(benchmark::State& state) {
  // The PR 9 acceptance gate: the pipeline observability layer (span
  // recorder clock reads, histogram bumps, flight-recorder admission
  // check) against the identical workload with cfg.obs.enabled = false
  // (which removes every clock read from the hot path). Run both arms
  // and compare their reports_per_s — the instrumented arm must stay
  // within 2% of the baseline (plus noise).
  const bool instrumented = state.range(0) != 0;
  fleet_batch_bench bench(64, /*n_rounds=*/4);
  bench.cfg.obs.enabled = instrumented;
  bench.run(state);
  state.counters["instrumented"] = instrumented ? 1 : 0;
}
BENCHMARK(BM_fleet_obs_overhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The timed part of the loopback benches: serve `hub`, already armed
// with `bench`'s nonces, from a fresh attest_server, pipeline every frame
// through one TCP connection and read every result back. Entered and left
// with timing paused; false when a report was rejected.
bool serve_loopback_once(benchmark::State& state,
                         const fleet_batch_bench& bench,
                         dialed::fleet::hub_like& hub,
                         const dialed::net::server_config& scfg) {
  dialed::net::attest_server server(hub, scfg);
  server.start();
  dialed::net::attest_client client("127.0.0.1", server.tcp_port());
  state.ResumeTiming();
  for (const auto& f : bench.frames) client.send_report(f);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < bench.frames.size(); ++i) {
    if (client.recv_result().accepted) ++ok;
  }
  state.PauseTiming();
  server.stop();
  return ok == bench.frames.size();
}

void BM_net_ingest_loopback(benchmark::State& state) {
  // The attestation service end to end over a loopback socket: 8 devices
  // x 8 pre-built rounds pipelined through one TCP connection into the
  // epoll reactor, verified in whatever batches the verify thread finds
  // queued, results matched back by (device, seq). What it adds over
  // BM_fleet_verify_batch is the whole service path: stream framing,
  // reactor wakeups, the verify-thread handoff, and response writes.
  fleet_batch_bench bench(8, 8);
  dialed::net::server_config scfg;
  scfg.bind_addr = "127.0.0.1";
  for (auto _ : state) {
    state.PauseTiming();
    bool ok = false;
    {
      dialed::fleet::verifier_hub hub(bench.reg, bench.cfg);
      bench.issue_all(hub);  // identical seed + order -> identical nonces
      ok = serve_loopback_once(state, bench, hub, scfg);
    }
    state.ResumeTiming();
    if (!ok) {
      state.SkipWithError("report rejected over loopback");
      break;
    }
  }
  state.counters["reports_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(bench.frames.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_net_ingest_loopback)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_net_ingest_partitions(benchmark::State& state) {
  // The service's one verify parallelism: `range(0)` partitions behind
  // the router, each verifying its own frames on its own thread. Same
  // loopback harness as BM_net_ingest_loopback, over 32 devices x 4
  // rounds so every partition has work. A hub's nonce depends only on
  // (seed, device, seq), so issuing the challenges in the bench's order
  // re-arms its pre-built frames on whichever partition owns each device.
  const auto parts = static_cast<std::size_t>(state.range(0));
  fleet_batch_bench bench(32, 4);
  const auto& prog = *bench.reg.find(bench.ids[0])->program;
  dialed::net::server_config scfg;
  scfg.bind_addr = "127.0.0.1";
  for (auto _ : state) {
    state.PauseTiming();
    bool ok = false;
    {
      auto fleet = dialed::fleet::partitioned_fleet::create(
          parts, bench_key(), bench.cfg);
      for (const auto id : bench.ids) fleet.provision(id, prog);
      bench.issue_all(fleet.router());
      ok = serve_loopback_once(state, bench, fleet.router(), scfg);
    }
    state.ResumeTiming();
    if (!ok) {
      state.SkipWithError("report rejected over loopback");
      break;
    }
  }
  state.counters["partitions"] = static_cast<double>(parts);
  state.counters["reports_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(bench.frames.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_net_ingest_partitions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_wire_delta_encode(benchmark::State& state) {
  // Wire v2.1 transport win + encode cost for a steady-state polling
  // loop: one device, FireSensor firmware, `rounds` reports whose input
  // drifts slightly between rounds (the high-frequency-polling shape the
  // delta codec exists for). Each iteration encodes the whole loop the
  // way the emitter would — round r as a sparse delta against round
  // r-1's OR — and the counters report mean bytes per report against
  // the v2 full-frame baseline. The acceptance bar is the ROADMAP's
  // >= 2x reduction; steady-state polling lands far above it.
  const auto app = dialed::apps::evaluation_apps()[1];  // FireSensor
  const auto prog =
      dialed::apps::build_app(app, dialed::instr::instrumentation::dialed);
  dialed::proto::prover_device dev(prog, bench_key());
  constexpr int rounds = 8;
  std::vector<dialed::verifier::attestation_report> reps;
  std::array<std::uint8_t, 16> chal{};
  for (int r = 0; r < rounds; ++r) {
    chal.fill(static_cast<std::uint8_t>(r + 1));
    auto inv = app.representative_input;
    // Drift one ADC sample per round: a real sensor's readings wobble,
    // so consecutive ORs differ in a few I-Log bytes, not zero.
    if (!inv.adc_samples.empty()) {
      inv.adc_samples[0] =
          static_cast<std::uint16_t>(inv.adc_samples[0] + r);
    }
    reps.push_back(dev.invoke(chal, inv));
  }

  dialed::byte_vec frame;
  std::uint64_t delta_bytes = 0, full_bytes = 0, frames = 0;
  for (auto _ : state) {
    delta_bytes = full_bytes = frames = 0;
    for (int r = 0; r < rounds; ++r) {
      dialed::proto::frame_info info;
      info.device_id = 1;
      info.seq = static_cast<std::uint32_t>(r + 1);
      if (r == 0) {
        // Round 0 has no baseline: both transports ship a full frame.
        benchmark::DoNotOptimize(
            dialed::proto::encode_frame_into(info, reps[0], frame));
        delta_bytes += frame.size();
        full_bytes += frame.size();
      } else {
        benchmark::DoNotOptimize(dialed::proto::encode_delta_frame_into(
            info, reps[static_cast<std::size_t>(r)],
            static_cast<std::uint32_t>(r),
            reps[static_cast<std::size_t>(r - 1)].or_bytes, frame));
        delta_bytes += frame.size();
        benchmark::DoNotOptimize(dialed::proto::encode_frame_into(
            info, reps[static_cast<std::size_t>(r)], frame));
        full_bytes += frame.size();
      }
      ++frames;
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(rounds) *
      static_cast<std::int64_t>(reps[0].or_bytes.size()));
  state.counters["frames"] = static_cast<double>(frames);
  state.counters["v2_bytes_per_report"] =
      static_cast<double>(full_bytes) / static_cast<double>(frames);
  state.counters["v21_bytes_per_report"] =
      static_cast<double>(delta_bytes) / static_cast<double>(frames);
  state.counters["compression_x"] =
      static_cast<double>(full_bytes) / static_cast<double>(delta_bytes);
  // The wire win must not be bought with a slower encoder than the MCU
  // link can feed; the bytes/sec rate above reports encode throughput.
  if (full_bytes < 2 * delta_bytes) {
    state.SkipWithError("delta compression fell under the 2x bar");
  }
}
BENCHMARK(BM_wire_delta_encode);

void BM_wire_decode_frame(benchmark::State& state) {
  // Copy vs borrow decode of a v2 frame: borrow is the hub's submit
  // path (or_view into the frame, no OR memcpy); copy is the
  // self-contained fallback. The spread is the zero-copy win per frame.
  const auto app = dialed::apps::evaluation_apps()[1];
  const auto prog =
      dialed::apps::build_app(app, dialed::instr::instrumentation::dialed);
  dialed::proto::prover_device dev(prog, bench_key());
  std::array<std::uint8_t, 16> chal{};
  chal.fill(0x5a);
  dialed::proto::frame_info info;
  info.device_id = 1;
  const auto frame =
      dialed::proto::encode_frame(info,
                                  dev.invoke(chal,
                                             app.representative_input));
  const auto mode = state.range(0) == 0
                        ? dialed::proto::decode_mode::copy
                        : dialed::proto::decode_mode::borrow;
  dialed::proto::decoded_frame scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dialed::proto::decode_frame_into(frame, scratch, mode));
    benchmark::DoNotOptimize(scratch.or_view.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
  state.counters["or_bytes"] =
      static_cast<double>(scratch.or_view.size());
  state.SetLabel(state.range(0) == 0 ? "copy" : "borrow");
}
BENCHMARK(BM_wire_decode_frame)->ArgNames({"mode"})->Arg(0)->Arg(1);

void BM_fleet_delta_submit(benchmark::State& state) {
  // End-to-end verify cost of the delta path: hub baseline resolution +
  // reconstruction + MAC + abstract execution, vs the same report as a
  // full v2 frame (BM_fleet_verify_batch is the batch-shaped baseline).
  dialed::fleet::device_registry reg(bench_key());
  dialed::instr::link_options lo;
  lo.entry = "op";
  lo.mode = dialed::instr::instrumentation::dialed;
  const auto prog = dialed::instr::build_operation(
      "int g = 3;"
      "int op(int n) { int s = 0; int i;"
      "  for (i = 0; i < n; i++) { s = s + g + i; } return s; }",
      lo);
  const auto id = reg.provision(prog);
  dialed::fleet::hub_config cfg;
  cfg.seed = 0xfee1f1ee7ull;
  cfg.max_outstanding = 2;

  dialed::proto::prover_device dev(prog, reg.derive_key(id));
  // Two rounds produced once: round 1 primes the baseline each
  // iteration, round 2 is the timed delta submit.
  dialed::fleet::verifier_hub setup(reg, cfg);
  const auto g1 = setup.challenge(id);
  const auto g2 = setup.challenge(id);
  dialed::proto::invocation inv;
  inv.args[0] = 8;
  const auto rep1 = dev.invoke(g1.nonce, inv);
  inv.args[0] = 9;
  const auto rep2 = dev.invoke(g2.nonce, inv);
  dialed::proto::frame_info i1, i2;
  i1.device_id = i2.device_id = id;
  i1.seq = g1.seq;
  i2.seq = g2.seq;
  const auto full1 = dialed::proto::encode_frame(i1, rep1);
  const auto delta2 =
      dialed::proto::encode_delta_frame(i2, rep2, g1.seq, rep1.or_bytes);

  for (auto _ : state) {
    state.PauseTiming();
    dialed::fleet::verifier_hub hub(reg, cfg);
    (void)hub.challenge(id);  // same seed -> same nonces
    (void)hub.challenge(id);
    if (!hub.submit(full1).accepted()) {
      state.SkipWithError("baseline round rejected");
      break;
    }
    state.ResumeTiming();
    const auto r = hub.submit(delta2);
    if (!r.accepted()) {
      state.SkipWithError("delta round rejected");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["delta_frame_bytes"] =
      static_cast<double>(delta2.size());
  state.counters["full_frame_bytes"] = static_cast<double>(full1.size());
}
BENCHMARK(BM_fleet_delta_submit)->Unit(benchmark::kMillisecond);

void BM_fleet_store_wal_append(benchmark::State& state) {
  // Journal cost of the one thing the store still writes, swept across
  // the sync policies: one provisioning record per iteration (a new
  // device id on an already-journaled firmware), appended through the
  // store's persist_sink surface — fsynced inline under per_record,
  // flushed to the OS under none. Reports journal nothing, so this is
  // the whole WAL cost of a fleet. The threaded rows show appends
  // serializing on the journal lock (and, under per_record, the fsync).
  namespace fs = std::filesystem;
  static std::unique_ptr<dialed::store::fleet_state> shared;
  static dialed::fleet::device_record shared_rec;
  static std::uint64_t base_records = 0, base_bytes = 0;
  const auto dir =
      fs::temp_directory_path() / "dialed-bench-store-append";
  if (state.thread_index() == 0) {
    fs::remove_all(dir);
    dialed::store::fleet_store::options opts;
    opts.master_key = bench_key();
    opts.wal.sync = static_cast<dialed::store::wal_sync>(state.range(0));
    shared = std::make_unique<dialed::store::fleet_state>(
        dialed::store::fleet_store::open(dir.string(), opts));
    const auto id = shared->registry->provision(dialed::apps::build_app(
        dialed::apps::evaluation_apps()[1],
        dialed::instr::instrumentation::dialed));
    shared_rec = *shared->registry->find(id);
    base_records = shared->store->wal_records();  // skip the firmware
    base_bytes = shared->store->wal_bytes();
  }
  // Unique device id per thread+iteration: the store's online mirror
  // refuses a second provision of one id, exactly like WAL replay would.
  auto rec = shared_rec;
  rec.id = static_cast<dialed::fleet::device_id>(state.thread_index() + 1)
           << 24;
  for (auto _ : state) {
    ++rec.id;
    shared->store->on_provision(rec);
  }
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  // Label from the arg, not `shared` — thread 0 tears `shared` down
  // below while the other threads are still reporting.
  state.SetLabel(dialed::store::to_string(
      static_cast<dialed::store::wal_sync>(state.range(0))));
  if (state.thread_index() == 0) {
    const auto gc = shared->store->group_commit();
    if (gc.syncs > 0) state.counters["fsyncs"] = static_cast<double>(gc.syncs);
    state.counters["wal_bytes_per_record"] =
        static_cast<double>(shared->store->wal_bytes() - base_bytes) /
        static_cast<double>(std::max<std::uint64_t>(
            1, shared->store->wal_records() - base_records));
    shared.reset();
    fs::remove_all(dir);
  }
}
BENCHMARK(BM_fleet_store_wal_append)
    ->ArgNames({"sync"})
    // 0 = per_record, 1 = none (store::wal_sync order).
    ->Args({0})
    ->Args({1})
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

void BM_fleet_store_reopen(benchmark::State& state) {
  // Crash-recovery latency: reopen a store holding `range(0)` devices on
  // one firmware (snapshot load + program parse + artifact rebuild +
  // re-intern). Each open also makes its boot epoch durable: one boot
  // record, which the next open folds into a fresh snapshot, so the
  // iterations alternate between an append and a compaction.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "dialed-bench-store-open";
  fs::remove_all(dir);
  dialed::store::fleet_store::options opts;
  opts.master_key = bench_key();
  const auto n = static_cast<std::uint32_t>(state.range(0));
  {
    auto st = dialed::store::fleet_store::open(dir.string(), opts);
    const auto prog = dialed::apps::build_app(
        dialed::apps::evaluation_apps()[1],
        dialed::instr::instrumentation::dialed);
    for (std::uint32_t i = 0; i < n; ++i) (void)st.registry->provision(prog);
    st.store->compact();
  }
  for (auto _ : state) {
    auto st = dialed::store::fleet_store::open(dir.string(), opts);
    benchmark::DoNotOptimize(st.hub->outstanding(1));
  }
  state.counters["devices"] = n;
  fs::remove_all(dir);
}
BENCHMARK(BM_fleet_store_reopen)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_fleet_provision(benchmark::State& state) {
  // Cold-start cost per device: provision `range(0)` devices into a fresh
  // registry onto one firmware the shared catalog already interned, so a
  // device costs its fingerprint lookup and key derivation only.
  const auto prog = dialed::apps::build_app(
      dialed::apps::evaluation_apps()[0],
      dialed::instr::instrumentation::dialed);
  const auto catalog = std::make_shared<dialed::fleet::firmware_catalog>();
  (void)catalog->intern(prog);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    dialed::fleet::device_registry reg(bench_key(), catalog);
    for (std::uint32_t i = 0; i < n; ++i) (void)reg.provision(prog);
    benchmark::DoNotOptimize(reg.size());
  }
  state.counters["devices_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_fleet_provision)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_firmware_artifact_build(benchmark::State& state) {
  // What a catalog miss costs: copy the program into a new artifact,
  // flatten its image and predecode every ER slot. One arg per
  // evaluation app.
  const auto app =
      dialed::apps::evaluation_apps()[static_cast<std::size_t>(
          state.range(0))];
  const auto prog =
      dialed::apps::build_app(app, dialed::instr::instrumentation::dialed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dialed::verifier::firmware_artifact::build(prog));
  }
  state.counters["er_slots"] =
      static_cast<double>(prog.er_max - prog.er_min) / 2 + 1;
  state.SetLabel(app.name);
}
BENCHMARK(BM_firmware_artifact_build)
    ->ArgName("app")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_partition_router_overhead(benchmark::State& state) {
  // Routing tax on the sequential submit path: the same pre-built frames
  // pushed through a bare hub (Arg 0) or a partition_router over N hubs
  // (Arg N) — peek + mix64(id) % N + virtual dispatch is all the router
  // adds. Frames are replays, the CHEAPEST submit the hub resolves, so
  // the measured overhead is the worst-case ratio; accepted rounds
  // (emulated replay verification) bury it entirely.
  const auto n = static_cast<std::size_t>(state.range(0));
  auto fleet = dialed::fleet::partitioned_fleet::create(
      std::max<std::size_t>(1, n), bench_key());
  const auto prog = dialed::apps::build_app(
      dialed::apps::evaluation_apps()[1],
      dialed::instr::instrumentation::dialed);

  std::vector<byte_vec> frames;
  for (dialed::fleet::device_id id = 1; frames.size() < 8; ++id) {
    fleet.provision(id, prog);
    const auto* rec = fleet.registry().find(id);
    dialed::proto::prover_device dev(*rec->program, rec->key);
    const auto g = fleet.router().challenge(id);
    dialed::proto::frame_info info;
    info.device_id = id;
    info.seq = g.seq;
    const auto frame = dialed::proto::encode_frame(
        info, dev.invoke(g.nonce, dialed::apps::evaluation_apps()[1]
                                      .representative_input));
    if (!fleet.router().submit(frame).accepted()) {
      state.SkipWithError("setup round rejected");
      return;
    }
    frames.push_back(frame);
  }

  dialed::fleet::hub_like& target =
      n == 0 ? static_cast<dialed::fleet::hub_like&>(fleet.hub_of(0))
             : fleet.router();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(target.submit(frames[i]));
    i = (i + 1) % frames.size();
  }
  state.counters["submits_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_partition_router_overhead)->Arg(0)->Arg(1)->Arg(4)->Arg(16);

void BM_wal_ship_apply(benchmark::State& state) {
  // Follower apply throughput: records/s a warm standby validates,
  // applies to its image, and appends to its own WAL. The stream is one
  // real provisioning record captured off a live store, re-addressed to
  // a fresh device id each iteration — a legal continuation, so the
  // follower never desyncs. (Hub traffic ships nothing.)
  namespace fs = std::filesystem;
  struct capture_sink final : dialed::store::ship_sink {
    std::uint64_t gen = 0;
    byte_vec snapshot;
    std::vector<byte_vec> records;
    void on_snapshot(std::uint64_t g,
                     std::span<const std::uint8_t> s) override {
      gen = g;
      snapshot.assign(s.begin(), s.end());
    }
    void on_record(std::uint64_t,
                   std::span<const std::uint8_t> p) override {
      records.emplace_back(p.begin(), p.end());
    }
  };

  const auto dir = fs::temp_directory_path() / "dialed-bench-ship";
  fs::remove_all(dir);
  dialed::store::fleet_store::options opts;
  opts.master_key = bench_key();
  capture_sink cap;
  {
    auto st = dialed::store::fleet_store::open((dir / "p").string(), opts);
    const auto prog = dialed::apps::build_app(
        dialed::apps::evaluation_apps()[1],
        dialed::instr::instrumentation::dialed);
    (void)st.registry->provision(prog);
    st.store->attach_shipper(&cap);  // snapshot covers the firmware
    (void)st.registry->provision(prog);
    if (cap.records.size() != 1) {
      state.SkipWithError("capture failed");
      fs::remove_all(dir);
      return;
    }
  }

  dialed::store::wal_follower follower((dir / "standby").string());
  follower.on_snapshot(cap.gen, cap.snapshot);
  byte_vec record = cap.records.front();
  dialed::fleet::device_id id = 1u << 24;
  for (auto _ : state) {
    dialed::store_le32(record, 1, ++id);  // [type | LE32 id | ...]
    follower.on_record(cap.gen, record);
  }
  if (const auto err = follower.error()) {
    state.SkipWithError(err->what());
  }
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  fs::remove_all(dir);
}
BENCHMARK(BM_wal_ship_apply);

void BM_swatt_device_cost(benchmark::State& state) {
  // The modelled on-device cost of SW-Att in MCU cycles (context output).
  const auto app = dialed::apps::evaluation_apps()[1];
  const auto prog =
      dialed::apps::build_app(app, dialed::instr::instrumentation::dialed);
  dialed::proto::prover_device dev(prog, bench_key());
  std::array<std::uint8_t, 16> chal{};
  std::uint64_t swatt_cycles = 0;
  for (auto _ : state) {
    dev.invoke(chal, app.representative_input);
    swatt_cycles = dev.rot().vrased().last_swatt_cycles();
  }
  state.counters["swatt_mcu_cycles"] = static_cast<double>(swatt_cycles);
}
BENCHMARK(BM_swatt_device_cost)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
