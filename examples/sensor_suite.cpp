// Authenticated sensing, fleet-style: ONE verifier hub polls three
// provisioned devices (two FireSensors + an UltrasonicRanger, the paper's
// evaluation apps #2/#3) with concurrently outstanding challenges, then
// verifies the round's reports as a wire v2 batch. Because every sensed
// value enters the attested I-Log, Vrf derives the readings from the
// replay — a device cannot lie about what it measured, a report replayed
// across devices or rounds is rejected with a typed error, and each
// device signs with its own KDF-derived key.
//
// Build & run:  ./examples/sensor_suite
#include <cstdio>
#include <memory>

#include "apps/apps.h"
#include "fleet/verifier_hub.h"
#include "proto/prover.h"
#include "proto/wire.h"

using namespace dialed;

int main() {
  // One master key for the whole fleet; each device gets
  // K_dev = HMAC(K_master, device_id) at provisioning.
  fleet::device_registry registry(byte_vec(32, 0x33));

  const auto fire = apps::evaluation_apps()[1];       // FireSensor
  const auto ranger = apps::evaluation_apps()[2];     // UltrasonicRanger
  const auto fire_prog =
      apps::build_app(fire, instr::instrumentation::dialed);
  const auto ranger_prog =
      apps::build_app(ranger, instr::instrumentation::dialed);

  const auto kitchen = registry.provision(fire_prog);
  const auto garage = registry.provision(fire_prog);
  const auto door = registry.provision(ranger_prog);
  // One hub verifies a batch on the calling thread, in input order. A
  // service that wants more cores runs N hubs over this one registry
  // (fleet::partitioned_fleet), one verify thread each.
  fleet::verifier_hub hub(registry);

  proto::prover_device dev_kitchen(fire_prog, registry.derive_key(kitchen));
  proto::prover_device dev_garage(fire_prog, registry.derive_key(garage));
  proto::prover_device dev_door(ranger_prog, registry.derive_key(door));

  std::printf("fleet: %zu devices provisioned (kitchen=%u garage=%u "
              "door=%u)\n\n",
              registry.size(), kitchen, garage, door);

  const std::uint16_t kitchen_ambient[4] = {160, 168, 800, 820};  // fire!
  const std::uint16_t garage_ambient[4] = {150, 152, 149, 151};
  const std::uint16_t door_distance_cm[4] = {150, 90, 40, 12};

  byte_vec replayed_frame;  // a frame we will try to replay later
  for (int round = 0; round < 4; ++round) {
    // Issue the round's challenges up front — all three outstanding at
    // once; devices answer independently.
    const auto g_kitchen = hub.challenge(kitchen);
    const auto g_garage = hub.challenge(garage);
    const auto g_door = hub.challenge(door);

    proto::invocation fire_inv;
    fire_inv.args[0] = 60;  // alarm threshold (8-sample average)
    auto frame_of = [](fleet::device_id id, const fleet::challenge_grant& g,
                       const verifier::attestation_report& rep) {
      proto::frame_info info;
      info.device_id = id;
      info.seq = g.seq;
      return proto::encode_frame(info, rep);
    };

    fire_inv.adc_samples = {kitchen_ambient[round]};
    std::vector<byte_vec> frames;
    frames.push_back(frame_of(
        kitchen, g_kitchen, dev_kitchen.invoke(g_kitchen.nonce, fire_inv)));
    fire_inv.adc_samples = {garage_ambient[round]};
    frames.push_back(frame_of(
        garage, g_garage, dev_garage.invoke(g_garage.nonce, fire_inv)));
    proto::invocation door_inv;
    door_inv.args[0] = 3;  // average three pings
    const auto echo =
        static_cast<std::uint16_t>(door_distance_cm[round] * 58);
    door_inv.adc_samples = {echo, echo, echo};
    frames.push_back(
        frame_of(door, g_door, dev_door.invoke(g_door.nonce, door_inv)));
    if (round == 0) replayed_frame = frames[0];

    const auto results = hub.verify_batch(frames);
    std::printf("round %d:\n", round);
    const char* name[3] = {"kitchen fire", "garage fire ", "door range  "};
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::printf("  dev %u (%s): attested %3u  %s\n", r.device, name[i],
                  r.verdict.replayed_result,
                  r.accepted() ? "verified" : "REJECTED");
    }
    hub.tick();  // one poll period on the hub's monotonic clock
  }

  std::printf("\n=== a captured round-0 frame is replayed ===\n");
  const auto replay = hub.submit(replayed_frame);
  std::printf("hub verdict: %s\n",
              proto::to_string(replay.error).c_str());

  std::printf("\n=== a compromised device tries to hide the fire ===\n");
  {
    const auto g = hub.challenge(kitchen);
    proto::invocation inv;
    inv.args[0] = 60;
    inv.adc_samples = {900};  // it is burning
    auto rep = dev_kitchen.invoke(g.nonce, inv);
    rep.claimed_result = 20;  // "everything is fine"
    proto::frame_info info;
    info.device_id = kitchen;
    info.seq = g.seq;
    const auto r = hub.submit(proto::encode_frame(info, rep));
    std::printf("claimed reading: %u, attested reading: %u -> %s\n",
                rep.claimed_result, r.verdict.replayed_result,
                r.accepted() ? "accepted (!!)" : "REJECTED (result forged)");
    for (const auto& f : r.verdict.findings) {
      std::printf("    %s: %s\n", verifier::to_string(f.kind).c_str(),
                  f.detail.c_str());
    }
  }
  return 0;
}
