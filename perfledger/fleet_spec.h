// The ledger's fixed inputs: the workloads, the device fleet they attest,
// and the attestation service stood up the way tools/dialed-serve.cpp
// builds it (partitioned_fleet -> router -> net::attest_server, with
// dialed-serve's batching and outstanding-challenge defaults). Every
// workload runs one partition: with more, the router starts a thread per
// partition for each mixed batch, past the thread budget (README.md).
#ifndef DIALED_PERFLEDGER_FLEET_SPEC_H
#define DIALED_PERFLEDGER_FLEET_SPEC_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/apps.h"
#include "fleet/partition.h"
#include "net/server.h"
#include "store/ship.h"

namespace ledger {

using namespace dialed;

struct workload {
  std::string name;
  bool durable = false;       ///< partitioned_fleet::open + WAL + standbys
  bool delta_frames = false;  ///< v2.1 frames through proto::delta_emitter
  /// Share of rounds that send an attack or forged report instead of the
  /// device's next benign template.
  double attack_frac = 0.0;
  /// Distinct benign templates each device cycles through. One means the
  /// device re-attests byte-identical inputs every round.
  std::size_t templates_per_device = 1;
  /// Open-loop offered rate (reports/s), about a quarter of the
  /// closed-loop capacity on the reference host (README.md, "No rate
  /// sweep").
  double offered_rate = 0.0;
};

/// The three workloads, by name; nullptr for an unknown name.
const workload* find_workload(std::string_view name);
std::vector<std::string> workload_names();

/// What the attack rounds of an app group may send besides the generic
/// OR-byte flip and forged claimed_result.
enum class native_attack : std::uint8_t { none, door_lock, fig1, fig2 };

struct app_group {
  apps::app_spec spec;
  std::uint32_t first_id = 0;  ///< device ids first_id .. first_id+count-1
  std::uint32_t count = 0;
  native_attack attack = native_attack::none;
};

/// SyringePump, FireSensor, UltrasonicRanger and DoorLock (64 devices
/// each), then four Fig. 1 and four Fig. 2 devices.
std::vector<app_group> fleet_groups();
std::uint32_t fleet_devices();

/// dialed-serve's demo master key: device keys derive from it by id.
byte_vec master_key();

/// Compile + instrument each group's firmware (DIALED mode), in group
/// order.
std::vector<instr::linked_program> build_firmwares(
    const std::vector<app_group>& groups);

/// One running attestation service: the partitioned fleet, the warm
/// standbys of a durable fleet, and the TCP server in front of it.
/// Members are declared so destruction runs server -> fleet -> standbys.
class service {
 public:
  /// Builds the firmwares, opens (durable) or creates the fleet,
  /// provisions every device, attaches standbys and starts the server on
  /// an ephemeral loopback port. `state_dir` is used only when durable.
  service(const workload& w, const std::string& state_dir);
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// Stop the current server (if any) and start a new one over `hub`
  /// (the router itself, or a decorator wrapping it).
  void serve(fleet::hub_like& hub);
  void stop();

  fleet::partitioned_fleet& fleet() { return *fleet_; }
  net::attest_server& server() { return *server_; }
  std::uint16_t port() const { return server_->tcp_port(); }
  const std::vector<std::unique_ptr<store::wal_shipper>>& shippers() const {
    return shippers_;
  }

  /// Durable only: close the fleet, then time partitioned_fleet::open of
  /// the state directory (the restart a crashed service pays). Returns
  /// seconds. The service is unusable afterwards.
  double close_and_recover();

 private:
  const workload& w_;
  std::string state_dir_;
  std::vector<std::unique_ptr<store::wal_follower>> followers_;
  std::vector<std::unique_ptr<store::wal_shipper>> shippers_;
  std::optional<fleet::partitioned_fleet> fleet_;
  std::unique_ptr<net::attest_server> server_;
};

/// dialed-serve's hub configuration, with the verify threads set
/// explicitly: none besides the batcher's dispatcher, which verifies each
/// batch itself (README.md, "Threads").
fleet::hub_config hub_config();

}  // namespace ledger

#endif  // DIALED_PERFLEDGER_FLEET_SPEC_H
