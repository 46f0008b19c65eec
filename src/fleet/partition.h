// Partitioned fleet: N verifier hubs over one registry, behind a router.
//
// DIALED's verifier is logically one party: one device key per device,
// one known binary per image (the registry and the catalog), and a fresh
// challenge per report. Only the last is per hub, and it is soft state
// (fleet/persist.h). So a partitioned fleet is one {catalog, registry,
// store} with N verifier_hubs sharing the registry, and the
// partition_router exposes the SAME hub_like surface itself: net/server,
// the batcher and the tools run unmodified on top — `dialed-serve
// --partitions N` is the same binary handed a router instead of a hub.
//
// Routing
// -------
// Placement is the pure function mix64(id) % N (common/bytes.h): no
// ring, no seed, nothing persisted. challenge() and outstanding() route
// on the id; submit() routes on the device id SNIFFED from the frame
// header (proto::peek_device_id), the same lookup partition_of() gives
// the batcher. A frame too damaged to sniff goes to partition 0, whose
// decoder rejects it with exactly the typed error a bare hub would
// return — routing never invents new error surfaces.
//
// Because every hub judges against the one registry, placement protects
// nothing durable: a restart may change N freely (every pre-restart
// frame is stale_nonce on every hub anyway), ids auto-assign fleet-wide,
// and one firmware image is one artifact across all partitions.
//
// Threads
// -------
// The router starts none. The service's batcher runs one verify thread
// per partition and hands each one single-partition batches, which
// verify_batch() passes straight through. A mixed batch (library callers
// only) is submitted frame by frame on the calling thread.
//
// Promotion
// ---------
// Whole-store: a promoted standby (store/ship) is a fleet_state like any
// reopened store, and partitioned_fleet::over(state, N) builds the N hubs
// on it exactly as open() and create() do.
#ifndef DIALED_FLEET_PARTITION_H
#define DIALED_FLEET_PARTITION_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/hub_like.h"
#include "fleet/registry.h"
#include "fleet/verifier_hub.h"
#include "store/fleet_store.h"

namespace dialed::fleet {

class partition_router final : public hub_like {
 public:
  /// Router over existing hubs (not owned; must outlive the router).
  /// Throws dialed::error on an empty partition set.
  explicit partition_router(std::vector<hub_like*> partitions);

  /// Owning partition index for a device id: mix64(id) % N.
  std::size_t index_of(device_id id) const;

  // ---- hub_like ------------------------------------------------------
  challenge_grant challenge(device_id id) override;
  attest_result submit(std::span<const std::uint8_t> frame) override;
  std::vector<attest_result> verify_batch(
      std::span<const byte_vec> frames) override;
  std::size_t partition_count() const override { return parts_.size(); }
  /// index_of the sniffed header id; partition 0 when unsniffable.
  std::size_t partition_of(
      std::span<const std::uint8_t> frame) const override;
  /// Ticks every partition: the fleet shares one logical clock.
  void tick(std::uint64_t n) override;
  using hub_like::tick;
  /// Max over partitions (ticks fan out, so they only diverge while a
  /// tick is in flight).
  std::uint64_t now() const override;
  std::size_t outstanding(device_id id) const override;
  /// Aggregate across partitions: counters sum; per_device maps merge
  /// (disjoint by routing).
  hub_stats stats(bool include_per_device = true) const override;
  std::vector<hub_stats> partition_stats() const override;
  /// Stage histograms summed across partitions.
  obs::pipeline_snapshot pipeline() const override;
  std::vector<obs::pipeline_snapshot> partition_pipelines() const override;
  /// Partition dumps merged, each trace tagged with its partition index;
  /// slow traces are re-ranked fleet-wide (slowest last), both rings
  /// re-bounded to one partition's capacity.
  obs::trace_dump traces() const override;

 private:
  std::vector<hub_like*> parts_;
};

/// Everything `dialed-serve --partitions N` needs in one object: one
/// {catalog, registry(, store)} state, N hubs over its registry and the
/// router over them. create() builds the state in memory, open() from a
/// fleet_store directory, and over() takes one already built (a promoted
/// standby); all three then build the hubs the same way.
class partitioned_fleet {
 public:
  /// N hubs over `st`. Hub 0 is st.hub as built; hubs 1..N-1 get its
  /// configuration, so a store's epoch-folded seed reaches every hub.
  /// Hubs on one pinned seed issue one device the same nonces, but
  /// placement sends each device to one hub only.
  static partitioned_fleet over(store::fleet_state st, std::size_t n);

  /// In-memory fleet: one registry under `master_key`, N hubs.
  static partitioned_fleet create(std::size_t n, byte_vec master_key,
                                  hub_config hub_cfg = {});

  /// Durable fleet: fleet_store::open(dir) with N hubs. Any N reopens
  /// any directory; one written in the retired per-partition layout is
  /// refused with store_error(bad_version).
  static partitioned_fleet open(const std::string& dir, std::size_t n,
                                store::fleet_store::options opts);

  partition_router& router() { return *router_; }
  std::size_t partition_count() const { return hubs_.size(); }
  std::size_t index_of(device_id id) const { return router_->index_of(id); }

  device_registry& registry() { return *registry_; }
  verifier_hub& hub_of(std::size_t i) { return *hubs_[i]; }
  /// The fleet's store; nullptr for an in-memory fleet.
  store::fleet_store* store() { return store_.get(); }

  /// Kept only for the perf ledger (perfledger/), which still calls them:
  /// the one registry for any partition index, and store() as a
  /// one-element vector.
  device_registry& registry_of(std::size_t /*partition*/) {
    return *registry_;
  }
  std::vector<store::fleet_store*> stores() { return {store_.get()}; }

  /// Provision a device under a caller-chosen id; returns the index of
  /// the partition that serves it.
  std::size_t provision(device_id id, const instr::linked_program& prog);

 private:
  partitioned_fleet() = default;

  // Declaration order is the destruction contract (reverse): the router
  // before the hubs it points at, the hubs before the registry they
  // read, the registry before the store it journals to.
  std::shared_ptr<firmware_catalog> catalog_;
  std::unique_ptr<store::fleet_store> store_;
  std::unique_ptr<device_registry> registry_;
  std::vector<std::unique_ptr<verifier_hub>> hubs_;
  std::unique_ptr<partition_router> router_;
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_PARTITION_H
