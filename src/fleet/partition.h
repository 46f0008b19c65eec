// Partitioned fleet: N verifier hubs behind one consistent-hash router.
//
// DIALED's verifier is logically one party, but one hub / one store /
// one box caps the fleet. The partition_router consistent-hashes device
// ids across N hub_like partitions and exposes the SAME hub_like surface
// itself, so net/server, the batcher, and the tools run unmodified on
// top — `dialed-serve --partitions N` is the same binary handed a router
// instead of a hub.
//
// Routing
// -------
// A deterministic hash ring (cfg.vnodes points per partition, splitmix64
// mixing, seeded) maps device_id -> partition. The ring is a pure
// function of (seed, vnodes, N): every process that agrees on those
// three agrees on the placement, with no coordination. challenge() and
// outstanding() route on the id; submit() routes on the device id
// SNIFFED from the frame header (proto::peek_device_id), the same lookup
// partition_of() gives the batcher. A frame too damaged to sniff goes to
// partition 0, whose decoder rejects it with exactly the typed error a
// bare hub would return — routing never invents new error surfaces.
//
// Threads
// -------
// The router starts none. The service's batcher runs one verify thread
// per partition and hands each one single-partition batches, which
// verify_batch() passes straight through. A mixed batch (library callers
// only) is submitted frame by frame on the calling thread.
//
// Because placement decides which partition's store holds a device's
// registry record, the DURABLE layout pins it: partitioned_fleet::open
// persists a manifest (partitions.meta) and refuses to reopen under a
// different partition count, vnode count, or seed with
// store_error(partition_mismatch) — re-partitioning would route devices
// to partitions whose registry never provisioned them.
//
// Promotion
// ---------
// Partitions are held through std::atomic pointers; replace(i, hub)
// swaps a crashed partition's hub for its promoted standby (store/ship)
// without touching the others. The router never owns the hubs —
// partitioned_fleet (or the test) does.
#ifndef DIALED_FLEET_PARTITION_H
#define DIALED_FLEET_PARTITION_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/hub_like.h"
#include "fleet/registry.h"
#include "fleet/verifier_hub.h"
#include "store/fleet_store.h"

namespace dialed::fleet {

struct router_config {
  /// Ring points per partition. More points = smoother balance at
  /// slightly larger ring-build cost; 64 keeps the max/mean partition
  /// load within a few percent for any realistic N.
  std::uint32_t vnodes = 64;
  /// Ring seed. Placement is a pure function of (seed, vnodes, N).
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

class partition_router final : public hub_like {
 public:
  /// Router over existing hubs (not owned; must outlive the router).
  /// Throws dialed::error on an empty partition set.
  partition_router(std::vector<hub_like*> partitions,
                   router_config cfg = router_config{});

  /// Owning partition index for a device id. Pure and stable.
  std::size_t index_of(device_id id) const;
  const router_config& config() const { return cfg_; }

  /// Swap partition `idx`'s hub (promotion). The old hub is returned;
  /// callers sequence this against traffic TO THAT PARTITION (traffic on
  /// other partitions may continue freely).
  hub_like* replace(std::size_t idx, hub_like* hub);

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
  hub_like* at(std::size_t idx) const {
    return parts_[idx].load(std::memory_order_acquire);
  }

  router_config cfg_;
  std::vector<std::atomic<hub_like*>> parts_;
  /// Sorted ring of (hash point, partition index).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

/// Everything `dialed-serve --partitions N` needs in one object: N
/// {catalog, registry, hub(, store)} partitions plus the router over
/// them. Two modes — create() builds in-memory partitions (no
/// persistence), open() builds fleet_store-backed partitions under
/// dir/p0..p<N-1> with the placement manifest.
class partitioned_fleet {
 public:
  static constexpr const char* manifest_file = "partitions.meta";

  /// In-memory fleet: N hubs over N registries sharing one master key.
  /// Device keys derive from (master key, id), so placement does not
  /// change any device's credentials.
  static partitioned_fleet create(std::size_t n, byte_vec master_key,
                                  hub_config hub_cfg = {},
                                  router_config rcfg = router_config{});

  /// Durable fleet: open (or initialize) dir/p<i> via fleet_store::open
  /// and persist the placement manifest. Reopening with a different
  /// partition count / vnodes / seed throws
  /// store_error(partition_mismatch).
  static partitioned_fleet open(const std::string& dir, std::size_t n,
                                store::fleet_store::options opts,
                                router_config rcfg = router_config{});

  partition_router& router() { return *router_; }
  std::size_t partition_count() const { return router_->partition_count(); }
  std::size_t index_of(device_id id) const { return router_->index_of(id); }

  device_registry& registry_of(std::size_t i) {
    return *partitions_[i].registry;
  }
  verifier_hub& hub_of(std::size_t i) { return *partitions_[i].hub; }
  store::fleet_store* store_of(std::size_t i) {
    return partitions_[i].store.get();
  }
  /// Store pointers in partition order (all nullptr for an in-memory
  /// fleet) — what attest_server's health endpoint takes.
  std::vector<store::fleet_store*> stores();

  /// Provision a device on its owning partition; returns the partition
  /// index. The id must be chosen by the caller (ids are global, the
  /// per-partition registries' auto-assign cursors are not).
  std::size_t provision(device_id id, instr::linked_program prog);

  /// Crash simulation: tear the partition's live objects out of the
  /// fleet and hand them to the caller (usually to be dropped on the
  /// floor). The router still points at the dying hub — callers must not
  /// route traffic to partition `i` until replace() installs a
  /// successor.
  store::fleet_state release_partition(std::size_t i);

  /// Reinstall a partition (promotion): adopts the state and swaps the
  /// router over to its hub.
  void install_partition(std::size_t i, store::fleet_state st);

 private:
  partitioned_fleet() = default;

  std::vector<store::fleet_state> partitions_;
  std::unique_ptr<partition_router> router_;
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_PARTITION_H
