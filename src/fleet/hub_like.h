// The hub surface, extracted as an interface: everything the transport
// layer (net/server, net/batcher), the tools, and the stats renderers
// need from "a verifier hub" — issuing challenges, verifying submitted
// frames, the tick clock, and counters. Two implementations:
//
//   * fleet::verifier_hub     one hub over a device registry;
//   * fleet::partition_router N hubs over one registry, device id placed
//                             by mix64(id) % N (src/fleet/partition.h).
//
// Callers written against hub_like run unmodified on either — that is
// the point: `dialed-serve --partitions N` is the same server binary
// speaking to the same batcher, just handed a router instead of a hub.
// The one thing the batcher asks about the layout is partition_count()
// and partition_of(frame): it runs one verify thread per partition and
// hands each one only its own partition's frames.
//
// The value types (challenge_grant, hub_stats, attest_result) live here
// rather than in verifier_hub.h so the router does not need the concrete
// hub's header to describe its results.
//
// Threading: implementations must keep verifier_hub's contract — every
// method here is safe to call concurrently from any number of threads.
#ifndef DIALED_FLEET_HUB_LIKE_H
#define DIALED_FLEET_HUB_LIKE_H

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "fleet/persist.h"
#include "obs/obs.h"
#include "proto/errors.h"
#include "verifier/verifier.h"

namespace dialed::fleet {

using proto::proto_error;

/// The issuance half of the protocol: what the hub hands the transport to
/// forward to device `device_id`.
struct challenge_grant {
  proto_error error = proto_error::none;  ///< unknown_device
  /// challenge_superseded when issuing this grant evicted the device's
  /// oldest outstanding challenge; the grant itself is still valid.
  proto_error note = proto_error::none;
  device_id device = 0;
  std::uint32_t seq = 0;
  std::array<std::uint8_t, 16> nonce{};
  bool ok() const { return error == proto_error::none; }
};

/// Per-device accept/reject/replay counters (the ROADMAP "per-device
/// breakdown" metrics item). Process-local like every hub_stats field:
/// a restarted or promoted hub starts them at zero.
struct device_counters {
  std::uint64_t accepted = 0;
  /// Reached full verification but failed the §III verdict.
  std::uint64_t rejected_verdict = 0;
  /// Classified as replayed_report — the interesting security signal.
  std::uint64_t replayed = 0;
  /// Every other protocol rejection attributable to this (provisioned)
  /// device: stale/expired/superseded nonces, sequence mismatches.
  std::uint64_t rejected_protocol = 0;

  std::uint64_t total() const {
    return accepted + rejected_verdict + replayed + rejected_protocol;
  }
};

/// Monotonic per-hub counters (the ROADMAP "hub metrics" item): a
/// consistent-enough snapshot assembled from relaxed atomics — counts
/// never go backwards, but a snapshot taken while traffic is in flight
/// may be mid-update across fields. The per_device breakdown is gathered
/// under each hub's mutex (briefly, one hub at a time).
///
/// Every field is process-local: nothing here is journaled, snapshotted
/// or shipped, so after a restart or a standby promotion all of them
/// start again at zero (Prometheus rate() treats that as a counter
/// reset). The store persists none of the hub's state.
struct hub_stats {
  std::uint64_t challenges_issued = 0;
  std::uint64_t challenges_expired = 0;    ///< retired past their TTL
  std::uint64_t challenges_superseded = 0; ///< evicted by capacity
  /// Reports that passed protocol checks AND the full §III verdict.
  std::uint64_t reports_accepted = 0;
  /// Reports that reached verification but failed the §III verdict.
  std::uint64_t reports_rejected_verdict = 0;
  /// Histogram of submissions that never reached verification, indexed by
  /// proto_error (transport damage, unknown device, nonce bookkeeping).
  /// Index 0 (proto_error::none) is always 0.
  std::array<std::uint64_t, proto::proto_error_count> rejected_by_error{};
  /// Replay outcomes of DIALED-mode verdicts that passed the MAC: hits
  /// reused the device's last accepted round (byte-identical OR), misses
  /// ran the replay. The names predate the per-device reuse and are kept
  /// for the dashboards and the perf ledger.
  std::uint64_t replay_memo_hits = 0;
  std::uint64_t replay_memo_misses = 0;
  /// Per-device accept/reject/replay breakdown. Only devices that have
  /// hub state appear; submissions for unknown device ids are deliberately
  /// NOT attributed (an attacker spraying bogus ids must not grow this
  /// map).
  std::map<device_id, device_counters> per_device;

  std::uint64_t reports_rejected_protocol() const {
    std::uint64_t n = 0;
    for (const auto v : rejected_by_error) n += v;
    return n;
  }
  std::uint64_t reports_submitted() const {
    return reports_accepted + reports_rejected_verdict +
           reports_rejected_protocol();
  }
};

/// The rich result of one submitted report: a typed protocol error (if the
/// report never reached verification) plus the full §III verdict.
struct attest_result {
  proto_error error = proto_error::none;
  device_id device = 0;
  std::uint32_t seq = 0;
  verifier::verdict verdict;  ///< meaningful only when error == none
  bool accepted() const {
    return error == proto_error::none && verdict.accepted;
  }
};

class hub_like {
 public:
  virtual ~hub_like() = default;

  /// Draw a fresh challenge for a device. Thread-safe.
  virtual challenge_grant challenge(device_id id) = 0;

  /// Decode a wire frame (any supported version) and verify it.
  /// Thread-safe, reentrant.
  virtual attest_result submit(std::span<const std::uint8_t> frame) = 0;

  /// Verify a batch of independent frames on the calling thread; results
  /// come back in input order.
  virtual std::vector<attest_result> verify_batch(
      std::span<const byte_vec> frames) = 0;

  /// Partitions behind this hub; the batcher runs one verify thread per
  /// partition. A bare hub is one partition.
  virtual std::size_t partition_count() const { return 1; }

  /// The partition, in [0, partition_count()), that verifies `frame`.
  virtual std::size_t partition_of(
      std::span<const std::uint8_t> /*frame*/) const {
    return 0;
  }

  /// Advance the monotonic clock by `n` ticks. Thread-safe.
  virtual void tick(std::uint64_t n) = 0;
  void tick() { tick(1); }

  virtual std::uint64_t now() const = 0;

  /// Outstanding (non-expired) challenges for a device.
  virtual std::size_t outstanding(device_id id) const = 0;

  /// Always 0: no implementation keeps a worker pool. Kept only because
  /// the perf ledger (perfledger/) still overrides it; it goes in the
  /// same change as that override.
  virtual std::size_t batch_workers() const { return 0; }

  /// Snapshot of the monotonic counters; pass include_per_device = false
  /// for the cheap lock-free hub-level scalars only.
  virtual hub_stats stats(bool include_per_device = true) const = 0;

  /// Per-partition counter snapshots, for labeled /metrics families.
  /// Empty for an unpartitioned hub (the default); a router returns one
  /// entry per partition, in partition-index order.
  virtual std::vector<hub_stats> partition_stats() const { return {}; }

  // ---- pipeline observability (src/obs) -------------------------------

  /// Aggregate per-stage latency histograms across the whole hub.
  /// Implementations that do not instrument return empty histograms.
  virtual obs::pipeline_snapshot pipeline() const { return {}; }

  /// Per-partition stage histograms, partition-index order. Empty for an
  /// unpartitioned hub (mirrors partition_stats()).
  virtual std::vector<obs::pipeline_snapshot> partition_pipelines() const {
    return {};
  }

  /// Bounded flight-recorder dump (slowest + rejected span traces). A
  /// router merges its partitions' dumps with span_trace::partition set.
  virtual obs::trace_dump traces() const { return {}; }
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_HUB_LIKE_H
