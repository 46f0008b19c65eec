#include "fleet/partition.h"

#include <algorithm>

#include "common/error.h"
#include "proto/wire.h"

namespace dialed::fleet {

// ---------------------------------------------------------------------------
// partition_router
// ---------------------------------------------------------------------------

partition_router::partition_router(std::vector<hub_like*> partitions)
    : parts_(std::move(partitions)) {
  if (parts_.empty()) {
    throw error("partition_router: at least one partition required");
  }
}

std::size_t partition_router::index_of(device_id id) const {
  return mix64(id) % parts_.size();
}

challenge_grant partition_router::challenge(device_id id) {
  return parts_[index_of(id)]->challenge(id);
}

std::size_t partition_router::partition_of(
    std::span<const std::uint8_t> frame) const {
  // Route on the sniffed header id; a frame too damaged to sniff goes to
  // partition 0, whose decoder rejects it with the same typed error a
  // bare hub would (a sniffable header naming an unknown device gets
  // unknown_device from its owner, again hub-identical).
  const auto id = proto::peek_device_id(frame);
  return id ? index_of(*id) : 0;
}

attest_result partition_router::submit(
    std::span<const std::uint8_t> frame) {
  return parts_[partition_of(frame)]->submit(frame);
}

std::vector<attest_result> partition_router::verify_batch(
    std::span<const byte_vec> frames) {
  if (frames.empty()) return {};

  std::vector<std::size_t> owner(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    owner[i] = partition_of(frames[i]);
  }

  // Single-partition batch (every batch the service's batcher makes):
  // pass the span straight through, zero copies.
  const std::size_t first = owner[0];
  if (std::all_of(owner.begin(), owner.end(),
                  [&](std::size_t p) { return p == first; })) {
    return parts_[first]->verify_batch(frames);
  }

  // Mixed batch (library callers only): submit frame by frame on this
  // thread. Hubs share only the read-mostly registry, so input order is
  // as good as any.
  std::vector<attest_result> out;
  out.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out.push_back(parts_[owner[i]]->submit(frames[i]));
  }
  return out;
}

void partition_router::tick(std::uint64_t n) {
  for (auto* h : parts_) h->tick(n);
}

std::uint64_t partition_router::now() const {
  std::uint64_t now = 0;
  for (const auto* h : parts_) now = std::max(now, h->now());
  return now;
}

std::size_t partition_router::outstanding(device_id id) const {
  return parts_[index_of(id)]->outstanding(id);
}

hub_stats partition_router::stats(bool include_per_device) const {
  hub_stats total;
  for (const auto* h : parts_) {
    const auto s = h->stats(include_per_device);
    total.challenges_issued += s.challenges_issued;
    total.challenges_expired += s.challenges_expired;
    total.challenges_superseded += s.challenges_superseded;
    total.reports_accepted += s.reports_accepted;
    total.reports_rejected_verdict += s.reports_rejected_verdict;
    for (std::size_t i = 0; i < s.rejected_by_error.size(); ++i) {
      total.rejected_by_error[i] += s.rejected_by_error[i];
    }
    total.replay_memo_hits += s.replay_memo_hits;
    total.replay_memo_misses += s.replay_memo_misses;
    // Disjoint by routing, so merge is insertion.
    for (const auto& [id, c] : s.per_device) {
      total.per_device.emplace(id, c);
    }
  }
  return total;
}

std::vector<hub_stats> partition_router::partition_stats() const {
  std::vector<hub_stats> out;
  out.reserve(parts_.size());
  for (const auto* h : parts_) {
    out.push_back(h->stats(/*include_per_device=*/false));
  }
  return out;
}

obs::pipeline_snapshot partition_router::pipeline() const {
  obs::pipeline_snapshot total;
  for (const auto* h : parts_) total.merge(h->pipeline());
  return total;
}

std::vector<obs::pipeline_snapshot> partition_router::partition_pipelines()
    const {
  std::vector<obs::pipeline_snapshot> out;
  out.reserve(parts_.size());
  for (const auto* h : parts_) out.push_back(h->pipeline());
  return out;
}

obs::trace_dump partition_router::traces() const {
  obs::trace_dump merged;
  std::size_t slow_cap = 0;
  std::size_t rejected_cap = 0;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    auto d = parts_[p]->traces();
    slow_cap = std::max(slow_cap, d.slow_capacity);
    rejected_cap = std::max(rejected_cap, d.rejected_capacity);
    for (auto& t : d.slow) t.partition = static_cast<std::uint32_t>(p);
    for (auto& t : d.rejected) t.partition = static_cast<std::uint32_t>(p);
    merged.slow.insert(merged.slow.end(), d.slow.begin(), d.slow.end());
    merged.rejected.insert(merged.rejected.end(), d.rejected.begin(),
                           d.rejected.end());
    merged.slowest_ns = std::max(merged.slowest_ns, d.slowest_ns);
    merged.slow_recorded += d.slow_recorded;
    merged.rejected_recorded += d.rejected_recorded;
  }
  // Keep the dump bounded by ONE partition's ring capacity, not N of
  // them: slow traces compete fleet-wide on duration (slowest last),
  // rejected traces keep the newest by start time (oldest first, like a
  // single hub's ring).
  std::sort(merged.slow.begin(), merged.slow.end(),
            [](const obs::span_trace& a, const obs::span_trace& b) {
              return a.total_ns < b.total_ns;
            });
  if (merged.slow.size() > slow_cap) {
    merged.slow.erase(merged.slow.begin(),
                      merged.slow.end() -
                          static_cast<std::ptrdiff_t>(slow_cap));
  }
  std::sort(merged.rejected.begin(), merged.rejected.end(),
            [](const obs::span_trace& a, const obs::span_trace& b) {
              return a.start_ns < b.start_ns;
            });
  if (merged.rejected.size() > rejected_cap) {
    merged.rejected.erase(merged.rejected.begin(),
                          merged.rejected.end() -
                              static_cast<std::ptrdiff_t>(rejected_cap));
  }
  merged.slow_capacity = slow_cap;
  merged.rejected_capacity = rejected_cap;
  return merged;
}

// ---------------------------------------------------------------------------
// partitioned_fleet
// ---------------------------------------------------------------------------

partitioned_fleet partitioned_fleet::over(store::fleet_state st,
                                          std::size_t n) {
  if (n == 0) throw error("partitioned_fleet: zero partitions");
  partitioned_fleet f;
  f.catalog_ = std::move(st.catalog);
  f.store_ = std::move(st.store);
  f.registry_ = std::move(st.registry);
  f.hubs_.reserve(n);
  f.hubs_.push_back(std::move(st.hub));
  const hub_config cfg = f.hubs_[0]->config();
  while (f.hubs_.size() < n) {
    f.hubs_.push_back(std::make_unique<verifier_hub>(*f.registry_, cfg));
  }
  std::vector<hub_like*> hubs;
  hubs.reserve(n);
  for (auto& h : f.hubs_) hubs.push_back(h.get());
  f.router_ = std::make_unique<partition_router>(std::move(hubs));
  return f;
}

partitioned_fleet partitioned_fleet::create(std::size_t n,
                                            byte_vec master_key,
                                            hub_config hub_cfg) {
  store::fleet_state st;
  st.catalog = std::make_shared<firmware_catalog>();
  st.registry =
      std::make_unique<device_registry>(std::move(master_key), st.catalog);
  st.hub = std::make_unique<verifier_hub>(*st.registry, std::move(hub_cfg));
  return over(std::move(st), n);
}

partitioned_fleet partitioned_fleet::open(const std::string& dir,
                                          std::size_t n,
                                          store::fleet_store::options opts) {
  return over(store::fleet_store::open(dir, std::move(opts)), n);
}

std::size_t partitioned_fleet::provision(
    device_id id, const instr::linked_program& prog) {
  registry_->provision(id, prog);
  return index_of(id);
}

}  // namespace dialed::fleet
