#include "fleet/partition.h"

#include <algorithm>
#include <filesystem>

#include "common/error.h"
#include "proto/wire.h"
#include "store/codec.h"
#include "store/state_image.h"

namespace dialed::fleet {

namespace fs = std::filesystem;

namespace {

constexpr std::array<std::uint8_t, 4> manifest_magic = {'D', 'L', 'P',
                                                        'M'};
constexpr std::uint32_t manifest_version = 1;

}  // namespace

// ---------------------------------------------------------------------------
// partition_router
// ---------------------------------------------------------------------------

partition_router::partition_router(std::vector<hub_like*> partitions,
                                   router_config cfg)
    : cfg_(cfg), parts_(partitions.size()) {
  if (partitions.empty()) {
    throw error("partition_router: at least one partition required");
  }
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    parts_[i].store(partitions[i], std::memory_order_release);
  }
  ring_.reserve(partitions.size() * cfg_.vnodes);
  for (std::uint32_t p = 0; p < partitions.size(); ++p) {
    const std::uint64_t pmix = mix64(cfg_.seed ^ mix64(p));
    for (std::uint32_t v = 0; v < cfg_.vnodes; ++v) {
      ring_.emplace_back(mix64(pmix ^ v), p);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t partition_router::index_of(device_id id) const {
  if (parts_.size() == 1) return 0;
  const std::uint64_t h = mix64(cfg_.seed ^ mix64(id));
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), h,
      [](std::uint64_t v, const auto& e) { return v < e.first; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

hub_like* partition_router::replace(std::size_t idx, hub_like* hub) {
  return parts_[idx].exchange(hub, std::memory_order_acq_rel);
}

challenge_grant partition_router::challenge(device_id id) {
  return at(index_of(id))->challenge(id);
}

std::size_t partition_router::partition_of(
    std::span<const std::uint8_t> frame) const {
  // Route on the sniffed header id; a frame too damaged to sniff goes to
  // partition 0, whose decoder rejects it with the same typed error a
  // bare hub would (a lying-but-sniffable header reaches a partition
  // that does not know the device: unknown_device, again hub-identical).
  const auto id = proto::peek_device_id(frame);
  return id ? index_of(*id) : 0;
}

attest_result partition_router::submit(
    std::span<const std::uint8_t> frame) {
  return at(partition_of(frame))->submit(frame);
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
    return at(first)->verify_batch(frames);
  }

  // Mixed batch (library callers only): submit frame by frame on this
  // thread. Partitions share no state, so input order is as good as any.
  std::vector<attest_result> out;
  out.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out.push_back(at(owner[i])->submit(frames[i]));
  }
  return out;
}

void partition_router::tick(std::uint64_t n) {
  for (std::size_t p = 0; p < parts_.size(); ++p) at(p)->tick(n);
}

std::uint64_t partition_router::now() const {
  std::uint64_t now = 0;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    now = std::max(now, at(p)->now());
  }
  return now;
}

std::size_t partition_router::outstanding(device_id id) const {
  return at(index_of(id))->outstanding(id);
}

hub_stats partition_router::stats(bool include_per_device) const {
  hub_stats total;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    const auto s = at(p)->stats(include_per_device);
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
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    out.push_back(at(p)->stats(/*include_per_device=*/false));
  }
  return out;
}

obs::pipeline_snapshot partition_router::pipeline() const {
  obs::pipeline_snapshot total;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    total.merge(at(p)->pipeline());
  }
  return total;
}

std::vector<obs::pipeline_snapshot> partition_router::partition_pipelines()
    const {
  std::vector<obs::pipeline_snapshot> out;
  out.reserve(parts_.size());
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    out.push_back(at(p)->pipeline());
  }
  return out;
}

obs::trace_dump partition_router::traces() const {
  obs::trace_dump merged;
  std::size_t slow_cap = 0;
  std::size_t rejected_cap = 0;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    auto d = at(p)->traces();
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

namespace {

void check_or_write_manifest(const std::string& dir, std::size_t n,
                             const router_config& rcfg) {
  const fs::path path = fs::path(dir) / partitioned_fleet::manifest_file;
  if (const auto data = store::read_file(path)) {
    if (data->size() < 8 ||
        !std::equal(manifest_magic.begin(), manifest_magic.end(),
                    data->begin())) {
      throw store_error(store_error_kind::bad_magic,
                        path.string() +
                            ": not a DIALED partition manifest");
    }
    const std::uint32_t stored_crc = load_le32(*data, data->size() - 4);
    const std::span<const std::uint8_t> guarded(data->data(),
                                                data->size() - 4);
    if (store::crc32(guarded) != stored_crc) {
      throw store_error(store_error_kind::crc_mismatch,
                        path.string() + ": manifest CRC mismatch");
    }
    store::reader r(guarded.subspan(4), path.string());
    const std::uint32_t version = r.u32();
    if (version != manifest_version) {
      throw store_error(store_error_kind::bad_version,
                        path.string() + ": manifest version " +
                            std::to_string(version));
    }
    const std::uint32_t parts = r.u32();
    const std::uint32_t vnodes = r.u32();
    const std::uint64_t seed = r.u64();
    if (parts != n || vnodes != rcfg.vnodes || seed != rcfg.seed) {
      // Placement is anti-replay-load-bearing: a device re-hashed onto a
      // partition that never saw its consumed nonces would accept their
      // replays. Refuse, loudly.
      throw store_error(
          store_error_kind::partition_mismatch,
          path.string() + ": fleet was partitioned as " +
              std::to_string(parts) + "x (vnodes " +
              std::to_string(vnodes) + ", seed " + std::to_string(seed) +
              "), reopened as " + std::to_string(n) + "x (vnodes " +
              std::to_string(rcfg.vnodes) + ", seed " +
              std::to_string(rcfg.seed) +
              ") — re-partitioning would strand anti-replay state");
    }
    return;
  }
  store::writer w;
  w.raw(manifest_magic);
  w.u32(manifest_version);
  w.u32(static_cast<std::uint32_t>(n));
  w.u32(rcfg.vnodes);
  w.u64(rcfg.seed);
  w.u32(store::crc32(w.data()));
  store::write_file_atomic(path, w.data());
}

}  // namespace

partitioned_fleet partitioned_fleet::create(std::size_t n,
                                            byte_vec master_key,
                                            hub_config hub_cfg,
                                            router_config rcfg) {
  if (n == 0) throw error("partitioned_fleet: zero partitions");
  partitioned_fleet f;
  f.partitions_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    store::fleet_state st;
    st.catalog = std::make_shared<firmware_catalog>();
    st.registry =
        std::make_unique<device_registry>(master_key, st.catalog);
    st.hub = std::make_unique<verifier_hub>(*st.registry, hub_cfg);
    f.partitions_.push_back(std::move(st));
  }
  std::vector<hub_like*> hubs;
  hubs.reserve(n);
  for (auto& p : f.partitions_) hubs.push_back(p.hub.get());
  f.router_ = std::make_unique<partition_router>(std::move(hubs), rcfg);
  return f;
}

partitioned_fleet partitioned_fleet::open(const std::string& dir,
                                          std::size_t n,
                                          store::fleet_store::options opts,
                                          router_config rcfg) {
  if (n == 0) throw error("partitioned_fleet: zero partitions");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw store_error(store_error_kind::io_error,
                      dir + ": create: " + ec.message());
  }
  check_or_write_manifest(dir, n, rcfg);

  partitioned_fleet f;
  f.partitions_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string pdir =
        (fs::path(dir) / ("p" + std::to_string(i))).string();
    f.partitions_.push_back(store::fleet_store::open(pdir, opts));
  }
  std::vector<hub_like*> hubs;
  hubs.reserve(n);
  for (auto& p : f.partitions_) hubs.push_back(p.hub.get());
  f.router_ = std::make_unique<partition_router>(std::move(hubs), rcfg);
  return f;
}

std::vector<store::fleet_store*> partitioned_fleet::stores() {
  std::vector<store::fleet_store*> out;
  out.reserve(partitions_.size());
  for (auto& p : partitions_) out.push_back(p.store.get());
  return out;
}

std::size_t partitioned_fleet::provision(device_id id,
                                         instr::linked_program prog) {
  const std::size_t p = router_->index_of(id);
  partitions_[p].registry->provision(id, std::move(prog));
  return p;
}

store::fleet_state partitioned_fleet::release_partition(std::size_t i) {
  return std::move(partitions_[i]);
}

void partitioned_fleet::install_partition(std::size_t i,
                                          store::fleet_state st) {
  partitions_[i] = std::move(st);
  router_->replace(i, partitions_[i].hub.get());
}

}  // namespace dialed::fleet
