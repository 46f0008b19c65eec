#include "store/fleet_store.h"

#include "obs/event_log.h"

#include <filesystem>

#include "store/codec.h"
#include "store/ship.h"
#include "verifier/firmware_artifact.h"

namespace dialed::store {

namespace fs = std::filesystem;

namespace {

/// Written at the root of a state directory by builds that kept one
/// store per partition (under p0, p1, ...).
constexpr const char* legacy_partition_manifest = "partitions.meta";

byte_vec serialize_program(const instr::linked_program& prog) {
  writer w;
  write_program(w, prog);
  return w.take();
}

/// "wal-<G>.log" -> G; nullopt for anything else.
std::optional<std::uint64_t> wal_name_generation(const std::string& name) {
  if (name.rfind("wal-", 0) != 0 || !name.ends_with(".log")) {
    return std::nullopt;
  }
  const std::string digits = name.substr(4, name.size() - 8);
  if (digits.empty()) return std::nullopt;
  std::uint64_t g = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    g = g * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return g;
}

}  // namespace

// ---------------------------------------------------------------------------
// fleet_store
// ---------------------------------------------------------------------------

fleet_store::fleet_store(std::string dir, options opts)
    : dir_(std::move(dir)), opts_(std::move(opts)) {}

std::string fleet_store::wal_path(std::uint64_t generation) const {
  return (fs::path(dir_) / ("wal-" + std::to_string(generation) + ".log"))
      .string();
}

fleet_state fleet_store::open(const std::string& dir, options opts) {
  // The retired per-partition layout (a manifest beside dir/p<i> stores)
  // holds its devices below this directory, not in it: opening it as a
  // fresh store would re-provision them under new keys. Refuse before
  // anything is written.
  if (fs::exists(fs::path(dir) / legacy_partition_manifest)) {
    throw store_error(
        store_error_kind::bad_version,
        dir + ": per-partition state layout (" +
            legacy_partition_manifest +
            " with one store per p<i> subdirectory) from an older build; "
            "this build keeps one store in the directory itself");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw store_error(store_error_kind::io_error,
                      dir + ": create: " + ec.message());
  }

  // 1. Snapshot (or a fresh image).
  const fs::path snap_path = fs::path(dir) / snapshot_file;
  state_image img;
  bool had_snapshot = false;
  if (const auto data = read_file(snap_path)) {
    img = parse_snapshot(*data, snap_path.string());
    had_snapshot = true;
    if (!opts.master_key.empty() && opts.master_key != img.master_key) {
      throw store_error(
          store_error_kind::master_key_mismatch,
          snap_path.string() +
              ": caller's master key differs from the persisted one");
    }
  } else {
    img.master_key = opts.master_key;
  }

  // 2. WAL chain replay: generation G (the snapshot's), then G+1, ... —
  // an online compaction that crashed after rolling the log but before
  // publishing the snapshot leaves two consecutive logs, and both hold
  // live history. Only the NEWEST log may end in a torn record; a torn
  // log with a successor was complete when the successor was created,
  // so damage there is corruption, not a crash signature.
  std::unique_ptr<fleet_store> store(
      new fleet_store(dir, std::move(opts)));
  const std::uint64_t chain_start = img.wal_generation;
  std::uint64_t chain_end = chain_start;
  std::uint64_t tail_valid = 0;
  std::uint64_t tail_count = 0;
  std::uint64_t replayed = 0;
  for (std::uint64_t g = chain_start;; ++g) {
    const auto data = read_file(store->wal_path(g));
    if (!data) {
      if (g == chain_start && !fs::exists(store->wal_path(g + 1))) {
        break;  // fresh directory: no log yet
      }
      throw store_error(store_error_kind::crc_mismatch,
                        store->wal_path(g) +
                            ": missing from the WAL chain — a later "
                            "generation exists but this one is gone");
    }
    const auto parsed = read_wal(*data);
    const bool has_next = fs::exists(store->wal_path(g + 1));
    if (parsed.torn_tail && has_next) {
      throw store_error(
          store_error_kind::crc_mismatch,
          store->wal_path(g) +
              ": torn record mid-chain — only the newest WAL "
              "generation may end torn");
    }
    for (std::size_t i = 0; i < parsed.records.size(); ++i) {
      apply_record(img, parsed.records[i].payload, replayed + i);
    }
    replayed += parsed.records.size();
    chain_end = g;
    tail_valid = parsed.valid_bytes;
    tail_count = parsed.records.size();
    if (!has_next) break;
  }
  const bool had_wal_records = replayed > 0;
  store->generation_.store(chain_end, std::memory_order_relaxed);
  img.wal_generation = chain_end;

  // 3. Materialize: catalog (re-intern every image, verifying content
  // ids) and registry — then wire the store in as the registry's sink.
  // The image is COPIED into live objects, not consumed: it becomes the
  // store's mirror, kept in lockstep with the journal from here on.
  // Interning hashes each image once; the artifact's id is that hash.
  fleet_state st;
  st.catalog = std::make_shared<fleet::firmware_catalog>();
  for (const auto& [id, blob] : img.firmwares) {
    reader pr(blob, "firmware image");
    if (st.catalog->intern(read_program(pr))->id() != id) {
      throw store_error(
          store_error_kind::firmware_mismatch,
          "firmware image re-hashes to a different content id — "
          "snapshot/WAL corrupt or built by an incompatible version");
    }
  }

  st.registry = std::make_unique<fleet::device_registry>(img.master_key,
                                                         st.catalog);
  for (const auto& [id, dev] : img.devices) {
    auto fw = st.catalog->find(dev.fw);
    // Unreachable after the parse-time checks, but fail closed anyway.
    if (fw == nullptr) {
      throw store_error(store_error_kind::unknown_firmware,
                        "device " + std::to_string(id) +
                            " references a missing firmware artifact");
    }
    st.registry->restore_device(id, byte_vec(dev.key), std::move(fw));
  }
  st.registry->set_next_id(img.next_id);

  store->wal_ = std::make_unique<wal_writer>(
      store->wal_path(chain_end), tail_valid, tail_count,
      store->opts_.wal);

  st.registry->set_sink(store.get());

  const std::uint64_t epoch = img.boot_epoch + 1;
  img.boot_epoch = epoch;
  store->mirror_ = std::move(img);
  st.store = std::move(store);

  // 4. Make this open's boot epoch durable. Compaction (which also bounds
  // reopen cost and folds a multi-file chain left by an interrupted
  // compaction back to one) carries it in the snapshot; an open that
  // does not compact journals it as a boot record.
  const bool compacted = st.store->opts_.compact_on_open &&
                         (had_wal_records || !had_snapshot ||
                          chain_end != chain_start);
  if (compacted) {
    st.store->compact();
  } else {
    writer w;
    w.u8(static_cast<std::uint8_t>(rec::boot));
    w.u64(epoch);
    std::lock_guard<std::mutex> lk(st.store->log_mu_);
    st.store->journal_locked(w.data());
  }

  // 5. The hub, only now that its epoch is durable. A pinned seed is
  // folded with the epoch (a bijection in the epoch), so no two opens of
  // this directory hand the hub the same nonce key.
  auto hub_cfg = st.store->opts_.hub;
  if (hub_cfg.seed) *hub_cfg.seed ^= mix64(epoch);
  st.hub = std::make_unique<fleet::verifier_hub>(*st.registry, hub_cfg);

  // Best-effort hygiene: logs outside [snapshot generation, current
  // generation] can never be replayed again — a crash mid-compaction
  // can leave one behind, so sweep them now.
  const std::uint64_t keep_min =
      compacted ? st.store->generation() : chain_start;
  const std::uint64_t keep_max = st.store->generation();
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto g =
        wal_name_generation(entry.path().filename().string());
    if (g && (*g < keep_min || *g > keep_max)) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
  return st;
}

void fleet_store::compact() {
  std::lock_guard<std::mutex> compact_lk(compact_mu_);

  // Serialization point: under the journal lock the mirror is exactly
  // the journal's replay, so the snapshot and the new generation's
  // first record cut the history at the same instant. Traffic resumes
  // the moment the lock drops — the file I/O below runs outside it.
  byte_vec snap;
  std::uint64_t old_gen = 0;
  std::uint64_t new_gen = 0;
  {
    std::lock_guard<std::mutex> lk(log_mu_);
    old_gen = generation_.load(std::memory_order_relaxed);
    new_gen = old_gen + 1;
    snap = serialize_snapshot(mirror_, new_gen);
    // Roll BEFORE publishing the snapshot: a crash (or a failed write)
    // between the two leaves snapshot(G) + wal-G + wal-(G+1) — a chain
    // open() replays in full. The reverse order could pair a new
    // snapshot with an old log and double-apply it. reset_to leaves the
    // writer untouched on failure, so a throw here aborts the compact
    // with the store exactly as it was.
    wal_->reset_to(wal_path(new_gen));
    generation_.store(new_gen, std::memory_order_relaxed);
    mirror_.wal_generation = new_gen;
    if (shipper_ != nullptr) shipper_->on_snapshot(new_gen, snap);
  }

  write_file_atomic(fs::path(dir_) / snapshot_file, snap);
  std::error_code ec;
  fs::remove(wal_path(old_gen), ec);  // best-effort cleanup
  obs::log().emit(obs::log_level::info, "store_compacted",
                  {{"dir", dir_},
                   {"generation", new_gen},
                   {"snapshot_bytes", snap.size()}});
}

void fleet_store::attach_shipper(ship_sink* s) {
  std::lock_guard<std::mutex> compact_lk(compact_mu_);
  std::lock_guard<std::mutex> lk(log_mu_);
  shipper_ = s;
  if (s == nullptr) return;
  // Bootstrap: a full snapshot of the current state, cut at the same
  // instant the follower starts seeing records. Named with the CURRENT
  // generation — records already in wal-<G> are inside this snapshot,
  // and the follower only appends what is shipped after it.
  const byte_vec snap = serialize_snapshot(
      mirror_, generation_.load(std::memory_order_relaxed));
  s->on_snapshot(generation_.load(std::memory_order_relaxed), snap);
}

// ---------------------------------------------------------------------------
// Journaling
// ---------------------------------------------------------------------------

void fleet_store::journal_locked(std::span<const std::uint8_t> payload) {
  wal_->append(payload);
  try {
    apply_record(mirror_, payload,
                 static_cast<std::size_t>(wal_->records() - 1));
  } catch (...) {
    // The journal accepted a record its own replay refuses: the mirror
    // (and every follower) has diverged from the log. Poison the writer
    // so the store fails loudly instead of compacting divergent state.
    wal_->poison();
    throw;
  }
  if (shipper_ != nullptr) {
    shipper_->on_record(generation_.load(std::memory_order_relaxed),
                        payload);
  }
}

// ---------------------------------------------------------------------------
// persist_sink
// ---------------------------------------------------------------------------

void fleet_store::on_provision(const fleet::device_record& rec) {
  // First device on a firmware image journals the image itself — the
  // mirror's firmware table IS the dedup set, and one lock hold keeps
  // the image-before-device WAL order atomic against everything else.
  std::lock_guard<std::mutex> lk(log_mu_);
  const auto& fid = rec.firmware->id();
  if (mirror_.firmwares.count(fid) == 0) {
    writer w;
    w.u8(static_cast<std::uint8_t>(rec::firmware));
    w.raw(fid);
    w.bytes(serialize_program(rec.firmware->program()));
    journal_locked(w.data());
  }
  writer w;
  w.u8(static_cast<std::uint8_t>(rec::provision));
  w.u32(rec.id);
  w.bytes(rec.key);
  w.raw(fid);
  journal_locked(w.data());
}

}  // namespace dialed::store
