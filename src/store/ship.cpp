#include "store/ship.h"

#include <algorithm>
#include <filesystem>

#include "obs/event_log.h"

namespace dialed::store {

namespace fs = std::filesystem;

void wal_shipper::add_follower(wal_follower* f) {
  followers_.push_back(f);
  tracked_.push_back(f);
}

ship_stats wal_shipper::stats() const {
  ship_stats s;
  s.records_shipped = records_shipped();
  s.bytes_shipped = bytes_shipped();
  s.snapshots_shipped = snapshots_shipped();
  s.followers = tracked_.size();
  for (const auto* f : tracked_) {
    const auto applied = f->records_applied();
    const auto lag =
        s.records_shipped > applied ? s.records_shipped - applied : 0;
    s.max_lag_records = std::max(s.max_lag_records, lag);
    if (f->error().has_value()) s.any_desync = true;
  }
  return s;
}

wal_follower::wal_follower(std::string dir, follower_config cfg)
    : dir_(std::move(dir)), cfg_(cfg) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw store_error(store_error_kind::io_error,
                      dir_ + ": create: " + ec.message());
  }
}

void wal_follower::latch_locked(store_error err) {
  if (error_) return;
  // The operator-facing moment this follower stops being a standby:
  // say so once, with the cause (stats()/healthz carry it from here on).
  obs::log().emit(obs::log_level::error, "standby_desync",
                  {{"dir", dir_}, {"error", err.what()}});
  error_.emplace(std::move(err));
}

void wal_follower::on_snapshot(std::uint64_t generation,
                               std::span<const std::uint8_t> snapshot) {
  std::lock_guard<std::mutex> lk(mu_);
  if (error_) return;
  if (promoted_) {
    latch_locked(store_error(store_error_kind::ship_desync,
                             dir_ + ": snapshot shipped after promote"));
    return;
  }
  try {
    // Validate before touching disk: a snapshot the promote-time open
    // would refuse must not replace a good one.
    state_image img =
        parse_snapshot(snapshot, dir_ + ": shipped snapshot");
    const fs::path snap = fs::path(dir_) / fleet_store::snapshot_file;
    write_file_atomic(snap, snapshot);
    const fs::path wal =
        fs::path(dir_) / ("wal-" + std::to_string(generation) + ".log");
    // Fresh log for the new generation (truncating any stale file). The
    // previous generation's log is dead weight now that the snapshot
    // covers it; sweep it so the follower dir mirrors a compacted
    // primary (promote()'s open would sweep it anyway).
    if (wal_ != nullptr && have_snapshot_ && generation != gen_) {
      wal_.reset();
      std::error_code ec;
      fs::remove(fs::path(dir_) /
                     ("wal-" + std::to_string(gen_) + ".log"),
                 ec);
    }
    wal_ = std::make_unique<wal_writer>(wal.string(), 0, 0, cfg_.wal);
    img_ = std::move(img);
    img_.wal_generation = generation;
    gen_ = generation;
    have_snapshot_ = true;
  } catch (const store_error& e) {
    latch_locked(e);
  } catch (const std::exception& e) {
    latch_locked(store_error(store_error_kind::io_error,
                             dir_ + ": shipped snapshot: " + e.what()));
  }
}

void wal_follower::on_record(std::uint64_t generation,
                             std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lk(mu_);
  if (error_) return;
  if (promoted_) {
    latch_locked(store_error(store_error_kind::ship_desync,
                             dir_ + ": record shipped after promote"));
    return;
  }
  if (!have_snapshot_) {
    latch_locked(store_error(
        store_error_kind::ship_desync,
        dir_ + ": record shipped before the initial snapshot"));
    return;
  }
  if (generation != gen_) {
    latch_locked(store_error(
        store_error_kind::ship_desync,
        dir_ + ": record for generation " + std::to_string(generation) +
            " while following " + std::to_string(gen_)));
    return;
  }
  try {
    // Validate first — exactly the check promote-time replay would run.
    // A record the image refuses never reaches the follower's disk.
    apply_record(img_, payload,
                 static_cast<std::size_t>(
                     records_applied_.load(std::memory_order_relaxed)));
    wal_->append(payload);
    records_applied_.fetch_add(1, std::memory_order_relaxed);
  } catch (const store_error& e) {
    latch_locked(e);
  } catch (const std::exception& e) {
    latch_locked(store_error(store_error_kind::io_error,
                             dir_ + ": shipped record: " + e.what()));
  }
}

fleet_state wal_follower::promote(fleet_store::options opts) {
  std::unique_ptr<wal_writer> closing;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (error_) throw *error_;
    if (!have_snapshot_) {
      throw store_error(store_error_kind::ship_desync,
                        dir_ + ": promote before the initial snapshot");
    }
    promoted_ = true;
    closing = std::move(wal_);  // close (flush) outside the lock
  }
  closing.reset();
  obs::log().emit(obs::log_level::info, "standby_promoted",
                  {{"dir", dir_},
                   {"generation", gen_},
                   {"records_applied", records_applied()}});
  return fleet_store::open(dir_, std::move(opts));
}

std::optional<store_error> wal_follower::error() const {
  std::lock_guard<std::mutex> lk(mu_);
  return error_;
}

bool wal_follower::synced() const {
  std::lock_guard<std::mutex> lk(mu_);
  return have_snapshot_ && !error_ && !promoted_;
}

std::uint64_t wal_follower::generation() const {
  std::lock_guard<std::mutex> lk(mu_);
  return gen_;
}

}  // namespace dialed::store
