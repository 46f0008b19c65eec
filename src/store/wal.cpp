#include "store/wal.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "store/codec.h"

namespace dialed::store {

namespace {

[[noreturn]] void io_fail(const std::string& path, const char* what) {
  throw store_error(store_error_kind::io_error,
                    path + ": " + what + ": " + std::strerror(errno));
}

}  // namespace

wal_read_result read_wal(std::span<const std::uint8_t> data) {
  wal_read_result out;
  std::size_t pos = 0;
  while (pos < data.size()) {
    // Header short of 8 bytes, or payload running past EOF: a torn tail
    // by construction — nothing CAN follow an incomplete record.
    if (data.size() - pos < 8) break;
    const std::uint32_t len = load_le32(data, pos);
    const std::uint32_t crc = load_le32(data, pos + 4);
    if (data.size() - pos - 8 < len) break;
    const auto payload = data.subspan(pos + 8, len);
    if (crc32(payload) != crc) {
      if (pos + 8 + len == data.size()) break;  // torn mid-write at EOF
      throw store_error(
          store_error_kind::crc_mismatch,
          "wal: record at offset " + std::to_string(pos) +
              " fails its CRC with intact records following it — "
              "corrupt log, refusing to load");
    }
    if (len == 0) {
      // No writer ever frames an empty payload (the type byte alone is
      // one byte), but crc32("") == 0, so an all-zero run would pass the
      // CRC check. A zero run reaching EOF is the classic power-loss
      // artifact (file extended, data blocks never written) — treat it
      // as a torn tail. Zeros with real data after them are corruption.
      const bool zero_tail =
          std::all_of(data.begin() + static_cast<std::ptrdiff_t>(pos),
                      data.end(),
                      [](std::uint8_t b) { return b == 0; });
      if (zero_tail) break;
      throw store_error(store_error_kind::bad_record,
                        "wal: empty record at offset " +
                            std::to_string(pos) +
                            " with data following it");
    }
    out.records.push_back({byte_vec(payload.begin(), payload.end())});
    pos += 8 + len;
  }
  out.valid_bytes = pos;
  out.torn_tail = pos != data.size();
  return out;
}

wal_writer::wal_writer(std::string path, std::uint64_t truncate_to,
                       std::uint64_t existing_records, wal_options opts)
    : path_(std::move(path)), opts_(opts), records_(existing_records) {
  std::error_code ec;
  const auto existing = std::filesystem::file_size(path_, ec);
  if (!ec && existing > truncate_to) {
    std::filesystem::resize_file(path_, truncate_to, ec);
    if (ec) {
      throw store_error(store_error_kind::io_error,
                        path_ + ": truncating torn tail: " + ec.message());
    }
  }
  f_ = std::fopen(path_.c_str(), "ab");
  if (f_ == nullptr) io_fail(path_, "open");
  bytes_ = ec ? 0 : std::min<std::uint64_t>(existing, truncate_to);
}

wal_writer::~wal_writer() {
  if (f_ != nullptr) std::fclose(f_);
}

void wal_writer::append(std::span<const std::uint8_t> payload) {
  std::array<std::uint8_t, 8> header{};
  store_le32(header, 0, static_cast<std::uint32_t>(payload.size()));
  store_le32(header, 4, crc32(payload));
  std::lock_guard<std::mutex> lk(mu_);
  if (failed_) {
    throw store_error(store_error_kind::io_error,
                      path_ + ": writer poisoned by an earlier failed "
                              "append — reopen the store to recover");
  }
  if (std::fwrite(header.data(), 1, header.size(), f_) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), f_) !=
          payload.size()) {
    fail_locked("append");
  }
  if (std::fflush(f_) != 0) fail_locked("flush");
  if (opts_.sync == wal_sync::per_record) {
    if (::fsync(fileno(f_)) != 0) fail_locked("fsync");
    ++sync_stats_.syncs;
    ++sync_stats_.records;
  }
  bytes_ += header.size() + payload.size();
  ++records_;
}

group_commit_stats wal_writer::sync_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sync_stats_;
}

void wal_writer::fail_locked(const char* what) {
  // A partially-written record mid-file would make every LATER append
  // unreadable (mid-log CRC failure refuses to load), so roll the file
  // back to the last good boundary and poison the writer — further
  // appends fail fast instead of landing after garbage.
  failed_ = true;
  const int err = errno;
  (void)std::fflush(f_);
  (void)::ftruncate(fileno(f_), static_cast<off_t>(bytes_));
  errno = err;
  io_fail(path_, what);
}

void wal_writer::reset_to(std::string path) {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* fresh = std::fopen(path.c_str(), "wb");
  if (fresh == nullptr) io_fail(path, "reset");
  std::fclose(f_);
  f_ = fresh;
  path_ = std::move(path);
  failed_ = false;  // fresh file, clean boundary
  bytes_ = 0;
  records_ = 0;
}

void wal_writer::poison() {
  std::lock_guard<std::mutex> lk(mu_);
  failed_ = true;
}

std::uint64_t wal_writer::bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bytes_;
}

std::uint64_t wal_writer::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

}  // namespace dialed::store
