#include "store/state_image.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "proto/errors.h"
#include "store/codec.h"

namespace dialed::store {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

std::optional<byte_vec> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return std::nullopt;
  byte_vec data((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw store_error(store_error_kind::io_error,
                      p.string() + ": read failed");
  }
  return data;
}

void write_file_atomic(const fs::path& p, std::span<const std::uint8_t> b) {
  const fs::path tmp = p.string() + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw store_error(store_error_kind::io_error,
                      tmp.string() + ": open: " + std::strerror(errno));
  }
  const bool wrote = std::fwrite(b.data(), 1, b.size(), f) == b.size() &&
                     std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!wrote) {
    throw store_error(store_error_kind::io_error,
                      tmp.string() + ": write: " + std::strerror(errno));
  }
  std::error_code ec;
  fs::rename(tmp, p, ec);
  if (ec) {
    throw store_error(store_error_kind::io_error,
                      p.string() + ": rename: " + ec.message());
  }
}

namespace {

verifier::firmware_id read_fw_id(reader& r) {
  verifier::firmware_id id{};
  const auto s = r.raw(id.size());
  std::copy(s.begin(), s.end(), id.begin());
  return id;
}

/// Older builds persisted a retired nonce's fate as one byte: consumed,
/// superseded or expired. Any other value means the record is corrupt.
void check_fate_byte(reader& r, const std::string& where) {
  if (r.u8() > 2) {
    throw store_error(store_error_kind::bad_record,
                      where + ": invalid nonce fate byte");
  }
}

/// Records and rows written by older builds may only name provisioned
/// devices.
void check_provisioned(const state_image& img, fleet::device_id id,
                       const std::string& what) {
  if (img.devices.count(id) == 0) {
    throw store_error(store_error_kind::bad_record,
                      what + " for unprovisioned device " +
                          std::to_string(id));
  }
}

/// Parse-validate a firmware blob (structure only — the content-id
/// fingerprint check runs at materialize time, where the program is
/// actually rebuilt).
void check_firmware_blob(const byte_vec& blob, const std::string& where) {
  reader pr(blob, where);
  read_program(pr);
  if (!pr.done()) {
    throw store_error(store_error_kind::bad_record,
                      where + " has trailing bytes");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// WAL replay
// ---------------------------------------------------------------------------

void apply_record(state_image& img, std::span<const std::uint8_t> payload,
                  std::size_t record_index) {
  reader r(payload, "wal record " + std::to_string(record_index));
  const std::uint8_t type = r.u8();
  switch (static_cast<rec>(type)) {
    case rec::firmware: {
      const auto id = read_fw_id(r);
      byte_vec blob = r.bytes();
      check_firmware_blob(blob, "wal firmware image");
      img.firmwares[id] = std::move(blob);
      break;
    }
    case rec::provision: {
      const fleet::device_id id = r.u32();
      image_device dev;
      dev.key = r.bytes();
      dev.fw = read_fw_id(r);
      if (img.firmwares.count(dev.fw) == 0) {
        throw store_error(store_error_kind::unknown_firmware,
                          "wal: device " + std::to_string(id) +
                              " references an unpersisted firmware id");
      }
      if (!img.devices.emplace(id, std::move(dev)).second) {
        throw store_error(store_error_kind::bad_record,
                          "wal: device " + std::to_string(id) +
                              " provisioned twice");
      }
      img.next_id = std::max(img.next_id, id + 1);
      break;
    }
    case rec::challenge: {
      // An older build's challenge grant: checked like any record, then
      // dropped (challenges are soft state, see fleet/persist.h).
      const fleet::device_id id = r.u32();
      (void)r.u32();  // seq
      (void)r.raw(sizeof(fleet::nonce16));
      (void)r.u64();  // issue tick
      check_provisioned(img, id, "wal: challenge");
      break;
    }
    case rec::retire: {
      // An older build's nonce retirement: checked, then dropped.
      const fleet::device_id id = r.u32();
      (void)r.raw(sizeof(fleet::nonce16));
      check_fate_byte(r, "wal");
      check_provisioned(img, id, "wal: retire");
      break;
    }
    case rec::verdict: {
      // An older build's stats counter update: checked like any record,
      // then dropped (counters are process-local, see fleet/persist.h).
      const fleet::device_id id = r.u32();
      proto::proto_error err{};
      if (!proto::proto_error_from_u8(r.u8(), err)) {
        throw store_error(store_error_kind::bad_record,
                          "wal: invalid proto_error byte");
      }
      (void)r.boolean();  // accepted
      if (err == proto::proto_error::none) {
        check_provisioned(img, id, "wal: verdict");
      }
      break;
    }
    case rec::tick: {
      // An older build's hub clock: checked, then dropped.
      (void)r.u64();
      break;
    }
    case rec::baseline: {
      // An older build's delta baseline: checked like any record, then
      // dropped (baselines are soft state, see fleet/persist.h).
      const fleet::device_id id = r.u32();
      (void)r.u32();    // seq
      (void)r.bytes();  // OR bytes
      check_provisioned(img, id, "wal: baseline");
      break;
    }
    case rec::boot: {
      // Epochs only grow; max() keeps that true whatever the order.
      img.boot_epoch = std::max(img.boot_epoch, r.u64());
      break;
    }
    default:
      throw store_error(store_error_kind::bad_record,
                        "wal: unknown record type " +
                            std::to_string(type));
  }
  if (!r.done()) {
    throw store_error(store_error_kind::bad_record,
                      "wal: record " + std::to_string(record_index) +
                          " has " + std::to_string(r.remaining()) +
                          " trailing bytes");
  }
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------

namespace {

/// One v2-v4 hub-state row (a device's challenge state), checked and
/// dropped: seq high-water mark, outstanding challenges (nonce, seq,
/// issue tick), retired nonces (nonce, fate); then, in v2/v3, the
/// device's stats counters (accepted, rejected verdict, replayed,
/// rejected protocol), and in v2 the delta baseline (flag, then seq + OR
/// bytes).
void skip_legacy_row(reader& r, const state_image& img,
                     std::uint32_t version, const std::string& path) {
  const fleet::device_id id = r.u32();
  (void)r.u32();  // next seq
  const std::uint32_t nout = r.count(28);
  for (std::uint32_t i = 0; i < nout; ++i) (void)r.raw(28);
  const std::uint32_t nret = r.count(17);
  for (std::uint32_t i = 0; i < nret; ++i) {
    (void)r.raw(sizeof(fleet::nonce16));
    check_fate_byte(r, path + ": snapshot");
  }
  if (version != snapshot_version_v4) {
    for (int i = 0; i < 4; ++i) (void)r.u64();
  }
  if (version == snapshot_version_v2 && r.boolean()) {
    (void)r.u32();
    (void)r.bytes();
  }
  check_provisioned(img, id, path + ": hub state");
}

}  // namespace

state_image parse_snapshot(std::span<const std::uint8_t> data,
                           const std::string& path) {
  if (data.size() < 12 ||
      !std::equal(snapshot_magic.begin(), snapshot_magic.end(),
                  data.begin())) {
    throw store_error(store_error_kind::bad_magic,
                      path + ": not a DIALED fleet snapshot");
  }
  const std::uint32_t version = load_le32(data, 4);
  if (version < snapshot_version_v2 || version > snapshot_version) {
    throw store_error(store_error_kind::bad_version,
                      path + ": snapshot version " +
                          std::to_string(version) +
                          " (this build speaks " +
                          std::to_string(snapshot_version_v2) + ".." +
                          std::to_string(snapshot_version) + ")");
  }
  const std::uint32_t stored_crc = load_le32(data, data.size() - 4);
  const auto guarded = data.subspan(0, data.size() - 4);
  if (crc32(guarded) != stored_crc) {
    throw store_error(store_error_kind::crc_mismatch,
                      path + ": snapshot CRC mismatch — corrupt at "
                             "rest, refusing to load");
  }

  state_image img;
  reader r(guarded.subspan(8), "snapshot");
  img.master_key = r.bytes();
  img.next_id = r.u32();
  if (version == snapshot_version) {
    img.boot_epoch = r.u64();
  } else {
    (void)r.u64();  // v2-v4: the hub clock
  }
  img.wal_generation = r.u64();

  if (version < snapshot_version_v4) {
    // v2/v3 hub-level stats counters: challenges issued, expired and
    // superseded, reports accepted and verdict-rejected, then the
    // per-proto_error histogram. Checked, then dropped.
    for (int i = 0; i < 5; ++i) (void)r.u64();
    const std::uint32_t nerr = r.count(8);
    if (nerr != proto::proto_error_count) {
      throw store_error(store_error_kind::bad_record,
                        path + ": error histogram has " +
                            std::to_string(nerr) + " buckets, expected " +
                            std::to_string(proto::proto_error_count));
    }
    for (std::uint32_t i = 0; i < nerr; ++i) (void)r.u64();
  }

  const std::uint32_t nfw = r.count(36);
  for (std::uint32_t i = 0; i < nfw; ++i) {
    const auto id = read_fw_id(r);
    byte_vec blob = r.bytes();
    check_firmware_blob(blob, path + ": firmware image");
    img.firmwares[id] = std::move(blob);
  }

  const std::uint32_t ndev = r.count(40);
  for (std::uint32_t i = 0; i < ndev; ++i) {
    const fleet::device_id id = r.u32();
    image_device dev;
    dev.key = r.bytes();
    dev.fw = read_fw_id(r);
    if (img.firmwares.count(dev.fw) == 0) {
      throw store_error(store_error_kind::unknown_firmware,
                        path + ": device " + std::to_string(id) +
                            " references a firmware id missing from "
                            "the snapshot");
    }
    if (!img.devices.emplace(id, std::move(dev)).second) {
      throw store_error(store_error_kind::bad_record,
                        path + ": device " + std::to_string(id) +
                            " appears twice");
    }
  }

  if (version != snapshot_version) {
    // A v4 row is at least 16 bytes (id, next_seq, two empty counts).
    const std::uint32_t nstate = r.count(16);
    for (std::uint32_t i = 0; i < nstate; ++i) {
      skip_legacy_row(r, img, version, path);
    }
  }

  if (!r.done()) {
    throw store_error(store_error_kind::bad_record,
                      path + ": snapshot has " +
                          std::to_string(r.remaining()) +
                          " trailing bytes");
  }
  return img;
}

byte_vec serialize_snapshot(const state_image& img,
                            std::uint64_t generation) {
  writer w;
  w.raw(snapshot_magic);
  w.u32(snapshot_version);
  w.bytes(img.master_key);
  w.u32(img.next_id);
  w.u64(img.boot_epoch);
  w.u64(generation);

  w.u32(static_cast<std::uint32_t>(img.firmwares.size()));
  for (const auto& [id, blob] : img.firmwares) {
    w.raw(id);
    w.bytes(blob);
  }

  w.u32(static_cast<std::uint32_t>(img.devices.size()));
  for (const auto& [id, dev] : img.devices) {
    w.u32(id);
    w.bytes(dev.key);
    w.raw(dev.fw);
  }

  w.u32(crc32(w.data()));
  return w.take();
}

}  // namespace dialed::store
