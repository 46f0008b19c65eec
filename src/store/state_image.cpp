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

fleet::nonce16 read_nonce(reader& r) {
  fleet::nonce16 n{};
  const auto s = r.raw(n.size());
  std::copy(s.begin(), s.end(), n.begin());
  return n;
}

fleet::device_restore& state_for(state_image& img, fleet::device_id id) {
  auto& st = img.states[id];
  st.id = id;
  return st;
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
                  std::size_t record_index, std::size_t retired_memory) {
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
      const fleet::device_id id = r.u32();
      const std::uint32_t seq = r.u32();
      const auto nonce = read_nonce(r);
      const std::uint64_t issued_at = r.u64();
      if (img.devices.count(id) == 0) {
        throw store_error(store_error_kind::bad_record,
                          "wal: challenge for unprovisioned device " +
                              std::to_string(id));
      }
      auto& st = state_for(img, id);
      st.outstanding.push_back({nonce, seq, issued_at});
      st.next_seq = std::max(st.next_seq, seq + 1);
      // tick() journals outside the shard locks, so a challenge that read
      // the advanced clock can beat its tick record into the log (or the
      // tick record can be the torn tail). The clock must never restore
      // BEHIND an issue stamp — unsigned expiry math would treat the
      // challenge as ~2^64 ticks old and expire it on the spot.
      img.now = std::max(img.now, issued_at);
      break;
    }
    case rec::retire: {
      const fleet::device_id id = r.u32();
      const auto nonce = read_nonce(r);
      fleet::nonce_fate fate{};
      if (!fleet::nonce_fate_from_u8(r.u8(), fate)) {
        throw store_error(store_error_kind::bad_record,
                          "wal: invalid nonce fate byte");
      }
      auto& st = state_for(img, id);
      const auto it = std::find_if(
          st.outstanding.begin(), st.outstanding.end(),
          [&](const auto& e) { return e.nonce == nonce; });
      if (it == st.outstanding.end()) {
        throw store_error(store_error_kind::bad_record,
                          "wal: retire of a nonce never outstanding "
                          "(device " +
                              std::to_string(id) + ")");
      }
      st.outstanding.erase(it);
      st.retired.push_back({nonce, fate});
      if (retired_memory != 0 && st.retired.size() > retired_memory) {
        st.retired.erase(st.retired.begin());
      }
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
      if (err == proto::proto_error::none && img.devices.count(id) == 0) {
        throw store_error(store_error_kind::bad_record,
                          "wal: verdict for unprovisioned device " +
                              std::to_string(id));
      }
      break;
    }
    case rec::tick: {
      // Concurrent ticks may journal out of order; keep the maximum so
      // the clock never regresses (expiry must stay monotonic).
      img.now = std::max(img.now, r.u64());
      break;
    }
    case rec::baseline: {
      // An older build's delta baseline: checked like any record, then
      // dropped (baselines are soft state, see fleet/persist.h).
      const fleet::device_id id = r.u32();
      (void)r.u32();    // seq
      (void)r.bytes();  // OR bytes
      if (img.devices.count(id) == 0) {
        throw store_error(store_error_kind::bad_record,
                          "wal: baseline for unprovisioned device " +
                              std::to_string(id));
      }
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

void write_device_state(writer& w, const fleet::device_restore& d) {
  w.u32(d.id);
  w.u32(d.next_seq);
  w.u32(static_cast<std::uint32_t>(d.outstanding.size()));
  for (const auto& c : d.outstanding) {
    w.raw(c.nonce);
    w.u32(c.seq);
    w.u64(c.issued_at);
  }
  w.u32(static_cast<std::uint32_t>(d.retired.size()));
  for (const auto& n : d.retired) {
    w.raw(n.nonce);
    w.u8(static_cast<std::uint8_t>(n.fate));
  }
}

fleet::device_restore read_device_state(reader& r,
                                        std::uint32_t version) {
  fleet::device_restore d;
  d.id = r.u32();
  d.next_seq = r.u32();
  const std::uint32_t nout = r.count(28);
  d.outstanding.reserve(nout);
  for (std::uint32_t i = 0; i < nout; ++i) {
    fleet::device_restore::outstanding_challenge c;
    c.nonce = read_nonce(r);
    c.seq = r.u32();
    c.issued_at = r.u64();
    d.outstanding.push_back(c);
  }
  const std::uint32_t nret = r.count(17);
  d.retired.reserve(nret);
  for (std::uint32_t i = 0; i < nret; ++i) {
    fleet::device_restore::retired_nonce n;
    n.nonce = read_nonce(r);
    if (!fleet::nonce_fate_from_u8(r.u8(), n.fate)) {
      throw store_error(store_error_kind::bad_record,
                        "snapshot: invalid nonce fate byte");
    }
    d.retired.push_back(n);
  }
  if (version == snapshot_version) return d;
  // v2/v3 rows end with the device's stats counters (accepted, rejected
  // verdict, replayed, rejected protocol), v2 rows then with the delta
  // baseline (flag, then seq + OR bytes): read under the same bounds
  // checks, then dropped.
  for (int i = 0; i < 4; ++i) (void)r.u64();
  if (version == snapshot_version_v2 && r.boolean()) {
    (void)r.u32();
    (void)r.bytes();
  }
  return d;
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
  img.now = r.u64();
  img.wal_generation = r.u64();

  if (version != snapshot_version) {
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

  // A v4 row is at least 16 bytes (id, next_seq, two empty counts).
  const std::uint32_t nstate = r.count(16);
  for (std::uint32_t i = 0; i < nstate; ++i) {
    auto d = read_device_state(r, version);
    if (img.devices.count(d.id) == 0) {
      throw store_error(store_error_kind::bad_record,
                        path + ": hub state for unprovisioned device " +
                            std::to_string(d.id));
    }
    const auto id = d.id;
    img.states.emplace(id, std::move(d));
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
  w.u64(img.now);
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

  w.u32(static_cast<std::uint32_t>(img.states.size()));
  for (const auto& [id, d] : img.states) write_device_state(w, d);

  w.u32(crc32(w.data()));
  return w.take();
}

}  // namespace dialed::store
