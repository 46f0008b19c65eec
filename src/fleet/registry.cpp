#include "fleet/registry.h"

#include <mutex>

#include "crypto/hmac.h"

namespace dialed::fleet {

std::string to_string(registry_error_kind k) {
  switch (k) {
    case registry_error_kind::reserved_id: return "reserved_id";
    case registry_error_kind::duplicate_id: return "duplicate_id";
    case registry_error_kind::empty_key: return "empty_key";
    case registry_error_kind::empty_master_key: return "empty_master_key";
  }
  return "unknown";
}

device_registry::device_registry(byte_vec master_key,
                                 std::shared_ptr<firmware_catalog> catalog)
    : master_(std::move(master_key)), catalog_(std::move(catalog)) {
  if (master_.empty()) {
    throw registry_error(registry_error_kind::empty_master_key,
                         "fleet: master key must not be empty");
  }
  if (catalog_ == nullptr) catalog_ = std::make_shared<firmware_catalog>();
}

byte_vec device_registry::derive_key(device_id id) const {
  std::array<std::uint8_t, 4> msg{};
  store_le32(msg, 0, id);
  const auto mac = crypto::hmac_sha256::compute(master_, msg);
  return byte_vec(mac.begin(), mac.end());
}

device_id device_registry::reserve_free_id_locked() {
  while (devices_.count(next_id_) != 0 ||
         reserved_.count(next_id_) != 0) {
    ++next_id_;
  }
  return next_id_++;
}

device_record device_registry::make_record(
    device_id id, byte_vec key, firmware_catalog::artifact_ptr fw) {
  device_record rec;
  rec.id = id;
  rec.key = std::move(key);
  rec.mac_state = crypto::hmac_keystate::derive(rec.key);
  rec.firmware = std::move(fw);
  // Alias into the artifact — record.program shares its control block and
  // costs no copy.
  rec.program = std::shared_ptr<const instr::linked_program>(
      rec.firmware, &rec.firmware->program());
  return rec;
}

device_id device_registry::provision(const instr::linked_program& prog) {
  // Intern before taking the registry lock: a first-seen image builds its
  // artifact, and that must not stall concurrent find() readers.
  auto fw = catalog_->intern(prog);
  std::unique_lock<std::shared_mutex> lk(mu_);
  const device_id id = reserve_free_id_locked();
  device_record rec = make_record(id, derive_key(id), std::move(fw));
  // Journal BEFORE inserting (mirroring verifier_hub::retire): if the
  // append throws, the device must not exist in memory either — a live
  // device the WAL never heard of poisons the next recovery.
  if (sink_ != nullptr) sink_->on_provision(rec);
  devices_.emplace(id, std::move(rec));
  return id;
}

device_id device_registry::provision(device_id id,
                                     const instr::linked_program& prog) {
  if (id == 0) {
    throw registry_error(registry_error_kind::reserved_id,
                         "fleet: device id 0 is reserved");
  }
  // Claim the id BEFORE interning, so a duplicate provisioning — even a
  // racing one — is rejected without polluting the (possibly shared)
  // catalog with an artifact no device references. The intern itself
  // still runs unlocked.
  {
    std::unique_lock<std::shared_mutex> lk(mu_);
    if (devices_.count(id) != 0 || !reserved_.insert(id).second) {
      throw registry_error(registry_error_kind::duplicate_id,
                           "fleet: device id " + std::to_string(id) +
                               " already provisioned");
    }
  }
  firmware_catalog::artifact_ptr fw;
  try {
    fw = catalog_->intern(prog);
  } catch (...) {
    std::unique_lock<std::shared_mutex> lk(mu_);
    reserved_.erase(id);
    throw;
  }
  std::unique_lock<std::shared_mutex> lk(mu_);
  reserved_.erase(id);
  device_record rec = make_record(id, derive_key(id), std::move(fw));
  if (sink_ != nullptr) sink_->on_provision(rec);  // journal-then-insert
  devices_.emplace(id, std::move(rec));
  return id;
}

device_id device_registry::enroll(const instr::linked_program& prog,
                                  byte_vec device_key) {
  if (device_key.empty()) {
    throw registry_error(registry_error_kind::empty_key,
                         "fleet: enroll requires a non-empty device key");
  }
  auto fw = catalog_->intern(prog);
  std::unique_lock<std::shared_mutex> lk(mu_);
  const device_id id = reserve_free_id_locked();
  device_record rec =
      make_record(id, std::move(device_key), std::move(fw));
  if (sink_ != nullptr) sink_->on_provision(rec);  // journal-then-insert
  devices_.emplace(id, std::move(rec));
  return id;
}

void device_registry::restore_device(device_id id, byte_vec key,
                                     firmware_catalog::artifact_ptr fw) {
  if (id == 0) {
    throw registry_error(registry_error_kind::reserved_id,
                         "fleet: device id 0 is reserved");
  }
  if (key.empty()) {
    throw registry_error(registry_error_kind::empty_key,
                         "fleet: restored device " + std::to_string(id) +
                             " has an empty key");
  }
  std::unique_lock<std::shared_mutex> lk(mu_);
  if (devices_.count(id) != 0) {
    throw registry_error(registry_error_kind::duplicate_id,
                         "fleet: device id " + std::to_string(id) +
                             " restored twice");
  }
  devices_.emplace(id, make_record(id, std::move(key), std::move(fw)));
}

device_id device_registry::next_id() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return next_id_;
}

void device_registry::set_next_id(device_id id) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  next_id_ = id;
}

const device_record* device_registry::find(device_id id) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  const auto it = devices_.find(id);
  return it == devices_.end() ? nullptr : &it->second;
}

std::size_t device_registry::size() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return devices_.size();
}

std::vector<device_id> device_registry::ids() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  std::vector<device_id> out;
  out.reserve(devices_.size());
  for (const auto& [id, rec] : devices_) out.push_back(id);
  return out;
}

}  // namespace dialed::fleet
