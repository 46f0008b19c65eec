#include "fleet/firmware_catalog.h"

#include <mutex>

namespace dialed::fleet {

firmware_catalog::artifact_ptr firmware_catalog::intern(
    const instr::linked_program& prog) {
  const verifier::firmware_id id =
      verifier::firmware_artifact::fingerprint(prog);
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    const auto it = artifacts_.find(id);
    if (it != artifacts_.end()) return it->second;
  }
  // Build outside the lock — artifact construction (the program copy,
  // predecode, flatten) is the expensive part and must not serialize
  // lookups. The fingerprint above is reused, not recomputed.
  auto built = verifier::firmware_artifact::build(prog, &id);
  std::unique_lock<std::shared_mutex> lk(mu_);
  const auto it = artifacts_.emplace(id, std::move(built)).first;
  return it->second;  // racing interns of the same image: first wins
}

firmware_catalog::artifact_ptr firmware_catalog::find(
    const verifier::firmware_id& id) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  const auto it = artifacts_.find(id);
  return it == artifacts_.end() ? nullptr : it->second;
}

std::size_t firmware_catalog::size() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return artifacts_.size();
}

std::vector<verifier::firmware_id> firmware_catalog::ids() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  std::vector<verifier::firmware_id> out;
  out.reserve(artifacts_.size());
  for (const auto& [id, fw] : artifacts_) out.push_back(id);
  return out;
}

std::size_t firmware_catalog::footprint_bytes() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& [id, fw] : artifacts_) n += fw->footprint_bytes();
  return n;
}

}  // namespace dialed::fleet
