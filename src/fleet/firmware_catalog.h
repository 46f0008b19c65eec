// Fleet firmware catalog: content-addressed interning of verifier-side
// firmware artifacts.
//
// At fleet scale, devices outnumber firmware images by orders of
// magnitude (SAFE^d, OAT: the verifier amortizes per-image state across
// many provers). The catalog keys each verifier::firmware_artifact by its
// SHA-256 firmware id, so:
//
//   * provisioning a million devices on the same image builds ONE
//     artifact — the registry/hub hold shared_ptr copies, turning
//     O(devices) verifier memory into O(firmwares). intern takes the
//     program by const reference and copies it only on a miss, into the
//     new artifact: a hit costs one fingerprint hash and no copy;
//   * two independently built but byte/metadata-identical programs intern
//     to the same artifact (content addressing, not pointer identity);
//   * artifacts are immutable, so handing the same shared_ptr to any
//     number of verifying threads is safe by construction.
//
// Thread-safety: intern/find/size/ids may be called concurrently;
// lookups take a reader lock. Interning a new image builds the artifact
// outside any lock (it is expensive), then inserts under the writer lock —
// when two threads race on the same new image, the first insert wins and
// both get the same pointer.
#ifndef DIALED_FLEET_FIRMWARE_CATALOG_H
#define DIALED_FLEET_FIRMWARE_CATALOG_H

#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "verifier/firmware_artifact.h"

namespace dialed::fleet {

class firmware_catalog {
 public:
  using artifact_ptr = std::shared_ptr<const verifier::firmware_artifact>;

  /// Intern `prog`: return the existing artifact for its content id, or
  /// build, register and return a new one. `prog` is copied only when its
  /// image is new (into the artifact); a hit costs one fingerprint hash.
  artifact_ptr intern(const instr::linked_program& prog);

  /// nullptr when no artifact with that id was interned.
  artifact_ptr find(const verifier::firmware_id& id) const;

  /// Number of distinct firmware images interned.
  std::size_t size() const;

  std::vector<verifier::firmware_id> ids() const;

  /// Approximate total artifact footprint — the fleet verifier's
  /// O(firmwares) memory term.
  std::size_t footprint_bytes() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<verifier::firmware_id, artifact_ptr> artifacts_;
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_FIRMWARE_CATALOG_H
