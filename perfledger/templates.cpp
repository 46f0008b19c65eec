#include "templates.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "fleet/registry.h"
#include "proto/prover.h"
#include "rot/attest.h"
#include "verifier/firmware_artifact.h"
#include "verifier/verifier.h"

namespace ledger {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* to_string(report_kind k) {
  switch (k) {
    case report_kind::benign: return "benign";
    case report_kind::door_lock: return "door_lock_attack";
    case report_kind::fig1: return "fig1_attack";
    case report_kind::fig2: return "fig2_attack";
    case report_kind::or_flip: return "or_flip";
    case report_kind::forged_result: return "forged_result";
  }
  return "?";
}

namespace {

int uniform(std::uint64_t& rng, int lo, int hi) {  // inclusive
  return lo + static_cast<int>(splitmix64(rng) %
                               static_cast<std::uint64_t>(hi - lo + 1));
}

std::uint16_t u16(int v) { return static_cast<std::uint16_t>(v); }
std::uint8_t u8(int v) { return static_cast<std::uint8_t>(v); }

/// A device's sensor/command state: each round's inputs are a seeded
/// random walk from the previous round's (the prover resets device memory
/// per invocation, so the inputs are all that varies). `config` is a
/// per-device setting (an alarm threshold) drawn once, as an installer
/// would configure each unit.
struct walk {
  int level = 0;
  int config = 0;
  bool started = false;
};

/// Group order is fleet_groups(): SyringePump, FireSensor,
/// UltrasonicRanger, DoorLock, Fig. 1, Fig. 2. `stratum` in [0, 1) picks
/// the input that sets the op's cost (pump command and volume, ranger
/// pings, keypad outcome, command words); build_pool spreads the strata
/// evenly over a group's templates, so the pool's cost mix — and so the
/// service's work per report — is the same for every seed.
proto::invocation benign_input(std::size_t group, walk& s, double stratum,
                               std::uint64_t& rng) {
  auto pick = [&](int n) { return static_cast<int>(stratum * n); };
  proto::invocation inv;
  switch (group) {
    case 0: {  // pump command with a host-set step limit
      // At most 20 uL (40 steps): larger pushes overflow the 2 KiB OR log
      // and the device aborts the operation.
      const int k = pick(40);
      inv.args[0] = u16(uniform(rng, 40, 200));  // never truncates a command
      inv.net_rx = {u8(k % 2 ? '+' : '-'), u8(1 + k / 2)};
      break;
    }
    case 1: {  // ADC temperature sample against the unit's threshold
      if (!s.started) s.config = uniform(rng, 250, 350);
      s.level = s.started
                    ? std::clamp(s.level + uniform(rng, -15, 15), 100, 500)
                    : uniform(rng, 150, 450);
      inv.args[0] = u16(s.config);
      inv.adc_samples = {u16(s.level)};
      break;
    }
    case 2: {  // echo times around a drifting distance (cm)
      s.level = s.started ? std::clamp(s.level + uniform(rng, -5, 5), 10, 300)
                          : uniform(rng, 10, 300);
      const int n = 2 + pick(5);
      inv.args[0] = u16(n);
      for (int i = 0; i < n; ++i) {
        inv.adc_samples.push_back(u16(s.level * 58 + uniform(rng, -30, 30)));
      }
      break;
    }
    case 3: {  // keypad digits; one attempt in 64 is the master code
      std::vector<std::uint8_t> digits = {3, 1, 4, 1, 5, 9};
      if (pick(64) != 0) {
        for (auto& d : digits) d = u8(uniform(rng, 0, 9));
      }
      inv = apps::door_lock_try(digits);
      break;
    }
    case 4: {  // a safe dose plus up to four more command words
      inv = apps::fig1_benign(uniform(rng, 0, 9));
      const int words = 1 + pick(5);  // the 5-word buffer holds them
      inv.args[0] = u16(words);
      for (int i = 1; i < words; ++i) {
        inv.net_rx.push_back(u8(uniform(rng, 0, 255)));
        inv.net_rx.push_back(u8(uniform(rng, 0, 255)));
      }
      break;
    }
    default:
      inv = apps::fig2_benign(uniform(rng, 0, 999), uniform(rng, 0, 7));
      break;
  }
  s.started = true;
  return inv;
}

double uniform01(std::uint64_t& rng) {
  return static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53;
}

std::array<std::uint8_t, 16> random_nonce(std::uint64_t& rng) {
  std::array<std::uint8_t, 16> n{};
  for (auto& b : n) b = u8(static_cast<int>(splitmix64(rng) & 0xff));
  return n;
}

/// Expected verdict of an attack template, checked offline.
bool rejected_as_expected(const verifier::verdict& v, report_kind k) {
  if (v.accepted) return false;
  switch (k) {
    case report_kind::door_lock:
    case report_kind::fig2:
      return v.has(verifier::attack_kind::data_only_attack);
    case report_kind::fig1:
      return v.has(verifier::attack_kind::control_flow_attack) ||
             v.has(verifier::attack_kind::replay_divergence);
    case report_kind::or_flip:
      return v.has(verifier::attack_kind::mac_invalid);
    case report_kind::forged_result:
      return v.has(verifier::attack_kind::result_forged);
    case report_kind::benign:
      break;
  }
  return false;
}

constexpr int attack_variants = 4;  ///< per attack kind per app group

}  // namespace

template_pool build_pool(const workload& w, std::uint64_t seed) {
  template_pool pool;
  pool.attack_frac = w.attack_frac;
  pool.groups = fleet_groups();
  pool.progs = build_firmwares(pool.groups);
  for (const auto& p : pool.progs) pool.er_bytes.push_back(p.er_bytes());

  const fleet::device_registry keys(master_key());
  std::vector<std::shared_ptr<const verifier::firmware_artifact>> fw;
  for (const auto& p : pool.progs) {
    fw.push_back(verifier::firmware_artifact::build(p));
  }

  pool.devices.resize(fleet_devices());
  for (std::size_t gi = 0; gi < pool.groups.size(); ++gi) {
    const auto& g = pool.groups[gi];
    for (std::uint32_t k = 0; k < g.count; ++k) {
      auto& d = pool.devices[g.first_id + k - 1];
      d.id = g.first_id + k;
      d.group = static_cast<std::uint16_t>(gi);
      d.key_state = crypto::hmac_keystate::derive(keys.derive_key(d.id));
      d.rng = seed ^ (0xa0761d6478bd642fULL * d.id);
    }
  }

  auto add = [&](report_template t) {
    pool.templates.push_back(std::move(t));
    return static_cast<std::uint32_t>(pool.templates.size() - 1);
  };

  // Benign templates: one prover per device walks its own inputs. A round
  // whose attested OR repeats one already in the pool is skipped (up to a
  // few tries), so an attested input recurs only when its device's cycle
  // comes round again — far outside the hub's replay-memo window.
  std::unordered_set<std::string> seen;
  constexpr int max_tries = 16;
  // Per group, a seeded permutation of evenly spaced cost strata, one per
  // template: the seed decides which device gets which stratum, never the
  // set of strata.
  std::vector<std::vector<std::uint32_t>> strata(pool.groups.size());
  std::vector<std::size_t> next_stratum(pool.groups.size(), 0);
  for (std::size_t gi = 0; gi < pool.groups.size(); ++gi) {
    auto& perm = strata[gi];
    perm.resize(pool.groups[gi].count * w.templates_per_device);
    for (std::uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::uint64_t rng = seed ^ (0x853c49e6748fea9bULL * (gi + 1));
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[splitmix64(rng) % i]);
    }
  }
  for (auto& d : pool.devices) {
    proto::prover_device dev(pool.progs[d.group], keys.derive_key(d.id));
    walk s;
    std::uint64_t rng = seed * 0x2545f4914f6cdd1dULL + d.id;
    const auto& perm = strata[d.group];
    for (std::size_t i = 0; i < w.templates_per_device; ++i) {
      const double stratum = (perm[next_stratum[d.group]++] + 0.5) /
                             static_cast<double>(perm.size());
      report_template t;
      for (int tries = 0; tries < max_tries; ++tries) {
        const auto inv = benign_input(d.group, s, stratum, rng);
        t.rep = dev.invoke(random_nonce(rng), inv);
        t.op_cycles = dev.last_op_cycles();
        t.log_bytes = dev.last_log_bytes();
        std::string key(1, static_cast<char>(d.group));
        key.append(t.rep.or_bytes.begin(), t.rep.or_bytes.end());
        if (seen.insert(std::move(key)).second) break;
      }
      t.group = d.group;
      t.signer = d.id;
      d.benign.push_back(add(std::move(t)));
    }
  }
  pool.benign_templates = pool.templates.size();

  // Attack templates, shared by every device of a group and re-signed per
  // device: the group's native attack, an OR byte flipped after signing,
  // and a forged claimed_result.
  if (w.attack_frac > 0) {
    for (std::size_t gi = 0; gi < pool.groups.size(); ++gi) {
      const auto& g = pool.groups[gi];
      const std::uint32_t signer = g.first_id;
      proto::prover_device dev(pool.progs[gi], keys.derive_key(signer));
      std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 0x5bd1e995 * gi;
      walk s;
      std::vector<std::uint32_t> ids;
      auto run = [&](report_kind k, const proto::invocation& inv) {
        report_template t;
        t.group = static_cast<std::uint16_t>(gi);
        t.kind = k;
        t.signer = signer;
        t.rep = dev.invoke(random_nonce(rng), inv);
        t.op_cycles = dev.last_op_cycles();
        t.log_bytes = dev.last_log_bytes();
        if (k == report_kind::or_flip) {
          t.flip_offset = u16(uniform(
              rng, 0, static_cast<int>(t.rep.or_bytes.size()) - 1));
        }
        if (k == report_kind::forged_result) t.rep.claimed_result ^= 1;
        ids.push_back(add(std::move(t)));
      };
      for (int v = 0; v < attack_variants; ++v) {
        std::vector<std::uint8_t> pin(6);
        for (auto& p : pin) p = u8(uniform(rng, 0, 9));
        switch (g.attack) {
          case native_attack::door_lock:
            run(report_kind::door_lock, apps::door_lock_attack(pin));
            break;
          case native_attack::fig1:
            run(report_kind::fig1,
                apps::fig1_attack(pool.progs[gi], uniform(rng, 10, 20)));
            break;
          case native_attack::fig2: {
            auto inv = apps::fig2_attack();
            inv.args[0] = u16(uniform(rng, 0, 999));
            run(report_kind::fig2, inv);
            break;
          }
          case native_attack::none:
            break;
        }
        const double stratum = (v + 0.5) / attack_variants;
        run(report_kind::or_flip, benign_input(gi, s, stratum, rng));
        run(report_kind::forged_result, benign_input(gi, s, stratum, rng));
      }
      for (std::uint32_t k = 0; k < g.count; ++k) {
        pool.devices[g.first_id + k - 1].attacks = ids;
      }
    }
  }
  pool.attack_templates = pool.templates.size() - pool.benign_templates;

  // The offline gate.
  verifier::attestation_report resigned;
  for (std::size_t i = 0; i < pool.templates.size(); ++i) {
    const auto& t = pool.templates[i];
    const auto& signer = pool.devices[t.signer - 1];
    if (!t.rep.exec) {
      throw gate_failure("template " + std::to_string(i) + " (" +
                         pool.groups[t.group].spec.name + " " +
                         to_string(t.kind) + "): the prover run aborted "
                         "(halt code " + std::to_string(t.rep.halt_code) +
                         ")");
    }
    sign_for(pool, t, signer, t.rep.challenge, resigned);
    if (t.kind == report_kind::or_flip) {
      resigned.or_bytes[t.flip_offset] ^= 1;  // undo: compare the MAC input
    }
    if (resigned.mac != t.rep.mac || resigned.or_bytes != t.rep.or_bytes) {
      throw gate_failure("template " + std::to_string(i) + " (" +
                         to_string(t.kind) + ", device " +
                         std::to_string(t.signer) +
                         "): re-signing for the prover's challenge does not "
                         "reproduce the prover's MAC");
    }
    const verifier::op_verifier vrf(fw[t.group],
                                    keys.derive_key(t.signer));
    verifier::attestation_report sent = t.rep;
    if (t.kind == report_kind::or_flip) sent.or_bytes[t.flip_offset] ^= 1;
    const auto v = vrf.verify(sent, t.rep.challenge);
    const bool ok = t.kind == report_kind::benign
                        ? v.accepted
                        : rejected_as_expected(v, t.kind);
    if (!ok) {
      std::string why = v.accepted ? "accepted" : "rejected:";
      for (const auto& f : v.findings) {
        why += " " + verifier::to_string(f.kind);
      }
      throw gate_failure("template " + std::to_string(i) + " (" +
                         pool.groups[t.group].spec.name + " " +
                         to_string(t.kind) + ") verdict mismatch: " + why);
    }
  }

  // Fig. 6: each evaluation app's DIALED build on its representative input.
  for (std::size_t gi = 0; gi < pool.groups.size(); ++gi) {
    const auto& g = pool.groups[gi];
    if (g.attack == native_attack::fig1 || g.attack == native_attack::fig2) {
      continue;
    }
    proto::prover_device dev(pool.progs[gi], keys.derive_key(g.first_id));
    dev.invoke({}, g.spec.representative_input);
    fig6_row r;
    r.app = g.spec.name;
    r.er_bytes = pool.progs[gi].code_size();
    r.op_cycles = dev.last_op_cycles();
    r.log_bytes = dev.last_log_bytes();
    pool.fig6.push_back(r);
  }
  return pool;
}

std::uint32_t next_template(template_pool& pool, device_plan& d) {
  if (!d.attacks.empty() && uniform01(d.rng) < pool.attack_frac) {
    return d.attacks[splitmix64(d.rng) % d.attacks.size()];
  }
  const auto t = d.benign[d.cursor];
  d.cursor = (d.cursor + 1) % static_cast<std::uint32_t>(d.benign.size());
  return t;
}

void sign_for(const template_pool& pool, const report_template& t,
              const device_plan& d, const std::array<std::uint8_t, 16>& nonce,
              verifier::attestation_report& out) {
  out = t.rep;
  out.challenge = nonce;
  rot::attest_input in;
  in.er_min = out.er_min;
  in.er_max = out.er_max;
  in.or_min = out.or_min;
  in.or_max = out.or_max;
  in.exec = out.exec;
  in.challenge = out.challenge;
  in.er_bytes = pool.er_bytes[t.group];
  in.or_bytes = out.or_bytes;
  out.mac = rot::compute_attestation_mac(d.key_state, in);
  if (t.kind == report_kind::or_flip) out.or_bytes[t.flip_offset] ^= 1;
}

}  // namespace ledger
