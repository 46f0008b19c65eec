#include "fleet/verifier_hub.h"

#include <sys/random.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

#include "common/error.h"
#include "obs/event_log.h"

namespace dialed::fleet {

namespace {

/// K_hub: 32 bytes from getrandom(2), or SHA-256(label || LE64(seed)) when
/// the config pins a seed for reproducibility.
crypto::hmac_keystate nonce_key(const std::optional<std::uint64_t>& seed) {
  std::array<std::uint8_t, 32> key{};
  if (seed) {
    constexpr std::string_view label = "dialed/hub-nonce-key/v1";
    byte_vec msg(label.begin(), label.end());
    for (int i = 0; i < 8; ++i) {
      msg.push_back(static_cast<std::uint8_t>(*seed >> (8 * i)));
    }
    key = crypto::sha256::hash(msg);
  } else {
    std::size_t got = 0;
    while (got < key.size()) {
      const ssize_t n = ::getrandom(key.data() + got, key.size() - got, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw error(std::string("verifier_hub: getrandom: ") +
                    std::strerror(errno));
      }
      got += static_cast<std::size_t>(n);
    }
  }
  return crypto::hmac_keystate::derive(key);
}

}  // namespace

verifier_hub::verifier_hub(const device_registry& registry, hub_config cfg)
    : registry_(registry),
      cfg_(cfg),
      nonce_key_(nonce_key(cfg.seed)),
      obs_(cfg.obs) {
  if (cfg_.max_outstanding == 0) cfg_.max_outstanding = 1;
}

verifier_hub::~verifier_hub() = default;

void verifier_hub::retire(device_state& st, std::size_t index,
                          nonce_fate fate) {
  const auto it =
      st.outstanding.begin() + static_cast<std::ptrdiff_t>(index);
  st.retired.push_back({it->nonce, fate});
  while (st.retired.size() > cfg_.retired_memory) st.retired.pop_front();
  st.outstanding.erase(it);
  if (fate == nonce_fate::expired) {
    stats_.challenges_expired.fetch_add(1, std::memory_order_relaxed);
  } else if (fate == nonce_fate::superseded) {
    stats_.challenges_superseded.fetch_add(1, std::memory_order_relaxed);
  }
}

attest_result verifier_hub::rejected(attest_result r, device_state* st) {
  stats_.rejected_by_error[static_cast<std::size_t>(r.error)].fetch_add(
      1, std::memory_order_relaxed);
  if (st != nullptr) {
    auto& c = st->counters;
    if (r.error == proto_error::replayed_report) {
      c.replayed.fetch_add(1, std::memory_order_relaxed);
    } else {
      c.rejected_protocol.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return r;
}

hub_stats verifier_hub::stats(bool include_per_device) const {
  hub_stats s;
  s.challenges_issued =
      stats_.challenges_issued.load(std::memory_order_relaxed);
  s.challenges_expired =
      stats_.challenges_expired.load(std::memory_order_relaxed);
  s.challenges_superseded =
      stats_.challenges_superseded.load(std::memory_order_relaxed);
  s.reports_accepted =
      stats_.reports_accepted.load(std::memory_order_relaxed);
  s.reports_rejected_verdict =
      stats_.reports_rejected_verdict.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.rejected_by_error.size(); ++i) {
    s.rejected_by_error[i] =
        stats_.rejected_by_error[i].load(std::memory_order_relaxed);
  }
  s.replay_memo_hits = stats_.replays_reused.load(std::memory_order_relaxed);
  s.replay_memo_misses = stats_.replays_run.load(std::memory_order_relaxed);
  if (include_per_device) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [id, st] : states_) {
      s.per_device.emplace(id, st.counters.snapshot());
    }
  }
  return s;
}

void verifier_hub::expire_stale(device_state& st, std::uint64_t now) {
  if (cfg_.challenge_ttl == 0) return;
  // Outstanding is ordered by issue time, so expired entries are a
  // prefix.
  while (!st.outstanding.empty() &&
         now - st.outstanding.front().issued_at > cfg_.challenge_ttl) {
    retire(st, 0, nonce_fate::expired);
  }
}

challenge_grant verifier_hub::challenge(device_id id) {
  challenge_grant grant;
  grant.device = id;
  if (registry_.find(id) == nullptr) {
    grant.error = proto_error::unknown_device;
    return grant;
  }
  std::lock_guard<std::mutex> lk(mu_);
  device_state& st = states_[id];
  expire_stale(st, now());
  // Capacity eviction is an explicit, observable event: the grant notes it
  // and a late report for the evicted nonce gets challenge_superseded.
  if (st.outstanding.size() >= cfg_.max_outstanding) {
    retire(st, 0, nonce_fate::superseded);
    grant.note = proto_error::challenge_superseded;
  }
  challenge_entry entry;
  entry.seq = st.next_seq++;
  // nonce = HMAC(K_hub, LE32(device) || LE32(seq))[0..16): fresh for as
  // long as seq never repeats for the device under this hub's key.
  std::array<std::uint8_t, 8> msg{};
  store_le32(msg, 0, id);
  store_le32(msg, 4, entry.seq);
  const auto mac = crypto::hmac_sha256::compute(nonce_key_, msg);
  std::copy_n(mac.begin(), entry.nonce.size(), entry.nonce.begin());
  entry.issued_at = now();
  st.outstanding.push_back(entry);
  grant.seq = entry.seq;
  grant.nonce = entry.nonce;
  stats_.challenges_issued.fetch_add(1, std::memory_order_relaxed);
  return grant;
}

attest_result verifier_hub::observed(const obs::span_recorder& sp,
                                     attest_result r) {
  obs_.record(sp, r.device, r.seq, static_cast<std::uint8_t>(r.error),
              r.accepted());
  if (!r.accepted() && obs::log().should(obs::log_level::debug)) {
    // Rate-limited per process, not per device: a replay flood from one
    // compromised device must not drown the log (the per-device counters
    // and the rejected-trace ring keep the full picture).
    static obs::rate_limit rl(20);
    obs::log().emit(obs::log_level::debug, "report_rejected", rl,
                    {{"device", r.device},
                     {"seq", r.seq},
                     {"error", proto::to_string(r.error)}});
  }
  return r;
}

attest_result verifier_hub::verify_impl(device_id id, std::uint32_t seq,
                                        const verifier::report_view& report,
                                        obs::span_recorder& sp) {
  attest_result r;
  r.device = id;
  r.seq = seq;

  // Phase 1 (under the mutex): nonce bookkeeping. Match the
  // challenge, classify misses, check the sequence number and CONSUME the
  // nonce, capturing the registry record for phase 2. No I/O: challenge
  // state is soft, and a restarted hub never issued this nonce.
  const device_record* rec = nullptr;
  device_state* stp = nullptr;
  std::array<std::uint8_t, 16> nonce{};
  std::shared_ptr<const verifier::accepted_round> prior;
  {
    std::lock_guard<std::mutex> lk(mu_);
    rec = registry_.find(id);
    if (rec == nullptr) {
      r.error = proto_error::unknown_device;
      sp.mark(obs::stage::journal);
      return rejected(r, nullptr);
    }
    device_state& st = states_[id];
    expire_stale(st, now());

    const auto match =
        std::find_if(st.outstanding.begin(), st.outstanding.end(),
                     [&](const challenge_entry& e) {
                       return e.nonce == report.challenge;
                     });
    if (match == st.outstanding.end()) {
      // Classify the miss from the retired-nonce history (newest wins: a
      // nonce can only be retired once, so any hit is authoritative).
      for (auto it = st.retired.rbegin(); it != st.retired.rend(); ++it) {
        if (it->nonce != report.challenge) continue;
        switch (it->fate) {
          case nonce_fate::consumed:
            r.error = proto_error::replayed_report;
            break;
          case nonce_fate::superseded:
            r.error = proto_error::challenge_superseded;
            break;
          case nonce_fate::expired:
            r.error = proto_error::challenge_expired;
            break;
        }
        sp.mark(obs::stage::journal);
        return rejected(r, &st);
      }
      r.error = proto_error::stale_nonce;
      sp.mark(obs::stage::journal);
      return rejected(r, &st);
    }
    if (seq != match->seq) {
      r.error = proto_error::sequence_mismatch;
      sp.mark(obs::stage::journal);
      return rejected(r, &st);
    }

    // Consume the nonce BEFORE verification: even a rejected report burns
    // its challenge (one report per nonce, §III anti-replay). Under
    // concurrency this is also the duplicate-submit tiebreak — exactly
    // one submitter finds the nonce outstanding.
    nonce = match->nonce;
    r.seq = match->seq;
    retire(st, static_cast<std::size_t>(match - st.outstanding.begin()),
           nonce_fate::consumed);
    stp = &st;  // map nodes are address-stable; see threading note below
    prior = st.baseline.round;
  }
  // The journal stage: nonce match and consume under the mutex.
  sp.mark(obs::stage::journal);

  // Phase 2 (no locks held): the expensive MAC + abstract-execution
  // verification, straight off the record's shared per-firmware artifact
  // (immutable, reentrant). The record pointer is stable and its key/
  // firmware/mac_state immutable, so reading them unlocked is safe. The
  // record's precomputed HMAC key schedule skips the per-report ipad/opad
  // rehash of K_dev. `prior` is the device's last accepted round: a
  // byte-identical OR reuses its verdict instead of replaying, after the
  // MAC verified this report.
  verifier::verify_timings vt;
  verifier::verify_timings* const vtp = sp.enabled() ? &vt : nullptr;
  static const std::vector<std::shared_ptr<verifier::policy>> no_policies;
  r.verdict = rec->firmware->verify(report, rec->mac_state, no_policies,
                                    nonce, vtp, prior.get());
  sp.credit(obs::stage::mac, vt.mac_ns);
  sp.credit(obs::stage::replay, vt.replay_ns);
  const bool accepted = r.verdict.accepted;
  if (accepted) {
    // This round is now the proven device state: the delta baseline and
    // the reuse source (accepted verdicts ONLY). A reused verdict matched
    // `prior` byte for byte, so that round stays; otherwise the OR is
    // copied out of the (possibly borrowed) frame. Re-takes the mutex.
    auto round =
        r.verdict.replay == verifier::replay_path::reused
            ? std::move(prior)
            : std::make_shared<const verifier::accepted_round>(
                  verifier::accepted_round{
                      rec->firmware->id(),
                      byte_vec(report.or_bytes.begin(),
                               report.or_bytes.end()),
                      r.verdict});
    adopt_round(id, r.seq, std::move(round));
  }
  // stp stays valid unlocked: std::map nodes are address-stable and
  // device states are never erased; the counters are atomics.
  if (accepted) {
    stats_.reports_accepted.fetch_add(1, std::memory_order_relaxed);
    stp->counters.accepted.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.reports_rejected_verdict.fetch_add(1,
                                              std::memory_order_relaxed);
    stp->counters.rejected_verdict.fetch_add(1,
                                             std::memory_order_relaxed);
  }
  if (r.verdict.replay == verifier::replay_path::reused) {
    stats_.replays_reused.fetch_add(1, std::memory_order_relaxed);
  } else if (r.verdict.replay == verifier::replay_path::replayed) {
    stats_.replays_run.fetch_add(1, std::memory_order_relaxed);
  }
  // Everything since the journal mark that was not MAC or replay work:
  // baseline adoption and counters.
  sp.mark_excluding(obs::stage::verdict, vt.mac_ns + vt.replay_ns);
  return r;
}

std::optional<attest_result> verifier_hub::reconstruct_delta(
    device_id id, std::uint32_t seq, const proto::or_delta& delta,
    verifier::attestation_report& report) {
  attest_result r;
  r.device = id;
  r.seq = seq;
  // The round is referenced under the mutex (another thread's
  // accepted verdict may swap the baseline the instant it is dropped);
  // it is immutable, so the splat happens unlocked.
  std::shared_ptr<const verifier::accepted_round> base;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (registry_.find(id) == nullptr) {
      r.error = proto_error::unknown_device;
      return rejected(r, nullptr);
    }
    device_state& st = states_[id];
    const or_baseline& b = st.baseline;
    if (b.round == nullptr || b.seq != delta.baseline_seq ||
        b.hash != delta.baseline_hash) {
      // Fresh device, desynced prover, or a restart that lost the
      // baseline: the typed signal to resend THIS report as a full
      // frame. Deliberately checked before any nonce bookkeeping — the
      // challenge stays outstanding for the retry.
      r.error = proto_error::baseline_mismatch;
      return rejected(r, &st);
    }
    base = b.round;
  }
  if (proto::apply_or_delta(delta, base->or_bytes, report.or_bytes) !=
      proto_error::none) {
    // Unreachable off the decode path (decode_frame validates segment
    // structure), but hand-built deltas fail closed as transport damage.
    r.error = proto_error::bad_length;
    return rejected(r, nullptr);
  }
  return std::nullopt;
}

void verifier_hub::adopt_round(
    device_id id, std::uint32_t seq,
    std::shared_ptr<const verifier::accepted_round> round) {
  std::lock_guard<std::mutex> lk(mu_);
  device_state& st = states_[id];
  // Newest accepted round wins; with concurrent accepts for one device
  // the table converges on the max seq no matter the interleaving.
  if (st.baseline.round != nullptr && seq <= st.baseline.seq) return;
  st.baseline.seq = seq;
  st.baseline.hash = proto::or_baseline_hash(seq, round->or_bytes);
  // Swap, so the displaced round is freed after the lock is released.
  st.baseline.round.swap(round);
}

attest_result verifier_hub::submit(std::span<const std::uint8_t> frame) {
  obs::span_recorder sp(obs_.enabled());
  // Reentrancy: one decode scratch per thread, so concurrent submits
  // never share a buffer but batches still reuse or_bytes capacity across
  // frames.
  static thread_local proto::decoded_frame scratch;
  // Borrow mode: a full frame's OR stays in `frame` (scratch.or_view
  // points into it) and is verified in place; only an ACCEPTED replayed
  // verdict copies it (into a new accepted_round). Delta frames
  // reconstruct into the thread-local scratch arena below. submit never
  // reads `frame` after returning, honoring the decode_mode::borrow
  // lifetime contract.
  const proto_error err =
      proto::decode_frame_into(frame, scratch, proto::decode_mode::borrow);
  if (err != proto_error::none) {
    attest_result r;
    r.error = err;
    sp.mark(obs::stage::decode);
    return observed(sp, rejected(r, nullptr));
  }
  verifier::report_view view(scratch.report);
  if (scratch.delta.present) {
    // v2.1: rebuild the full OR before anything downstream sees the
    // report — verification below is byte-for-byte the full-frame path.
    // Reconstruction lands in the thread-local scratch report's or_bytes
    // (a per-thread arena whose capacity is recycled across frames).
    if (auto rejected_early = reconstruct_delta(
            scratch.info.device_id, scratch.info.seq, scratch.delta,
            scratch.report)) {
      sp.mark(obs::stage::decode);
      return observed(sp, *rejected_early);
    }
    view.or_bytes = scratch.report.or_bytes;
  } else {
    view.or_bytes = scratch.or_view;  // zero-copy: still in `frame`
  }
  // Decode covers the frame parse plus any v2.1 delta reconstruction.
  sp.mark(obs::stage::decode);
  return observed(sp, verify_impl(scratch.info.device_id, scratch.info.seq,
                                  view, sp));
}

std::vector<attest_result> verifier_hub::verify_batch(
    std::span<const byte_vec> frames) {
  std::vector<attest_result> out(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out[i] = submit(frames[i]);
  }
  return out;
}

std::size_t verifier_hub::outstanding(device_id id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = states_.find(id);
  if (it == states_.end()) return 0;
  const auto& entries = it->second.outstanding;
  if (cfg_.challenge_ttl == 0) return entries.size();
  // Count only live entries: expiry is swept lazily on the challenge /
  // verify paths, but a dead challenge must never be reported as
  // outstanding in the meantime.
  const std::uint64_t t = now();
  return static_cast<std::size_t>(std::count_if(
      entries.begin(), entries.end(), [&](const challenge_entry& e) {
        return t - e.issued_at <= cfg_.challenge_ttl;
      }));
}

}  // namespace dialed::fleet
