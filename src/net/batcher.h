// Frame batching for the attestation service: a batch is whatever a
// verify thread finds queued when it is free, up to max_batch_frames.
//
// At the end of every reactor turn the reactor hands each lane's new
// frames to that lane's queue (one lock per lane per turn). Whenever the
// lane's verify thread is free it takes up to max_batch_frames queued
// frames into one verify_batch call, posts the completions, wakes the
// reactor, and loops without sleeping while frames remain. Idle, a lone
// frame is handed off at the end of the turn it arrived in, with no
// timer; under load the thread finds a backlog and batches grow toward
// the cap. Nothing in DIALED's verification spans two reports, so a batch
// is only the unit of one queue lock and one reactor wake-up, and its
// size needs no tuning.
//
// Threading: one model, a verify thread per partition. The batcher keeps
// one lane per partition of the hub (hub_like::partition_count()), each
// with its own pending buffer, queue and long-lived verify thread. A frame
// joins the lane of the partition that owns it (hub_like::partition_of),
// so every verify_batch call carries one partition's frames and runs on
// that partition's thread: partitions verify in parallel, and a slow one
// holds up only its own frames. With one partition there is one verify
// thread and one verify_batch at a time. enqueue/hand_off/
// drain_completions are reactor-thread-only; finished results come back
// through drain_completions after a verify thread wake()s the reactor.
// The reactor never blocks on verification — that is the point.
#ifndef DIALED_NET_BATCHER_H
#define DIALED_NET_BATCHER_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fleet/hub_like.h"
#include "net/reactor.h"
#include "obs/obs.h"

namespace dialed::net {

/// Most frames one verify_batch call carries.
constexpr std::size_t max_batch_frames = 64;

/// One verified frame's way home: which connection gets the response.
struct completion {
  std::uint64_t conn_id = 0;
  fleet::attest_result result;
};

/// Batch-size histogram: bucket i counts batches of size in
/// (2^(i-1), 2^i]; the last bucket is unbounded.
constexpr std::size_t batch_hist_buckets = 11;

/// Kept only because the perf ledger reads stats::flush_by_cause: there is
/// one batch rule, so every batch counts as `idle` and `size` and
/// `deadline` stay 0.
enum class flush_cause : std::uint8_t { size, deadline, idle };
constexpr std::size_t flush_cause_count = 3;

class batcher {
 public:
  batcher(fleet::hub_like& hub, reactor& r);
  ~batcher();

  batcher(const batcher&) = delete;
  batcher& operator=(const batcher&) = delete;

  // ---- reactor thread ------------------------------------------------

  void enqueue(std::uint64_t conn_id, byte_vec frame);

  /// Hand every lane's new frames to its verify thread; call once per
  /// reactor turn.
  void hand_off();

  std::vector<completion> drain_completions();

  /// Frames accepted but not yet verified, over all lanes (pending +
  /// queued + in the batches being verified) — the ingest-side
  /// backpressure signal.
  std::size_t backlog() const {
    return backlog_.load(std::memory_order_relaxed);
  }

  // ---- any thread ----------------------------------------------------

  struct stats {
    std::uint64_t batches = 0;
    std::uint64_t batch_frames = 0;
    std::uint64_t backlog = 0;  ///< gauge
    std::array<std::uint64_t, batch_hist_buckets> batch_size_hist{};
    /// Inert (see flush_cause): flush_by_cause[idle] == batches.
    std::array<std::uint64_t, flush_cause_count> flush_by_cause{};
    /// Per-frame wait from enqueue to the start of its verify_batch call
    /// (pending buffer + queue time — the batching latency cost).
    obs::histogram_snapshot queue_wait;
  };
  stats snapshot() const;

 private:
  struct queued_frame {
    std::uint64_t conn_id = 0;
    byte_vec frame;
    std::uint64_t enqueued_ns = 0;  ///< obs::now_ns at enqueue
  };

  /// One partition's verify path.
  struct lane {
    std::vector<queued_frame> pending;  ///< reactor thread only

    // Verify-thread handoff.
    std::mutex mu;
    std::condition_variable cv;
    std::deque<queued_frame> queue;
    std::vector<completion> completions;
    bool stop = false;

    std::thread verifier;
  };

  void verify_loop(lane& l);
  /// Stop every lane's verify thread once its queue drains, and join it.
  void stop_verifiers();

  fleet::hub_like& hub_;
  reactor& reactor_;

  std::atomic<std::size_t> backlog_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batch_frames_{0};
  std::array<std::atomic<std::uint64_t>, batch_hist_buckets> hist_{};
  obs::latency_histogram queue_wait_;

  /// Last: the verify threads use everything above.
  std::vector<std::unique_ptr<lane>> lanes_;  ///< index = partition
};

}  // namespace dialed::net

#endif  // DIALED_NET_BATCHER_H
