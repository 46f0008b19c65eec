// Adaptive frame batching for the attestation service: arriving report
// frames are coalesced into verify_batch calls, trading latency against
// throughput with two knobs —
//
//   batch_max        flush when this many frames have accumulated
//                    (throughput: amortize per-batch overhead)
//   batch_latency_ms flush when the OLDEST pending frame has waited this
//                    long (latency bound: no frame waits forever for a
//                    batch to fill)
//
// plus the adaptive rule that makes light load fast WITHOUT burning the
// latency budget: when a verify dispatcher is idle, its pending frames
// flush at the end of the current reactor turn (so frames arriving in
// one readiness burst still coalesce), and only while a batch is already
// verifying do new arrivals accumulate toward batch_max/latency. Under
// load the dispatcher is always busy, so batches grow toward batch_max;
// idle, a lone frame's latency is one reactor turn.
//
// Threading: one model, a verify thread per partition. The batcher keeps
// one lane per partition of the hub (hub_like::partition_count()), each
// with its own pending buffer, flush state, job queue and long-lived
// dispatcher thread. A frame joins the lane of the partition that owns
// it (hub_like::partition_of), so every verify_batch call carries one
// partition's frames and runs on that partition's thread: partitions
// verify in parallel, and a slow one holds up only its own frames. With
// one partition there is one dispatcher and one verify_batch at a time.
// enqueue/maybe_flush/timeout_ms/drain_completions are reactor-thread-
// only; finished results come back through drain_completions after a
// dispatcher wake()s the reactor. The reactor never blocks on
// verification — that is the point.
#ifndef DIALED_NET_BATCHER_H
#define DIALED_NET_BATCHER_H

#include <array>
#include <atomic>
#include <chrono>
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

struct batcher_config {
  std::size_t batch_max = 64;
  std::uint32_t batch_latency_ms = 5;
};

/// One verified frame's way home: which connection gets the response.
struct completion {
  std::uint64_t conn_id = 0;
  fleet::attest_result result;
};

/// Batch-size histogram: bucket i counts batches of size in
/// (2^(i-1), 2^i]; the last bucket is unbounded.
constexpr std::size_t batch_hist_buckets = 11;

/// Why a batch left a pending buffer: it filled (size), the oldest frame
/// hit the latency bound (deadline), or its lane's dispatcher was idle at
/// end of turn (idle — the adaptive fast path under light load).
enum class flush_cause : std::uint8_t { size, deadline, idle };
constexpr std::size_t flush_cause_count = 3;
const char* to_string(flush_cause c);

class batcher {
 public:
  batcher(fleet::hub_like& hub, batcher_config cfg, reactor& r);
  ~batcher();

  batcher(const batcher&) = delete;
  batcher& operator=(const batcher&) = delete;

  // ---- reactor thread ------------------------------------------------

  void enqueue(std::uint64_t conn_id, byte_vec frame);

  /// Apply the flush policy; call once per reactor turn.
  void maybe_flush(std::chrono::steady_clock::time_point now);

  /// Epoll timeout needed to honor the latency bound: ms until the
  /// earliest deadline of any lane's oldest pending frame, or -1 when
  /// nothing is pending.
  int timeout_ms(std::chrono::steady_clock::time_point now) const;

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
    /// Batches flushed, by cause (sums to `batches`).
    std::array<std::uint64_t, flush_cause_count> flush_by_cause{};
    /// Per-frame wait from enqueue to the start of its verify_batch call
    /// (pending buffer + job queue time — the batching latency cost).
    obs::histogram_snapshot queue_wait;
  };
  stats snapshot() const;

 private:
  struct batch {
    std::vector<std::uint64_t> conn_ids;
    std::vector<byte_vec> frames;
    std::vector<std::uint64_t> enqueued_ns;  ///< obs::now_ns at enqueue
  };

  /// One partition's verify path.
  struct lane {
    // Reactor-thread state.
    batch pending;
    std::chrono::steady_clock::time_point oldest;

    // Dispatcher handoff.
    std::mutex mu;
    std::condition_variable cv;
    std::deque<batch> jobs;
    std::vector<completion> completions;
    bool stop = false;
    std::atomic<bool> busy{false};

    std::thread dispatcher;
  };

  void flush_pending(lane& l, flush_cause cause);
  void dispatcher_loop(lane& l);
  /// Stop every lane's dispatcher once its queue drains, and join it.
  void stop_dispatchers();

  fleet::hub_like& hub_;
  batcher_config cfg_;
  reactor& reactor_;

  std::atomic<std::size_t> backlog_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batch_frames_{0};
  std::array<std::atomic<std::uint64_t>, batch_hist_buckets> hist_{};
  std::array<std::atomic<std::uint64_t>, flush_cause_count> flushes_{};
  obs::latency_histogram queue_wait_;

  /// Last: the dispatchers use everything above.
  std::vector<std::unique_ptr<lane>> lanes_;  ///< index = partition
};

}  // namespace dialed::net

#endif  // DIALED_NET_BATCHER_H
