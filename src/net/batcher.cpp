#include "net/batcher.h"

#include <algorithm>

namespace dialed::net {

namespace {

std::size_t hist_bucket(std::size_t n) {
  std::size_t b = 0;
  std::size_t cap = 1;
  while (b + 1 < batch_hist_buckets && n > cap) {
    cap <<= 1;
    ++b;
  }
  return b;
}

}  // namespace

const char* to_string(flush_cause c) {
  switch (c) {
    case flush_cause::size:
      return "size";
    case flush_cause::deadline:
      return "deadline";
    case flush_cause::idle:
      return "idle";
  }
  return "unknown";
}

batcher::batcher(fleet::hub_like& hub, batcher_config cfg, reactor& r)
    : hub_(hub), cfg_(cfg), reactor_(r) {
  const std::size_t n = std::max<std::size_t>(1, hub.partition_count());
  for (std::size_t p = 0; p < n; ++p) {
    lanes_.push_back(std::make_unique<lane>());
  }
  try {
    for (auto& l : lanes_) {
      l->dispatcher = std::thread([this, &ln = *l] { dispatcher_loop(ln); });
    }
  } catch (...) {
    stop_dispatchers();  // the ones already started
    throw;
  }
}

batcher::~batcher() { stop_dispatchers(); }

void batcher::stop_dispatchers() {
  for (auto& l : lanes_) {
    {
      std::lock_guard<std::mutex> lk(l->mu);
      l->stop = true;
    }
    l->cv.notify_all();
  }
  for (auto& l : lanes_) {
    if (l->dispatcher.joinable()) l->dispatcher.join();
  }
}

void batcher::enqueue(std::uint64_t conn_id, byte_vec frame) {
  lane& l =
      lanes_.size() == 1 ? *lanes_[0] : *lanes_[hub_.partition_of(frame)];
  if (l.pending.frames.empty()) {
    l.oldest = std::chrono::steady_clock::now();
  }
  l.pending.conn_ids.push_back(conn_id);
  l.pending.frames.push_back(std::move(frame));
  l.pending.enqueued_ns.push_back(obs::now_ns());
  backlog_.fetch_add(1, std::memory_order_relaxed);
}

void batcher::maybe_flush(std::chrono::steady_clock::time_point now) {
  for (auto& lp : lanes_) {
    lane& l = *lp;
    while (l.pending.frames.size() >= cfg_.batch_max) {
      flush_pending(l, flush_cause::size);
    }
    if (l.pending.frames.empty()) continue;
    const bool idle = [&] {
      if (l.busy.load(std::memory_order_acquire)) return false;
      std::lock_guard<std::mutex> lk(l.mu);
      return l.jobs.empty();
    }();
    const bool deadline =
        now - l.oldest >= std::chrono::milliseconds(cfg_.batch_latency_ms);
    if (idle || deadline) {
      // Deadline wins the label when both hold: the batch was already
      // owed to the latency bound regardless of dispatcher state.
      flush_pending(l, deadline ? flush_cause::deadline : flush_cause::idle);
    }
  }
}

int batcher::timeout_ms(std::chrono::steady_clock::time_point now) const {
  int timeout = -1;
  for (const auto& l : lanes_) {
    if (l->pending.frames.empty()) continue;
    const auto deadline =
        l->oldest + std::chrono::milliseconds(cfg_.batch_latency_ms);
    if (deadline <= now) return 0;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - now)
                        .count();
    // +1: round up so the wakeup lands past the deadline, not just short
    // of it (a 0.4 ms remainder would otherwise spin).
    const int lane_ms = static_cast<int>(ms) + 1;
    if (timeout < 0 || lane_ms < timeout) timeout = lane_ms;
  }
  return timeout;
}

void batcher::flush_pending(lane& l, flush_cause cause) {
  batch& pending = l.pending;
  if (pending.frames.empty()) return;
  batch b;
  const std::size_t take = std::min(pending.frames.size(), cfg_.batch_max);
  if (take == pending.frames.size()) {
    b = std::move(pending);
    pending = {};
  } else {
    b.conn_ids.assign(pending.conn_ids.begin(),
                      pending.conn_ids.begin() + static_cast<long>(take));
    b.frames.assign(std::make_move_iterator(pending.frames.begin()),
                    std::make_move_iterator(pending.frames.begin() +
                                            static_cast<long>(take)));
    b.enqueued_ns.assign(
        pending.enqueued_ns.begin(),
        pending.enqueued_ns.begin() + static_cast<long>(take));
    pending.conn_ids.erase(
        pending.conn_ids.begin(),
        pending.conn_ids.begin() + static_cast<long>(take));
    pending.frames.erase(pending.frames.begin(),
                         pending.frames.begin() + static_cast<long>(take));
    pending.enqueued_ns.erase(
        pending.enqueued_ns.begin(),
        pending.enqueued_ns.begin() + static_cast<long>(take));
    l.oldest = std::chrono::steady_clock::now();
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_frames_.fetch_add(b.frames.size(), std::memory_order_relaxed);
  hist_[hist_bucket(b.frames.size())].fetch_add(1,
                                                std::memory_order_relaxed);
  flushes_[static_cast<std::size_t>(cause)].fetch_add(
      1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(l.mu);
    l.jobs.push_back(std::move(b));
  }
  l.cv.notify_one();
}

std::vector<completion> batcher::drain_completions() {
  std::vector<completion> out;
  for (auto& l : lanes_) {
    std::lock_guard<std::mutex> lk(l->mu);
    if (out.empty()) {
      out.swap(l->completions);
    } else {
      out.insert(out.end(), std::make_move_iterator(l->completions.begin()),
                 std::make_move_iterator(l->completions.end()));
      l->completions.clear();
    }
  }
  return out;
}

batcher::stats batcher::snapshot() const {
  stats s;
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batch_frames = batch_frames_.load(std::memory_order_relaxed);
  s.backlog = backlog_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < batch_hist_buckets; ++i) {
    s.batch_size_hist[i] = hist_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < flush_cause_count; ++i) {
    s.flush_by_cause[i] = flushes_[i].load(std::memory_order_relaxed);
  }
  s.queue_wait = queue_wait_.snapshot();
  return s;
}

void batcher::dispatcher_loop(lane& l) {
  for (;;) {
    batch b;
    {
      std::unique_lock<std::mutex> lk(l.mu);
      l.cv.wait(lk, [&] { return l.stop || !l.jobs.empty(); });
      if (l.jobs.empty()) return;  // stop with nothing left to verify
      b = std::move(l.jobs.front());
      l.jobs.pop_front();
      l.busy.store(true, std::memory_order_release);
    }
    // Queue wait ends here: the frame is about to be verified. Recording
    // on the dispatcher thread keeps the reactor's flush path clean.
    const auto start = obs::now_ns();
    for (const auto enq : b.enqueued_ns) {
      queue_wait_.record(start > enq ? start - enq : 0);
    }
    auto results = hub_.verify_batch(b.frames);
    {
      std::lock_guard<std::mutex> lk(l.mu);
      for (std::size_t i = 0; i < results.size(); ++i) {
        l.completions.push_back({b.conn_ids[i], std::move(results[i])});
      }
      l.busy.store(false, std::memory_order_release);
    }
    backlog_.fetch_sub(b.frames.size(), std::memory_order_relaxed);
    reactor_.wake();
  }
}

}  // namespace dialed::net
