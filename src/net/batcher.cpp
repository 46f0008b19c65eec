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

batcher::batcher(fleet::hub_like& hub, reactor& r) : hub_(hub), reactor_(r) {
  const std::size_t n = std::max<std::size_t>(1, hub.partition_count());
  for (std::size_t p = 0; p < n; ++p) {
    lanes_.push_back(std::make_unique<lane>());
  }
  try {
    for (auto& l : lanes_) {
      l->verifier = std::thread([this, &ln = *l] { verify_loop(ln); });
    }
  } catch (...) {
    stop_verifiers();  // the ones already started
    throw;
  }
}

batcher::~batcher() { stop_verifiers(); }

void batcher::stop_verifiers() {
  for (auto& l : lanes_) {
    {
      std::lock_guard<std::mutex> lk(l->mu);
      l->stop = true;
    }
    l->cv.notify_all();
  }
  for (auto& l : lanes_) {
    if (l->verifier.joinable()) l->verifier.join();
  }
}

void batcher::enqueue(std::uint64_t conn_id, byte_vec frame) {
  lane& l =
      lanes_.size() == 1 ? *lanes_[0] : *lanes_[hub_.partition_of(frame)];
  l.pending.push_back({conn_id, std::move(frame), obs::now_ns()});
  backlog_.fetch_add(1, std::memory_order_relaxed);
}

void batcher::hand_off() {
  for (auto& lp : lanes_) {
    lane& l = *lp;
    if (l.pending.empty()) continue;
    {
      std::lock_guard<std::mutex> lk(l.mu);
      l.queue.insert(l.queue.end(),
                     std::make_move_iterator(l.pending.begin()),
                     std::make_move_iterator(l.pending.end()));
    }
    l.pending.clear();
    l.cv.notify_one();
  }
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
  s.flush_by_cause[static_cast<std::size_t>(flush_cause::idle)] = s.batches;
  s.queue_wait = queue_wait_.snapshot();
  return s;
}

void batcher::verify_loop(lane& l) {
  std::vector<queued_frame> batch;
  std::vector<byte_vec> frames;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(l.mu);
      l.cv.wait(lk, [&] { return l.stop || !l.queue.empty(); });
      if (l.queue.empty()) return;  // stop with nothing left to verify
      const auto end =
          l.queue.begin() + static_cast<long>(
                                std::min(l.queue.size(), max_batch_frames));
      batch.assign(std::make_move_iterator(l.queue.begin()),
                   std::make_move_iterator(end));
      l.queue.erase(l.queue.begin(), end);
    }
    // Queue wait ends here: the frame is about to be verified.
    const auto start = obs::now_ns();
    frames.clear();
    for (auto& q : batch) {
      queue_wait_.record(start > q.enqueued_ns ? start - q.enqueued_ns : 0);
      frames.push_back(std::move(q.frame));
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_frames_.fetch_add(batch.size(), std::memory_order_relaxed);
    hist_[hist_bucket(batch.size())].fetch_add(1, std::memory_order_relaxed);
    auto results = hub_.verify_batch(frames);
    {
      std::lock_guard<std::mutex> lk(l.mu);
      for (std::size_t i = 0; i < results.size(); ++i) {
        l.completions.push_back({batch[i].conn_id, std::move(results[i])});
      }
    }
    backlog_.fetch_sub(batch.size(), std::memory_order_relaxed);
    reactor_.wake();
  }
}

}  // namespace dialed::net
