// A minimal single-threaded epoll reactor: the event-demultiplexing core
// of the attestation service. One thread owns the reactor and runs
// poll(); every registered fd carries a handler pointer that is invoked
// with the ready events. Level-triggered — handlers read/write until
// EAGAIN anyway for throughput, and level-triggering means a handler that
// leaves bytes behind (backpressure pause, bounded work per tick) is
// re-notified instead of wedging, which is the property the per-
// connection backpressure design leans on.
//
// Cross-thread wakeups (a verify thread finishing a batch, a signal
// handler requesting shutdown) go through wake(): an eventfd registered
// internally; write(2) to it is async-signal-safe, so wake() may be
// called from anywhere, including signal context.
//
// Ownership: the reactor never owns handlers or fds — registration is
// borrowing. Handlers deregister (and close) their fd themselves;
// deregistering a fd whose events are still queued in the current
// dispatch round is safe (the round looks handlers up by fd and skips
// ones that vanished). The server defers actual close(2) to the end of
// the round so a closed fd's number cannot be reused (by accept) and
// aliased by a stale queued event mid-round.
#ifndef DIALED_NET_REACTOR_H
#define DIALED_NET_REACTOR_H

#include <cstdint>
#include <map>

namespace dialed::net {

class reactor_handler {
 public:
  virtual ~reactor_handler() = default;
  /// `events` is the epoll event mask (EPOLLIN/EPOLLOUT/EPOLLHUP/...).
  virtual void on_event(std::uint32_t events) = 0;
};

class reactor {
 public:
  reactor();
  ~reactor();

  reactor(const reactor&) = delete;
  reactor& operator=(const reactor&) = delete;

  void add(int fd, std::uint32_t events, reactor_handler* h);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);
  bool watching(int fd) const { return handlers_.count(fd) != 0; }

  /// Wait up to `timeout_ms` (-1 = forever) and dispatch ready events.
  /// Returns the number of fd events dispatched (0 on timeout). Must be
  /// called from the owning thread only.
  int poll(int timeout_ms);

  /// Make a running/future poll() return promptly. Thread- AND
  /// async-signal-safe.
  void wake();

  /// True when a wake() arrived since the last poll that observed one.
  /// poll() drains the eventfd; this flag tells the loop to run its
  /// cross-thread work (completion queues, stop checks).
  bool take_wake() {
    const bool w = woke_;
    woke_ = false;
    return w;
  }

 private:
  int epfd_ = -1;
  int wakefd_ = -1;
  bool woke_ = false;
  std::map<int, reactor_handler*> handlers_;
};

}  // namespace dialed::net

#endif  // DIALED_NET_REACTOR_H
