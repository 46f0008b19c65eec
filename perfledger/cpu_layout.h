// Where the ledger's threads run. The service (reactor + batcher
// dispatcher, which verifies) gets one CPU and the load generator another,
// so neither competes with the other for cycles. A SCHED_IDLE spinner on
// the service CPU keeps that CPU from going idle: on a virtualized host an
// idle vCPU can take milliseconds to be scheduled again when a thread
// wakes on it, which otherwise dominates the latency tail. The spinner
// only runs when no service thread is runnable.
#ifndef DIALED_PERFLEDGER_CPU_LAYOUT_H
#define DIALED_PERFLEDGER_CPU_LAYOUT_H

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <thread>

namespace ledger {

struct cpu_layout {
  int service = -1;
  int generator = -1;
};

/// The two highest-numbered CPUs this process may use (service, then
/// generator); both the same CPU when only one is allowed.
cpu_layout plan_cpus();

/// Restrict the calling thread to `cpu`. Threads it starts afterwards
/// inherit the restriction. Throws std::runtime_error on failure.
void pin_current_thread(int cpu);

/// Pins the calling thread to a CPU for the guard's lifetime, then
/// restores its previous CPU set.
class scoped_pin {
 public:
  explicit scoped_pin(int cpu);
  ~scoped_pin();
  scoped_pin(const scoped_pin&) = delete;
  scoped_pin& operator=(const scoped_pin&) = delete;

 private:
  cpu_set_t saved_;
};

/// A SCHED_IDLE busy loop pinned to one CPU (see the file comment).
class idle_spinner {
 public:
  explicit idle_spinner(int cpu);
  ~idle_spinner();
  idle_spinner(const idle_spinner&) = delete;
  idle_spinner& operator=(const idle_spinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace ledger

#endif  // DIALED_PERFLEDGER_CPU_LAYOUT_H
