#include "cpu_layout.h"

#include <stdexcept>
#include <string>

namespace ledger {

cpu_layout plan_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  cpu_layout l;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (l.generator < 0) {
      l.generator = cpu;
    } else {
      l.service = cpu;
      break;
    }
  }
  if (l.generator < 0) throw std::runtime_error("no CPU to run on");
  if (l.service < 0) l.service = l.generator;
  return l;
}

void pin_current_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("cannot pin to CPU " + std::to_string(cpu));
  }
}

scoped_pin::scoped_pin(int cpu) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  pin_current_thread(cpu);
}

scoped_pin::~scoped_pin() { sched_setaffinity(0, sizeof saved_, &saved_); }

idle_spinner::idle_spinner(int cpu) {
  thread_ = std::thread([this, cpu] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    sched_param sp{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp);
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  });
}

idle_spinner::~idle_spinner() {
  stop_ = true;
  thread_.join();
}

}  // namespace ledger
