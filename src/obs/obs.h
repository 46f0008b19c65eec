#pragma once

// Pipeline observability core: lock-free log2-bucket latency histograms,
// a per-report span recorder, and a bounded flight recorder keeping full
// traces for the slowest and every rejected report.
//
// Design constraints (this header is included from the verify hot path):
//  - fixed footprint: histograms are flat atomic arrays, the flight
//    recorder is a pair of preallocated rings — no allocation per report;
//  - lock-free recording: histogram bumps are relaxed atomic adds; only
//    the flight recorder takes a (short, uncontended) mutex, and only for
//    reports that qualify as slow or rejected;
//  - zero cost when disabled: a span_recorder constructed disabled never
//    reads the clock.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace dialed::obs {

/// Monotonic nanoseconds (steady clock). The one clock every span uses.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Pipeline stages
// ---------------------------------------------------------------------------

/// The submit -> verify -> journal pipeline, in execution order.
///  - decode: wire frame parse (+ v2.1 delta reconstruction)
///  - journal: nonce match and consume under the hub's mutex (no I/O; the
///    name is kept for the metrics that carry it)
///  - mac: HMAC check over the report (key schedule cached)
///  - replay: MSP430 emulator replay of the execution record
///  - verdict: result compare, baseline adoption, counters
enum class stage : std::uint8_t { decode, journal, mac, replay, verdict };

inline constexpr std::size_t stage_count = 5;

const char* to_string(stage s);

// ---------------------------------------------------------------------------
// Latency histogram (log2 ns buckets)
// ---------------------------------------------------------------------------

/// Bucket i has upper bound 1024ns << i; the last bucket is +Inf.
/// 24 buckets span 1.024us .. ~8.6s, which brackets everything from a
/// sub-microsecond decode to a pathologically stalled fsync.
inline constexpr std::size_t latency_buckets = 24;

constexpr std::uint64_t latency_bucket_bound_ns(std::size_t i) {
  return std::uint64_t{1024} << i;
}

/// Smallest bucket whose upper bound covers `ns`.
inline std::size_t latency_bucket(std::uint64_t ns) {
  if (ns <= 1024) return 0;
  const auto b = static_cast<std::size_t>(std::bit_width((ns - 1) >> 10));
  return b < latency_buckets ? b : latency_buckets - 1;
}

/// Point-in-time copy of one histogram. Counts are per-bucket (not
/// cumulative); `count` is derived from the buckets so one snapshot is
/// always self-consistent (sum of buckets == count), and every field is
/// monotone across successive snapshots of a live histogram.
struct histogram_snapshot {
  std::array<std::uint64_t, latency_buckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  void merge(const histogram_snapshot& o) {
    for (std::size_t i = 0; i < latency_buckets; ++i) buckets[i] += o.buckets[i];
    count += o.count;
    sum_ns += o.sum_ns;
  }
};

/// Fixed-size concurrent histogram. record() is wait-free (two relaxed
/// fetch_adds); snapshot() is a plain relaxed read per bucket.
class latency_histogram {
 public:
  void record(std::uint64_t ns) {
    buckets_[latency_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  histogram_snapshot snapshot() const {
    histogram_snapshot s;
    for (std::size_t i = 0; i < latency_buckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += s.buckets[i];
    }
    s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, latency_buckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// One histogram per pipeline stage, snapshotted together.
struct pipeline_snapshot {
  std::array<histogram_snapshot, stage_count> stages{};

  void merge(const pipeline_snapshot& o) {
    for (std::size_t i = 0; i < stage_count; ++i) stages[i].merge(o.stages[i]);
  }
};

// ---------------------------------------------------------------------------
// Span traces
// ---------------------------------------------------------------------------

/// Full per-report trace: where each stage's time went, plus enough
/// identity (device/seq/partition/error) to find the report in the logs.
struct span_trace {
  std::uint64_t trace_id = 0;  ///< monotone per hub; router keeps them unique per partition
  std::uint64_t start_ns = 0;  ///< steady-clock start (ordering only)
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, stage_count> stage_ns{};
  std::uint32_t device = 0;
  std::uint32_t seq = 0;
  std::uint32_t partition = 0;
  std::uint8_t error = 0;  ///< proto::proto_error numeric value
  bool accepted = false;
};

/// Stack-allocated stage stopwatch threaded through one report's verify.
/// When disabled it never touches the clock — the hot path's only cost is
/// the branch on enabled_.
class span_recorder {
 public:
  explicit span_recorder(bool enabled) : enabled_(enabled) {
    if (enabled_) start_ = last_ = now_ns();
  }

  bool enabled() const { return enabled_; }

  /// Attribute everything since the previous mark to `s`.
  void mark(stage s) {
    if (!enabled_) return;
    const auto t = now_ns();
    attribute(s, t - last_);
    last_ = t;
  }

  /// mark(), minus `exclude_ns` already attributed elsewhere (the verify
  /// call reports its internal mac/replay split; the remainder since the
  /// previous mark is the verdict stage).
  void mark_excluding(stage s, std::uint64_t exclude_ns) {
    if (!enabled_) return;
    const auto t = now_ns();
    const auto span = t - last_;
    attribute(s, span > exclude_ns ? span - exclude_ns : 0);
    last_ = t;
  }

  /// Attribute externally measured time to `s` (no clock read).
  void credit(stage s, std::uint64_t ns) {
    if (enabled_) attribute(s, ns);
  }

  std::uint64_t start_ns() const { return start_; }
  std::uint64_t total_ns() const { return enabled_ ? last_ - start_ : 0; }
  const std::array<std::uint64_t, stage_count>& stage_ns() const { return ns_; }
  /// Bitmask of stages that were marked (a marked stage with 0ns still
  /// counts in its histogram — clock granularity must not drop samples).
  std::uint8_t marked() const { return marked_; }

 private:
  void attribute(stage s, std::uint64_t ns) {
    const auto i = static_cast<std::size_t>(s);
    ns_[i] += ns;
    marked_ |= static_cast<std::uint8_t>(1u << i);
  }

  std::array<std::uint64_t, stage_count> ns_{};
  std::uint64_t start_ = 0;
  std::uint64_t last_ = 0;
  std::uint8_t marked_ = 0;
  bool enabled_;
};

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

struct recorder_config {
  std::size_t slow_capacity = 64;      ///< ring of slowest/near-slowest traces
  std::size_t rejected_capacity = 64;  ///< ring of every rejected report
  /// Traces at/above max(slow_floor_ns, slowest_seen/2) enter the slow
  /// ring: the adaptive bar keeps the ring focused on the current tail
  /// instead of filling with warm-up noise, while the floor suppresses
  /// recording entirely until something is actually slow.
  std::uint64_t slow_floor_ns = 0;
};

/// Everything /debug/traces returns: bounded, point-in-time.
struct trace_dump {
  std::vector<span_trace> slow;      ///< oldest first
  std::vector<span_trace> rejected;  ///< oldest first
  std::uint64_t slowest_ns = 0;
  std::uint64_t slow_recorded = 0;      ///< lifetime admissions to the slow ring
  std::uint64_t rejected_recorded = 0;  ///< lifetime admissions to the rejected ring
  std::size_t slow_capacity = 0;      ///< ring bound the dump came from
  std::size_t rejected_capacity = 0;  ///< (merges stay bounded by ONE ring)
};

/// Two bounded rings behind one mutex. The mutex is only taken for
/// qualifying traces (slow or rejected) and for snapshots; the common
/// accepted-and-fast report pays one relaxed atomic load.
class flight_recorder {
 public:
  explicit flight_recorder(recorder_config cfg = {});

  void record(const span_trace& t);
  trace_dump snapshot() const;
  std::uint64_t slowest_ns() const {
    return slowest_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct ring {
    explicit ring(std::size_t cap) : slots(cap) {}
    std::vector<span_trace> slots;
    std::size_t next = 0;       ///< insertion cursor
    std::uint64_t total = 0;    ///< lifetime admissions
    void push(const span_trace& t) {
      if (slots.empty()) return;
      slots[next] = t;
      next = (next + 1) % slots.size();
      ++total;
    }
    void copy_to(std::vector<span_trace>& out) const;
  };

  recorder_config cfg_;
  std::atomic<std::uint64_t> slowest_ns_{0};
  mutable std::mutex mu_;
  ring slow_;
  ring rejected_;
};

// ---------------------------------------------------------------------------
// Pipeline observer (one per hub)
// ---------------------------------------------------------------------------

struct pipeline_config {
  /// Master switch: false removes every clock read from the hot path
  /// (the overhead bench's baseline).
  bool enabled = true;
  recorder_config recorder{};
};

/// Aggregates one hub's stage histograms and flight recorder. Fixed
/// footprint (a few KB); safe to record from any number of threads.
class pipeline_obs {
 public:
  explicit pipeline_obs(pipeline_config cfg = {})
      : cfg_(cfg), recorder_(cfg.recorder) {}

  bool enabled() const { return cfg_.enabled; }

  /// Fold one report's span into the histograms and, when it qualifies,
  /// the flight recorder.
  void record(const span_recorder& sp, std::uint32_t device, std::uint32_t seq,
              std::uint8_t error, bool accepted);

  pipeline_snapshot snapshot() const {
    pipeline_snapshot s;
    for (std::size_t i = 0; i < stage_count; ++i)
      s.stages[i] = stages_[i].snapshot();
    return s;
  }

  trace_dump traces() const { return recorder_.snapshot(); }

 private:
  pipeline_config cfg_;
  std::array<latency_histogram, stage_count> stages_;
  flight_recorder recorder_;
  std::atomic<std::uint64_t> next_trace_id_{1};
};

}  // namespace dialed::obs
