// The load generator: ONE thread driving up to nproc TCP connections to
// the service through epoll, speaking the real challenge -> report ->
// attest_resp protocol. Every device has at most one round in flight and
// belongs to one connection, so a device's rounds (and its v2.1 delta
// baselines) stay in order.
//
//   closed loop  every connection keeps `window` rounds in flight; a
//                completed round starts the next one at once
//   open loop    rounds start on a seeded Poisson schedule at a fixed
//                rate, whatever the service's state; a round is timed
//                from its scheduled start, so generator lateness and
//                service stalls both count against it
//
// The generator never blocks: it polls epoll without a timeout on its own
// CPU (cpu_layout.h), so its CPU never goes idle and an arrival is never
// late by a vCPU wake-up. It yields when nothing is ready, which matters
// only if it shares its CPU.
//
// Every attest_resp is checked against its template's expected outcome
// (benign accepted, attack or forged rejected). A protocol error, a wrong
// verdict, an unexpected message or a round left unanswered at the end of
// the drain counts as failed.
#ifndef DIALED_PERFLEDGER_LOADGEN_H
#define DIALED_PERFLEDGER_LOADGEN_H

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "net/framer.h"
#include "proto/prover.h"
#include "templates.h"
#include "traced_hub.h"

namespace ledger {

/// Marks a latency sample whose round failed or was never answered: it
/// counts as over any limit.
constexpr std::uint64_t failed_latency = std::numeric_limits<std::uint64_t>::max();

/// Resident set size of this process, from /proc/self/statm (0 if
/// unreadable).
std::uint64_t rss_bytes();

struct phase_result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  /// Closed loop: verdicts per second in each measurement interval.
  std::vector<double> interval_rates;
  /// Open loop, rounds scheduled inside the measurement window: scheduled
  /// start -> attest_resp (failed_latency for failures).
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> latency_sched_ns;  ///< scheduled start, same order
  std::vector<std::uint64_t> lag_ns;      ///< actual start - scheduled
  std::vector<std::uint64_t> chal_rtt_ns; ///< challenge_req -> resp
  std::vector<std::uint64_t> report_rtt_ns;  ///< report sent -> attest_resp
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t op_cycles_sum = 0;  ///< over reports sent
  std::uint64_t log_bytes_sum = 0;
  std::uint64_t er_bytes_sum = 0;
  double measure_s = 0;   ///< measurement window length
  /// Open loop: time the load thread spent handling arrivals and
  /// responses inside the window (spinning idle excluded).
  double busy_s = 0;
  std::uint64_t rss_peak_bytes = 0;
};

class load_generator {
 public:
  load_generator(template_pool& pool, const workload& w, std::uint16_t port,
                 std::size_t connections, bool record_spans);
  ~load_generator();

  load_generator(const load_generator&) = delete;
  load_generator& operator=(const load_generator&) = delete;

  phase_result run_closed(double warmup_s, double measure_s,
                          std::size_t window, std::size_t intervals);
  phase_result run_open(double warmup_s, double measure_s, double rate,
                        std::uint64_t seed);

  /// Client-side spans (round, challenge, report) of the open loop's
  /// measured rounds, when constructed with record_spans.
  std::deque<span> take_spans() { return std::move(spans_); }
  /// Up to `frame_sample_cap` of the latest report frames sent.
  const std::vector<dialed::byte_vec>& frame_sample() const {
    return frame_sample_;
  }
  const dialed::proto::delta_emitter::stats& delta_stats() const {
    return emitter_.transport_stats();
  }

 private:
  struct round {
    bool active = false;
    bool reported = false;  ///< report sent, awaiting attest_resp
    bool measured = false;  ///< inside the measurement window
    std::uint32_t conn = 0;
    std::uint32_t tmpl = 0;
    std::uint32_t seq = 0;
    std::uint64_t sched_ns = 0;
    std::uint64_t chal_sent_ns = 0;
    std::uint64_t chal_recv_ns = 0;
    std::uint64_t rep_sent_ns = 0;
    dialed::verifier::attestation_report rep;  ///< as signed and sent
  };
  struct connection {
    int fd = -1;
    dialed::byte_vec out;
    std::size_t out_pos = 0;
    dialed::net::stream_framer framer;
    std::deque<std::uint32_t> idle;  ///< device ids ready for a round
  };
  enum class mode { closed, open };

  bool start_round(std::size_t c, std::uint64_t sched_ns);
  void on_frame(std::size_t c, const dialed::byte_vec& frame);
  void on_challenge(std::size_t c, const dialed::net::challenge_resp& m);
  void on_verdict(std::size_t c, const dialed::net::attest_resp& m);
  void finish(std::uint32_t device, bool ok, const std::string& why);
  void read_conn(std::size_t c);
  void flush(std::size_t c);
  /// One non-blocking epoll pass (read, dispatch, flush); yields the CPU
  /// when nothing was ready. Returns the number of ready events.
  int poll_once();
  void drain();
  void sample_rss();
  void begin_phase(mode m);
  void note_failure(std::string why);
  /// A message that matches no round in flight: a failure of its own.
  void stray(std::string why);

  template_pool& pool_;
  const workload& w_;
  bool record_spans_;
  int epfd_ = -1;
  std::vector<connection> conns_;
  std::vector<round> rounds_;  ///< by device id
  dialed::proto::delta_emitter emitter_;
  dialed::byte_vec frame_buf_;
  dialed::byte_vec rx_frame_;

  // Current phase.
  mode mode_ = mode::closed;
  phase_result* res_ = nullptr;
  std::uint64_t window_start_ns_ = 0;
  std::uint64_t window_end_ns_ = 0;
  bool starting_ = true;  ///< closed loop: completions start new rounds
  std::size_t inflight_ = 0;
  std::deque<std::uint64_t> late_;  ///< open loop: due arrivals with no free device
  std::vector<std::uint64_t> interval_counts_;
  std::uint64_t interval_ns_ = 0;
  std::uint64_t last_rss_ns_ = 0;

  std::deque<span> spans_;  ///< deque: growth never copies old spans
  std::uint64_t next_span_ = 1ULL << 40;  ///< disjoint from the hub's ids
  std::vector<dialed::byte_vec> frame_sample_;
  std::size_t frame_sample_next_ = 0;
};

}  // namespace ledger

#endif  // DIALED_PERFLEDGER_LOADGEN_H
