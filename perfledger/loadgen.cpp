#include "loadgen.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "net/listener.h"
#include "obs/obs.h"

namespace ledger {

namespace {

constexpr std::size_t frame_sample_cap = 1024;
constexpr std::size_t max_logged_failures = 8;
constexpr std::uint64_t drain_timeout_ns = 10'000'000'000ULL;
constexpr std::uint64_t rss_sample_ns = 20'000'000ULL;

std::uint64_t seconds_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

}  // namespace

std::uint64_t rss_bytes() {
  // Reads only this process's own /proc entry.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

load_generator::load_generator(template_pool& pool, const workload& w,
                               std::uint16_t port, std::size_t connections,
                               bool record_spans)
    : pool_(pool), w_(w), record_spans_(record_spans) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("loadgen: epoll_create1 failed");

  conns_.resize(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    auto& cn = conns_[c];
    cn.fd = dialed::net::connect_tcp("127.0.0.1", port, 5000);
    const int flags = fcntl(cn.fd, F_GETFL, 0);
    fcntl(cn.fd, F_SETFL, flags | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(epfd_, EPOLL_CTL_ADD, cn.fd, &ev);
  }
  rounds_.resize(pool.devices.size() + 1);
  for (const auto& d : pool.devices) {
    const std::size_t c = (d.id - 1) % connections;
    rounds_[d.id].conn = static_cast<std::uint32_t>(c);
    conns_[c].idle.push_back(d.id);
  }
}

load_generator::~load_generator() {
  for (auto& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epfd_ >= 0) ::close(epfd_);
}

void load_generator::sample_rss() {
  const auto now = dialed::obs::now_ns();
  if (now - last_rss_ns_ < rss_sample_ns) return;
  last_rss_ns_ = now;
  res_->rss_peak_bytes = std::max(res_->rss_peak_bytes, rss_bytes());
}

void load_generator::note_failure(std::string why) {
  if (res_->failures.size() < max_logged_failures) {
    res_->failures.push_back(std::move(why));
  }
}

void load_generator::stray(std::string why) {
  ++res_->attempted;
  ++res_->failed;
  note_failure(std::move(why));
}

void load_generator::begin_phase(mode m) {
  mode_ = m;
  starting_ = true;
  inflight_ = 0;
  late_.clear();
  last_rss_ns_ = 0;
}

bool load_generator::start_round(std::size_t c, std::uint64_t sched_ns) {
  auto& cn = conns_[c];
  if (cn.idle.empty()) return false;
  const std::uint32_t dev = cn.idle.front();
  cn.idle.pop_front();
  auto& r = rounds_[dev];
  r.active = true;
  r.reported = false;
  r.sched_ns = sched_ns;
  r.measured = sched_ns >= window_start_ns_ && sched_ns < window_end_ns_;
  r.chal_sent_ns = dialed::obs::now_ns();
  dialed::proto::append_stream_frame(
      cn.out, dialed::net::encode_challenge_req({dev}));
  ++inflight_;
  ++res_->attempted;
  if (mode_ == mode::open && r.measured) {
    res_->lag_ns.push_back(r.chal_sent_ns - sched_ns);
  }
  return true;
}

void load_generator::finish(std::uint32_t device, bool ok,
                            const std::string& why) {
  auto& r = rounds_[device];
  const auto now = dialed::obs::now_ns();
  r.active = false;
  --inflight_;
  if (!ok) {
    ++res_->failed;
    note_failure("device " + std::to_string(device) + ": " + why);
  }
  if (mode_ == mode::closed && ok && now >= window_start_ns_ &&
      now < window_end_ns_) {
    const auto i = (now - window_start_ns_) / interval_ns_;
    if (i < interval_counts_.size()) ++interval_counts_[i];
  }
  if (r.measured) {
    res_->latency_ns.push_back(ok ? now - r.sched_ns : failed_latency);
    res_->latency_sched_ns.push_back(r.sched_ns);
    if (ok) {
      res_->chal_rtt_ns.push_back(r.chal_recv_ns - r.chal_sent_ns);
      res_->report_rtt_ns.push_back(now - r.rep_sent_ns);
    }
  }
  if (record_spans_ && r.measured && mode_ == mode::open) {
    const std::uint64_t rid =
        (static_cast<std::uint64_t>(device) << 32) | r.seq;
    const auto root = next_span_++;
    spans_.push_back({"client.round", root, 0, r.sched_ns, now, rid});
    spans_.push_back({"client.challenge", next_span_++, root, r.chal_sent_ns,
                      r.chal_recv_ns, rid});
    if (r.reported) {
      spans_.push_back(
          {"client.report", next_span_++, root, r.rep_sent_ns, now, rid});
    }
  }
  auto& cn = conns_[r.conn];
  cn.idle.push_back(device);
  if (mode_ == mode::closed && starting_) {
    start_round(r.conn, now);
  } else if (mode_ == mode::open && !late_.empty()) {
    start_round(r.conn, late_.front());
    late_.pop_front();
  }
}

void load_generator::on_challenge(std::size_t c,
                                  const dialed::net::challenge_resp& m) {
  const auto dev = m.device_id;
  if (dev == 0 || dev >= rounds_.size() || !rounds_[dev].active ||
      rounds_[dev].reported || rounds_[dev].conn != c) {
    stray("unmatched challenge_resp for device " + std::to_string(dev));
    return;
  }
  auto& r = rounds_[dev];
  r.chal_recv_ns = dialed::obs::now_ns();
  if (m.error != dialed::proto::proto_error::none) {
    finish(dev, false,
           "challenge refused: " + dialed::proto::to_string(m.error));
    return;
  }
  r.seq = m.seq;
  auto& d = pool_.devices[dev - 1];
  r.tmpl = next_template(pool_, d);
  const auto& t = pool_.templates[r.tmpl];
  sign_for(pool_, t, d, m.nonce, r.rep);

  dialed::proto::frame_info info;
  info.device_id = dev;
  info.seq = m.seq;
  auto& cn = conns_[c];
  const dialed::byte_vec* frame = &frame_buf_;
  dialed::byte_vec delta;
  if (w_.delta_frames) {
    delta = emitter_.encode(dev, m.seq, r.rep);
    frame = &delta;
  } else if (dialed::proto::encode_frame_into(info, r.rep, frame_buf_) !=
             dialed::proto::proto_error::none) {
    finish(dev, false, "report does not encode");
    return;
  }
  dialed::proto::append_stream_frame(cn.out, *frame);
  r.reported = true;
  r.rep_sent_ns = dialed::obs::now_ns();
  ++res_->reports_sent;
  res_->op_cycles_sum += t.op_cycles;
  res_->log_bytes_sum += static_cast<std::uint64_t>(t.log_bytes);
  res_->er_bytes_sum += pool_.er_bytes[t.group].size();
  if (record_spans_) {
    if (frame_sample_.size() < frame_sample_cap) {
      frame_sample_.push_back(*frame);
    } else {
      frame_sample_[frame_sample_next_] = *frame;
      frame_sample_next_ = (frame_sample_next_ + 1) % frame_sample_cap;
    }
  }
}

void load_generator::on_verdict(std::size_t c,
                                const dialed::net::attest_resp& m) {
  const auto dev = m.device_id;
  if (dev == 0 || dev >= rounds_.size() || !rounds_[dev].active ||
      !rounds_[dev].reported || rounds_[dev].conn != c ||
      rounds_[dev].seq != m.seq) {
    stray("unmatched attest_resp for device " + std::to_string(dev));
    return;
  }
  auto& r = rounds_[dev];
  const auto kind = pool_.templates[r.tmpl].kind;
  if (w_.delta_frames) {
    emitter_.note_result(dev, m.seq, r.rep, m.error, m.accepted);
  }
  if (m.error != dialed::proto::proto_error::none) {
    finish(dev, false,
           std::string(to_string(kind)) +
               " report refused: " + dialed::proto::to_string(m.error));
    return;
  }
  const bool ok = m.accepted == expect_accept(kind);
  finish(dev, ok,
         std::string(to_string(kind)) + (m.accepted ? " accepted" : " rejected"));
}

void load_generator::on_frame(std::size_t c, const dialed::byte_vec& frame) {
  if (auto ch = dialed::net::decode_challenge_resp(frame)) {
    on_challenge(c, *ch);
  } else if (auto v = dialed::net::decode_attest_resp(frame)) {
    on_verdict(c, *v);
  } else {
    stray("unexpected message from the service");
  }
}

void load_generator::read_conn(std::size_t c) {
  auto& cn = conns_[c];
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(cn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      res_->bytes_recv += static_cast<std::uint64_t>(n);
      if (!cn.framer.feed({buf, static_cast<std::size_t>(n)})) {
        throw std::runtime_error("loadgen: poisoned response stream");
      }
      while (cn.framer.next(rx_frame_)) on_frame(c, rx_frame_);
      continue;
    }
    if (n == 0) throw std::runtime_error("loadgen: service closed a connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    throw std::runtime_error(std::string("loadgen: recv: ") +
                             std::strerror(errno));
  }
}

void load_generator::flush(std::size_t c) {
  auto& cn = conns_[c];
  while (cn.out_pos < cn.out.size()) {
    const ssize_t n = ::send(cn.fd, cn.out.data() + cn.out_pos,
                             cn.out.size() - cn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      cn.out_pos += static_cast<std::size_t>(n);
      res_->bytes_sent += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Socket full: the spin loop retries on its next pass.
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw std::runtime_error(std::string("loadgen: send: ") +
                             std::strerror(errno));
  }
  if (cn.out_pos == cn.out.size()) {
    cn.out.clear();
    cn.out_pos = 0;
  }
}

int load_generator::poll_once() {
  epoll_event evs[16];
  const int n = epoll_wait(epfd_, evs, 16, 0);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error("loadgen: epoll_wait failed");
  }
  for (int i = 0; i < n; ++i) {
    if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
      read_conn(evs[i].data.u64);
    }
  }
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (!conns_[c].out.empty()) flush(c);
  }
  sample_rss();
  if (n == 0) sched_yield();
  return n;
}

void load_generator::drain() {
  starting_ = false;
  const auto deadline = dialed::obs::now_ns() + drain_timeout_ns;
  while (inflight_ > 0 && dialed::obs::now_ns() < deadline) poll_once();
  if (!late_.empty()) {
    res_->attempted += late_.size();
    res_->failed += late_.size();
    note_failure(std::to_string(late_.size()) +
                 " arrivals never found a free device");
    late_.clear();
  }
  for (std::uint32_t dev = 1; dev < rounds_.size(); ++dev) {
    if (rounds_[dev].active) finish(dev, false, "never answered");
  }
}

phase_result load_generator::run_closed(double warmup_s, double measure_s,
                                        std::size_t window,
                                        std::size_t intervals) {
  phase_result res;
  res_ = &res;
  begin_phase(mode::closed);
  const auto t0 = dialed::obs::now_ns();
  window_start_ns_ = t0 + seconds_ns(warmup_s);
  window_end_ns_ = window_start_ns_ + seconds_ns(measure_s);
  interval_counts_.assign(intervals, 0);
  interval_ns_ = seconds_ns(measure_s) / intervals;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    for (std::size_t k = 0; k < window; ++k) start_round(c, t0);
    flush(c);
  }
  while (dialed::obs::now_ns() < window_end_ns_) poll_once();
  res.measure_s = measure_s;
  drain();
  for (const auto n : interval_counts_) {
    res.interval_rates.push_back(static_cast<double>(n) /
                                 (static_cast<double>(interval_ns_) * 1e-9));
  }
  res_ = nullptr;
  return res;
}

phase_result load_generator::run_open(double warmup_s, double measure_s,
                                      double rate, std::uint64_t seed) {
  phase_result res;
  res_ = &res;
  begin_phase(mode::open);
  const auto t0 = dialed::obs::now_ns() + 1'000'000;  // first arrival
  window_start_ns_ = t0 + seconds_ns(warmup_s);
  window_end_ns_ = window_start_ns_ + seconds_ns(measure_s);
  std::uint64_t rng = seed ^ 0x6a09e667f3bcc908ULL;
  double next = static_cast<double>(t0);
  std::size_t rr = 0;
  std::uint64_t busy_ns = 0;
  for (;;) {
    const auto now = dialed::obs::now_ns();
    bool worked = false;
    while (static_cast<std::uint64_t>(next) <= now &&
           static_cast<std::uint64_t>(next) < window_end_ns_) {
      const auto due = static_cast<std::uint64_t>(next);
      bool started = false;
      for (std::size_t k = 0; k < conns_.size() && !started; ++k) {
        started = start_round((rr + k) % conns_.size(), due);
      }
      rr = (rr + 1) % conns_.size();
      // Every device busy: the arrival waits for the next free device
      // and is still timed from when it was due.
      if (!started) late_.push_back(due);
      const double u =
          (static_cast<double>(splitmix64(rng) >> 11) + 0.5) * 0x1.0p-53;
      next += -std::log(u) / rate * 1e9;
      worked = true;
    }
    if (static_cast<std::uint64_t>(next) >= window_end_ns_) break;
    worked = poll_once() > 0 || worked;
    if (worked && now >= window_start_ns_) {
      busy_ns += dialed::obs::now_ns() - now;
    }
  }
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (!conns_[c].out.empty()) flush(c);
  }
  res.busy_s = static_cast<double>(busy_ns) * 1e-9;
  res.measure_s = measure_s;
  drain();
  res_ = nullptr;
  return res;
}

}  // namespace ledger
