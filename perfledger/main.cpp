// perfledger: the DIALED attestation service measured end to end over
// loopback on the four evaluation apps, with a per-layer split.
//
//   perfledger --workload fleet-live|fleet-idle|fleet-durable --seed N
//              --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics (the service holds the real
// hub; the benchmark records no spans). --trace 1 prints the per-layer
// metrics: it wraps the hub in traced_hub, records spans in memory and
// writes them to DIR/spans-<workload>.csv, and makes the offline
// per-layer probes. Human-readable lines come first; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
//
// Exit codes: 0 measured (check "correct"), 2 usage, 3 the offline
// correctness gate failed (no numbers printed), 1 any other error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cpu_layout.h"
#include "fleet_spec.h"
#include "loadgen.h"
#include "obs/obs.h"
#include "proto/wire.h"
#include "rot/attest.h"
#include "templates.h"
#include "traced_hub.h"
#include "verifier/replay.h"

namespace {

using namespace ledger;
namespace fs = std::filesystem;

constexpr std::size_t connections = 4;       ///< <= nproc on the host
constexpr std::size_t closed_window = 16;    ///< rounds in flight per conn
constexpr std::size_t setup_repeats = 9;     ///< setup_s is their median
/// An open-loop run whose generator ran later than this at p99 is invalid.
constexpr double lag_limit_ms = 2.0;
/// acct.stage_coverage must lie in [lo, hi].
constexpr double coverage_lo = 0.5;
constexpr double coverage_hi = 1.1;
/// Latency split: the measured parts may exceed the client latency by at
/// most this share (a negative remainder beyond it is an accounting error).
constexpr double latency_split_tol = 0.05;

struct metric {
  double value = 0;
  std::string unit;
};
using metric_map = std::map<std::string, metric>;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; failed samples sort last (over any limit).
double percentile_ms(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
  if (v[k] == failed_latency) return INFINITY;
  return static_cast<double>(v[k]) * 1e-6;
}

/// Samples per open-loop window: at least ten lie beyond each window's p99.
constexpr std::size_t p99_window_samples = 1000;

/// The open loop's p99: split the samples, in scheduled order, into
/// consecutive windows of at least p99_window_samples, take each window's
/// p99 and report the median over windows. A hypervisor stall that lands
/// in one window moves that window only.
double windowed_p99_ms(const phase_result& open, std::size_t* windows) {
  const auto n = open.latency_ns.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return open.latency_sched_ns[a] < open.latency_sched_ns[b];
  });
  const std::size_t k = std::max<std::size_t>(1, n / p99_window_samples);
  std::vector<double> p99s;
  for (std::size_t w = 0; w < k; ++w) {
    std::vector<std::uint64_t> v;
    for (std::size_t i = w * n / k; i < (w + 1) * n / k; ++i) {
      v.push_back(open.latency_ns[order[i]]);
    }
    p99s.push_back(percentile_ms(std::move(v), 0.99));
  }
  if (windows != nullptr) *windows = k;
  return median(p99s);
}

void print_open_loop(const phase_result& open, const workload& w) {
  std::size_t windows = 0;
  const double p99 = windowed_p99_ms(open, &windows);
  std::printf("open loop: %zu latency samples at %.0f reports/s offered; "
              "p99 %.3f ms (median over %zu windows of >= %zu samples), "
              "pooled p99 %.3f ms\n",
              open.latency_ns.size(), w.offered_rate, p99, windows,
              p99_window_samples, percentile_ms(open.latency_ns, 0.99));
}

double mean_ns(const std::vector<std::uint64_t>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const auto x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

/// Percentile of an obs latency histogram (log2 buckets), interpolated
/// linearly inside the bucket; microseconds.
double hist_percentile_us(const dialed::obs::histogram_snapshot& h,
                          double q) {
  if (h.count == 0) return 0;
  const double target = q * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < dialed::obs::latency_buckets; ++i) {
    const auto n = static_cast<double>(h.buckets[i]);
    if (n > 0 && seen + n >= target) {
      const double lo =
          i == 0 ? 0.0
                 : static_cast<double>(dialed::obs::latency_bucket_bound_ns(i - 1));
      const double hi =
          static_cast<double>(dialed::obs::latency_bucket_bound_ns(i));
      return (lo + (hi - lo) * (target - seen) / n) * 1e-3;
    }
    seen += n;
  }
  return static_cast<double>(dialed::obs::latency_bucket_bound_ns(
             dialed::obs::latency_buckets - 1)) * 1e-3;
}

dialed::obs::histogram_snapshot hist_delta(
    const dialed::obs::histogram_snapshot& a,
    const dialed::obs::histogram_snapshot& b) {
  dialed::obs::histogram_snapshot d;
  for (std::size_t i = 0; i < dialed::obs::latency_buckets; ++i) {
    d.buckets[i] = b.buckets[i] - a.buckets[i];
  }
  d.count = b.count - a.count;
  d.sum_ns = b.sum_ns - a.sum_ns;
  return d;
}

double hist_mean_us(const dialed::obs::histogram_snapshot& h) {
  return h.count == 0 ? 0
                      : static_cast<double>(h.sum_ns) /
                            static_cast<double>(h.count) * 1e-3;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(dialed::obs::now_ns() - t0) * 1e-9;
}

struct totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void add(const phase_result& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& f : r.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

std::string state_dir_for(const std::string& out_dir, std::size_t k) {
  return out_dir + "/state-" + std::to_string(::getpid()) + "-" +
         std::to_string(k);
}

void print_result(bool correct, const totals& t, const metric_map& m) {
  for (const auto& [name, v] : m) {
    std::printf("%-36s %16.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(v.value) ? v.value : 1e300, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool report_failures(const totals& t, std::uint64_t framing_errors) {
  for (const auto& f : t.failures) {
    std::fprintf(stderr, "perfledger: failed round: %s\n", f.c_str());
  }
  if (framing_errors != 0) {
    std::fprintf(stderr, "perfledger: service counted %llu framing errors\n",
                 static_cast<unsigned long long>(framing_errors));
  }
  return t.failed == 0 && framing_errors == 0;
}

/// Marks (does not fail) an open-loop run whose generator ran late.
bool lag_valid(const phase_result& open) {
  const double lag = percentile_ms(open.lag_ns, 0.99);
  if (lag > lag_limit_ms) {
    std::printf("open loop: INVALID — generator lag p99 %.3f ms exceeds "
                "the %.1f ms limit; its latencies include the lag\n",
                lag, lag_limit_ms);
    return false;
  }
  return true;
}

void print_pool(const template_pool& pool, double gen_s) {
  std::printf("templates: %zu benign + %zu attack, built and gated in %.2f s\n",
              pool.benign_templates, pool.attack_templates, gen_s);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int run_untraced(const workload& w, std::uint64_t seed, double seconds,
                 const std::string& out_dir, const cpu_layout& cpus) {
  const auto g0 = dialed::obs::now_ns();
  auto pool = build_pool(w, seed);
  print_pool(pool, seconds_since(g0));

  // Set up the service several times; the last one serves. The RSS
  // baseline is taken just before the serving set-up, after the
  // generator's template pool exists.
  std::vector<double> setup_s;
  std::unique_ptr<service> svc;
  std::uint64_t rss_base = 0;
  std::string dir;
  for (std::size_t k = 0; k < setup_repeats; ++k) {
    dir = state_dir_for(out_dir, k);
    fs::remove_all(dir);
    if (k + 1 == setup_repeats) rss_base = rss_bytes();
    const auto t0 = dialed::obs::now_ns();
    svc = std::make_unique<service>(w, dir);
    setup_s.push_back(seconds_since(t0));
    if (k + 1 < setup_repeats) {
      svc.reset();
      fs::remove_all(dir);
    }
  }

  phase_result closed, open;
  {
    idle_spinner spinner(cpus.service);
    scoped_pin on_generator_cpu(cpus.generator);
    load_generator gen(pool, w, svc->port(), connections, false);
    closed = gen.run_closed(0.5, 0.4 * seconds, closed_window, 8);
    open = gen.run_open(0.3, 0.6 * seconds, w.offered_rate, seed);
  }
  const auto net = svc->server().stats();
  svc.reset();
  fs::remove_all(dir);

  totals t;
  t.add(closed);
  t.add(open);
  const bool correct = report_failures(t, net.framing_errors);
  lag_valid(open);

  const double reports =
      static_cast<double>(closed.reports_sent + open.reports_sent);
  const double rounds = static_cast<double>(t.attempted);
  metric_map m;
  m["reports_per_s"] = {median(closed.interval_rates), "1/s"};
  m["verdict_p50_ms"] = {percentile_ms(open.latency_ns, 0.50), "ms"};
  m["wire_bytes_per_report"] = {
      ratio(static_cast<double>(closed.bytes_sent + closed.bytes_recv +
                                open.bytes_sent + open.bytes_recv),
            rounds),
      "B"};
  m["setup_s"] = {median(setup_s), "s"};
  m["prover_cycles_per_report"] = {
      ratio(static_cast<double>(closed.op_cycles_sum + open.op_cycles_sum),
            reports),
      "cycles"};
  m["or_log_bytes_per_report"] = {
      ratio(static_cast<double>(closed.log_bytes_sum + open.log_bytes_sum),
            reports),
      "B"};
  const auto rss_peak = std::max(closed.rss_peak_bytes, open.rss_peak_bytes);
  m["rss_mb"] = {static_cast<double>(rss_peak - std::min(rss_base, rss_peak)) /
                     (1024.0 * 1024.0),
                 "MiB"};
  print_open_loop(open, w);
  print_result(correct, t, m);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

struct probe_times {
  double replay_us = 0;
  double replay_instr = 0;
  double mac_us = 0;
  double decode_us = 0;
};

/// Time `body` (which processes `n` items) over three passes after one
/// warm-up pass; median pass, microseconds per item.
template <class F>
double per_item_us(std::size_t n, F&& body) {
  body();
  std::vector<double> passes;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = dialed::obs::now_ns();
    body();
    passes.push_back(static_cast<double>(dialed::obs::now_ns() - t0));
  }
  return n == 0 ? 0 : median(passes) * 1e-3 / static_cast<double>(n);
}

probe_times offline_probes(service& svc, const template_pool& pool,
                           const std::vector<dialed::byte_vec>& frames) {
  probe_times p;
  // Replay on the service's own artifacts, over the workload's benign
  // templates (at most 2048).
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < pool.benign_templates && sample.size() < 2048;
       i += std::max<std::size_t>(1, pool.benign_templates / 2048)) {
    sample.push_back(i);
  }
  auto& fleet = svc.fleet();
  std::vector<std::shared_ptr<const dialed::verifier::firmware_artifact>> fw;
  for (const auto& g : pool.groups) {
    fw.push_back(fleet.registry_of(fleet.index_of(g.first_id))
                     .find(g.first_id)
                     ->firmware);
  }
  const std::vector<std::shared_ptr<dialed::verifier::policy>> none;
  std::uint64_t instr = 0;
  std::uint64_t sink = 0;
  p.replay_us = per_item_us(sample.size(), [&] {
    instr = 0;
    for (const auto i : sample) {
      const auto& t = pool.templates[i];
      const auto r = dialed::verifier::replay_operation(*fw[t.group], t.rep,
                                                        none);
      instr += r.instructions;
    }
  });
  p.replay_instr = ratio(static_cast<double>(instr),
                         static_cast<double>(sample.size()));

  p.mac_us = per_item_us(sample.size(), [&] {
    for (const auto i : sample) {
      const auto& t = pool.templates[i];
      dialed::rot::attest_input in;
      in.er_min = t.rep.er_min;
      in.er_max = t.rep.er_max;
      in.or_min = t.rep.or_min;
      in.or_max = t.rep.or_max;
      in.exec = t.rep.exec;
      in.challenge = t.rep.challenge;
      in.er_bytes = pool.er_bytes[t.group];
      in.or_bytes = t.rep.or_bytes;
      sink += dialed::rot::compute_attestation_mac(
          pool.devices[t.signer - 1].key_state, in)[0];
    }
  });

  dialed::proto::decoded_frame out;
  constexpr std::size_t decode_rounds = 16;
  p.decode_us = per_item_us(frames.size() * decode_rounds, [&] {
    for (std::size_t r = 0; r < decode_rounds; ++r) {
      for (const auto& f : frames) {
        if (dialed::proto::decode_frame_into(
                f, out, dialed::proto::decode_mode::borrow) ==
            dialed::proto::proto_error::none) {
          sink += out.info.seq;
        }
      }
    }
  });
  if (sink == 0x5eed) std::printf(" ");  // keep the work observable
  return p;
}

void write_spans(const std::string& path, const std::deque<span>& a,
                 const std::deque<span>& b) {
  std::ofstream out(path, std::ios::trunc);
  out << "name,id,parent,start_ns,end_ns,report\n";
  for (const auto* v : {&a, &b}) {
    for (const auto& s : *v) {
      out << s.name << ',' << s.id << ',' << s.parent << ',' << s.start_ns
          << ',' << s.end_ns << ',' << s.report << '\n';
    }
  }
}

int run_traced(const workload& w, std::uint64_t seed, double seconds,
               const std::string& out_dir, const cpu_layout& cpus) {
  const auto g0 = dialed::obs::now_ns();
  auto pool = build_pool(w, seed);
  const double gen_setup_s = seconds_since(g0);
  print_pool(pool, gen_setup_s);

  const std::string dir = state_dir_for(out_dir, 0);
  fs::remove_all(dir);
  auto svc = std::make_unique<service>(w, dir);
  auto& router = svc->fleet().router();

  totals t;
  std::uint64_t framing_errors = 0;
  // Untraced reference for trace.overhead_frac: the router served
  // directly, same closed loop, after a first pass has warmed the replay
  // machines and the memo.
  phase_result plain;
  {
    idle_spinner spinner(cpus.service);
    scoped_pin on_generator_cpu(cpus.generator);
    load_generator gen(pool, w, svc->port(), connections, false);
    t.add(gen.run_closed(0.3, 0.1, closed_window, 1));
    plain = gen.run_closed(0.3, 0.2 * seconds, closed_window, 5);
  }
  framing_errors += svc->server().stats().framing_errors;
  t.add(plain);

  traced_hub tracer(router);
  svc->serve(tracer);  // from the service CPU: its threads inherit it
  // The server must stop before `tracer` is destroyed, on every path.
  struct stop_first {
    std::unique_ptr<service>& s;
    ~stop_first() {
      if (s) s->stop();
    }
  } stop_server_first{svc};
  auto stores = svc->fleet().stores();
  auto wal_bytes = [&] {
    std::uint64_t n = 0;
    for (auto* s : stores) n += s ? s->wal_bytes() : 0;
    return n;
  };
  auto group_commit = [&] {
    dialed::store::group_commit_stats g;
    for (auto* s : stores) {
      if (s == nullptr) continue;
      const auto x = s->group_commit();
      g.syncs += x.syncs;
      g.records += x.records;
    }
    return g;
  };

  const auto hub0 = router.stats(false);
  const auto pipe0 = router.pipeline();
  const auto wal0 = wal_bytes();
  const auto gc0 = group_commit();
  const auto tr0 = tracer.window();

  phase_result closed, open;
  std::deque<span> client_spans;
  std::vector<dialed::byte_vec> frames;
  dialed::proto::delta_emitter::stats delta{};
  std::uint64_t ship_lag_max = 0;
  dialed::net::server_stats net_mid, net_end;
  dialed::obs::pipeline_snapshot pipe_mid;
  traced_hub::totals tr_mid;
  double closed_wall_s = 0;
  {
    idle_spinner spinner(cpus.service);
    scoped_pin on_generator_cpu(cpus.generator);
    load_generator gen(pool, w, svc->port(), connections, true);
    const auto c0 = dialed::obs::now_ns();
    closed = gen.run_closed(0.3, 0.3 * seconds, closed_window, 5);
    closed_wall_s = seconds_since(c0);
    net_mid = svc->server().stats();
    pipe_mid = router.pipeline();
    tr_mid = tracer.window();
    for (const auto& s : svc->shippers()) {
      ship_lag_max = std::max(ship_lag_max, s->stats().max_lag_records);
    }
    tracer.record_spans(true);
    open = gen.run_open(0.3, 0.5 * seconds, w.offered_rate, seed);
    tracer.record_spans(false);
    for (const auto& s : svc->shippers()) {
      ship_lag_max = std::max(ship_lag_max, s->stats().max_lag_records);
    }
    client_spans = gen.take_spans();
    frames = gen.frame_sample();
    delta = gen.delta_stats();
  }
  // Closed connections fold their traffic counters at the next sweep.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  net_end = svc->server().stats();
  framing_errors += net_end.framing_errors;
  const auto hub1 = router.stats(false);
  const auto tr1 = tracer.window();
  const auto wal1 = wal_bytes();
  const auto gc1 = group_commit();
  t.add(closed);
  t.add(open);
  svc->stop();

  bool correct = report_failures(t, framing_errors);
  const bool lag_ok = lag_valid(open);

  const auto probes = offline_probes(*svc, pool, frames);
  double recover_s = 0;
  if (w.durable) recover_s = svc->close_and_recover();
  svc.reset();
  fs::remove_all(dir);
  write_spans(out_dir + "/spans-" + w.name + ".csv", tracer.take_spans(),
              client_spans);

  metric_map m;
  const double reports =
      static_cast<double>(closed.reports_sent + open.reports_sent);
  const double rounds = static_cast<double>(closed.attempted + open.attempted);

  // net: batching over the closed phase, queue wait over the open phase.
  const auto& b_mid = net_mid.batching;
  const auto& b_end = net_end.batching;
  const auto qw = hist_delta(b_mid.queue_wait, b_end.queue_wait);
  m["net.queue_wait_p50_us"] = {hist_percentile_us(qw, 0.50), "us"};
  m["net.queue_wait_p99_us"] = {hist_percentile_us(qw, 0.99), "us"};
  m["net.batch_frames_mean"] = {
      ratio(static_cast<double>(b_mid.batch_frames),
            static_cast<double>(b_mid.batches)),
      "count"};
  const auto cause = [&](dialed::net::flush_cause c) {
    return ratio(static_cast<double>(
                     b_mid.flush_by_cause[static_cast<std::size_t>(c)]),
                 static_cast<double>(b_mid.batches));
  };
  m["net.flush_idle_frac"] = {cause(dialed::net::flush_cause::idle), "ratio"};
  m["net.flush_size_frac"] = {cause(dialed::net::flush_cause::size), "ratio"};
  m["net.flush_deadline_frac"] = {cause(dialed::net::flush_cause::deadline),
                                  "ratio"};
  m["net.backpressure_pauses"] = {
      static_cast<double>(net_end.backpressure_pauses), "count"};
  m["net.bytes_in_per_report"] = {
      ratio(static_cast<double>(net_end.bytes_in), rounds), "B"};
  m["net.bytes_out_per_report"] = {
      ratio(static_cast<double>(net_end.bytes_out), rounds), "B"};
  std::vector<std::uint64_t> chal = open.chal_rtt_ns;
  m["net.challenge_rtt_p50_us"] = {percentile_ms(chal, 0.5) * 1e3, "us"};

  // Latency split of the open phase: report sent -> attest_resp is queue
  // wait + verify_batch + the rest (reactor, sockets, client).
  const double report_us = mean_ns(open.report_rtt_ns) * 1e-3;
  const double open_frames = static_cast<double>(tr1.frames - tr_mid.frames);
  const double verify_frame_us =
      ratio(static_cast<double>(tr1.frame_verify_ns - tr_mid.frame_verify_ns),
            open_frames) * 1e-3;
  const double queue_us = hist_mean_us(qw);
  const double self_us = report_us - queue_us - verify_frame_us;
  m["net.self_us_per_report"] = {self_us, "us"};
  if (self_us < -latency_split_tol * report_us) {
    std::fprintf(stderr,
                 "perfledger: latency split does not add up: queue %.1f + "
                 "verify %.1f us exceed the client's %.1f us\n",
                 queue_us, verify_frame_us, report_us);
    correct = false;
  }

  // fleet (decorator), closed phase unless noted.
  const double closed_frames = static_cast<double>(tr_mid.frames - tr0.frames);
  const double closed_busy = static_cast<double>(tr_mid.busy_ns - tr0.busy_ns);
  m["fleet.verify_us_per_report"] = {ratio(closed_busy, closed_frames) * 1e-3,
                                     "us"};
  m["fleet.verify_busy_frac"] = {ratio(closed_busy * 1e-9, closed_wall_s),
                                 "ratio"};
  m["fleet.challenge_us"] = {
      ratio(static_cast<double>(tr1.challenge_ns - tr0.challenge_ns),
            static_cast<double>(tr1.challenges - tr0.challenges)) * 1e-3,
      "us"};
  m["fleet.rejected_protocol"] = {
      static_cast<double>(hub1.reports_rejected_protocol() -
                          hub0.reports_rejected_protocol()),
      "count"};

  // obs stages over the closed phase.
  const auto stage = [&](dialed::obs::stage s) {
    const auto i = static_cast<std::size_t>(s);
    return hist_delta(pipe0.stages[i], pipe_mid.stages[i]);
  };
  using dialed::obs::stage;
  m["stage.decode_mean_us"] = {hist_mean_us(stage(stage::decode)), "us"};
  m["stage.journal_mean_us"] = {hist_mean_us(stage(stage::journal)), "us"};
  m["stage.mac_mean_us"] = {hist_mean_us(stage(stage::mac)), "us"};
  m["stage.replay_mean_us"] = {hist_mean_us(stage(stage::replay)), "us"};
  m["stage.verdict_mean_us"] = {hist_mean_us(stage(stage::verdict)), "us"};
  m["stage.replay_p99_us"] = {hist_percentile_us(stage(stage::replay), 0.99),
                              "us"};
  m["stage.journal_p99_us"] = {
      hist_percentile_us(stage(stage::journal), 0.99), "us"};

  const double hits =
      static_cast<double>(hub1.replay_memo_hits - hub0.replay_memo_hits);
  const double misses =
      static_cast<double>(hub1.replay_memo_misses - hub0.replay_memo_misses);
  m["verifier.memo_hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
  m["verifier.replay_us_per_report"] = {probes.replay_us, "us"};
  m["verifier.replay_instr_per_report"] = {probes.replay_instr, "count"};
  m["verifier.replay_minstr_per_s"] = {ratio(probes.replay_instr,
                                             probes.replay_us),
                                       "Minstr/s"};
  m["crypto.mac_us_per_report"] = {probes.mac_us, "us"};
  m["proto.decode_us_per_report"] = {probes.decode_us, "us"};
  m["proto.delta_frame_frac"] = {
      ratio(static_cast<double>(delta.delta_frames),
            static_cast<double>(delta.frames)),
      "ratio"};

  const double accepted_verdicts =
      static_cast<double>(hub1.reports_submitted() - hub0.reports_submitted());
  m["store.wal_bytes_per_report"] = {
      ratio(static_cast<double>(wal1 - wal0), accepted_verdicts), "B"};
  m["store.records_per_sync"] = {
      ratio(static_cast<double>(gc1.records - gc0.records),
            static_cast<double>(gc1.syncs - gc0.syncs)),
      "count"};
  m["store.ship_lag_max_records"] = {static_cast<double>(ship_lag_max),
                                     "count"};
  m["store.recover_s"] = {recover_s, "s"};

  m["instr.er_bytes_mean"] = {
      ratio(static_cast<double>(closed.er_bytes_sum + open.er_bytes_sum),
            reports),
      "B"};
  for (const auto& r : pool.fig6) {
    m["instr." + r.app + ".er_bytes"] = {static_cast<double>(r.er_bytes), "B"};
    m["instr." + r.app + ".op_cycles"] = {static_cast<double>(r.op_cycles),
                                          "cycles"};
    m["instr." + r.app + ".log_bytes"] = {static_cast<double>(r.log_bytes),
                                          "B"};
  }

  m["verdict_p99_ms"] = {windowed_p99_ms(open, nullptr), "ms"};
  m["gen.lag_p99_ms"] = {percentile_ms(open.lag_ns, 0.99), "ms"};
  m["gen.open_loop_valid"] = {lag_ok ? 1.0 : 0.0, "bool"};
  m["gen.busy_frac"] = {ratio(open.busy_s, open.measure_s), "ratio"};
  m["gen.setup_s"] = {gen_setup_s, "s"};
  m["gen.open_loop_samples"] = {static_cast<double>(open.latency_ns.size()),
                                "count"};
  m["failed_frac"] = {ratio(static_cast<double>(t.failed),
                            static_cast<double>(t.attempted)),
                      "ratio"};

  const double plain_rate = median(plain.interval_rates);
  m["trace.overhead_frac"] = {
      ratio(plain_rate - median(closed.interval_rates), plain_rate), "ratio"};
  const double coverage =
      ratio(static_cast<double>(tr_mid.stage_ns - tr0.stage_ns), closed_busy);
  m["acct.stage_coverage"] = {coverage, "ratio"};
  if (coverage < coverage_lo || coverage > coverage_hi) {
    std::fprintf(stderr,
                 "perfledger: stage accounting out of tolerance: coverage "
                 "%.3f not in [%.2f, %.2f]\n",
                 coverage, coverage_lo, coverage_hi);
    correct = false;
  }

  print_open_loop(open, w);
  std::printf("latency split (open loop, mean): report %.1f us = queue wait "
              "%.1f + verify_batch %.1f + self %.1f\n",
              report_us, queue_us, verify_frame_us, self_us);
  print_result(correct, t, m);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfledger --workload <name> --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n  workloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/perfledger-run";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        workload_name = v;
      } else if (a == "--seed") {
        seed = std::stoull(v);
      } else if (a == "--seconds") {
        seconds = std::stod(v);
      } else if (a == "--trace") {
        trace = std::stoi(v);
      } else if (a == "--out-dir") {
        out_dir = v;
      } else {
        throw std::invalid_argument(a);
      }
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  const workload* w = find_workload(workload_name);
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }
  try {
    // The main thread sets up (and so starts every service thread) on the
    // service CPU; it moves to the generator CPU only to drive load.
    const auto cpus = plan_cpus();
    pin_current_thread(cpus.service);
    std::printf("cpus: service %d, load generator %d\n", cpus.service,
                cpus.generator);
    fs::create_directories(out_dir);
    return trace == 0 ? run_untraced(*w, seed, seconds, out_dir, cpus)
                      : run_traced(*w, seed, seconds, out_dir, cpus);
  } catch (const gate_failure& e) {
    std::fprintf(stderr, "perfledger: correctness gate failed: %s\n",
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfledger: %s\n", e.what());
    return 1;
  }
}
