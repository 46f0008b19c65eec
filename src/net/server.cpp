#include "net/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/error.h"
#include "common/version.h"
#include "crypto/sha256.h"
#include "obs/event_log.h"

namespace dialed::net {

namespace {

constexpr auto relaxed = std::memory_order_relaxed;

// Per-callsite budgets: a flood of broken peers must not turn the event
// log into the bottleneck (suppressed counts surface when the window
// reopens).
obs::rate_limit rl_framing{10};
obs::rate_limit rl_close{20};
obs::rate_limit rl_backpressure{10};

}  // namespace

attest_server::attest_server(fleet::hub_like& hub, server_config cfg,
                             std::vector<store::fleet_store*> stores,
                             std::vector<const store::wal_shipper*> shippers)
    : hub_(hub),
      cfg_(cfg),
      stores_(std::move(stores)),
      shippers_(std::move(shippers)),
      batcher_(hub, loop_) {
  listen_fd_ = listen_tcp(cfg_.bind_addr, cfg_.tcp_port);
  tcp_port_ = local_port(listen_fd_);
  accept_handler_.srv = this;
  accept_handler_.fn = &attest_server::on_accept;
  sweeps_enabled_ =
      cfg_.limits.write_stall_ms != 0 || cfg_.limits.idle_timeout_ms != 0;
}

attest_server::~attest_server() {
  stop();
  conns_by_id_.clear();
  conns_.clear();  // destructors deregister + close
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void attest_server::run() {
  loop_.add(listen_fd_, EPOLLIN, &accept_handler_);
  last_sweep_ = std::chrono::steady_clock::now();
  obs::log().emit(obs::log_level::info, "server_started",
                  {{"tcp_port", tcp_port_},
                   {"max_connections", cfg_.max_connections}});
  running_.store(true, std::memory_order_release);

  // The epoll timeout serves only the sweep: the batcher needs no timer,
  // since every turn ends by handing new frames to the verify threads.
  const int timeout =
      sweeps_enabled_ ? static_cast<int>(cfg_.sweep_interval_ms) : -1;
  while (!stop_flag_.load(std::memory_order_acquire)) {
    loop_.poll(timeout);
    (void)loop_.take_wake();  // cross-thread work runs every turn anyway

    deliver_completions();
    batcher_.hand_off();
    check_backpressure();
    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep_ >=
        std::chrono::milliseconds(cfg_.sweep_interval_ms)) {
      sweep(now);
      last_sweep_ = now;
    }
    process_doomed();
  }

  // Shutdown: tear every connection down; in-flight verifications finish
  // in the batcher destructor, their responses intentionally dropped.
  for (auto& [fd, c] : conns_) {
    if (!c->close_requested()) request_close(*c, close_reason::server_stop);
  }
  process_doomed();
  loop_.remove(listen_fd_);
  obs::log().emit(obs::log_level::info, "server_stopped",
                  {{"connections_accepted",
                    connections_accepted_.load(relaxed)},
                   {"frames_tcp", tcp_frames_.load(relaxed)}});
  running_.store(false, std::memory_order_release);
}

void attest_server::start() {
  thread_ = std::thread([this] { run(); });
  while (!running_.load(std::memory_order_acquire) &&
         !stop_flag_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void attest_server::stop() {
  request_stop();
  if (thread_.joinable()) thread_.join();
}

void attest_server::request_stop() {
  stop_flag_.store(true, std::memory_order_release);
  loop_.wake();
}

server_stats attest_server::stats() const {
  server_stats s;
  s.connections_accepted = connections_accepted_.load(relaxed);
  s.connections_closed = connections_closed_.load(relaxed);
  s.connections_open = connections_open_.load(relaxed);
  s.tcp_frames = tcp_frames_.load(relaxed);
  s.challenge_reqs = challenge_reqs_.load(relaxed);
  s.http_requests = http_requests_.load(relaxed);
  s.responses_sent = responses_sent_.load(relaxed);
  s.framing_errors = framing_errors_.load(relaxed);
  s.dropped_conn_gone = dropped_conn_gone_.load(relaxed);
  s.backpressure_pauses = backpressure_pauses_.load(relaxed);
  s.closed_stalled = closed_stalled_.load(relaxed);
  s.closed_idle = closed_idle_.load(relaxed);
  s.bytes_in = bytes_in_.load(relaxed);
  s.bytes_out = bytes_out_.load(relaxed);
  s.batching = batcher_.snapshot();
  return s;
}

// ---- connection_host --------------------------------------------------

void attest_server::on_challenge_req(connection& c,
                                     const challenge_req& m) {
  challenge_reqs_.fetch_add(1, relaxed);
  const auto grant = hub_.challenge(m.device_id);
  challenge_resp resp;
  resp.error = grant.error;
  resp.note = grant.note;
  resp.device_id = m.device_id;
  resp.seq = grant.seq;
  resp.nonce = grant.nonce;
  const auto encoded = encode_challenge_resp(resp);
  c.send_frame(encoded);
  responses_sent_.fetch_add(1, relaxed);
}

void attest_server::on_report_frame(connection& c, byte_vec frame) {
  tcp_frames_.fetch_add(1, relaxed);
  batcher_.enqueue(c.id(), std::move(frame));
  check_backpressure();
}

std::string attest_server::handle_http(const http_request& req) {
  http_requests_.fetch_add(1, relaxed);
  // HEAD is GET minus the body: route and render identically, then strip
  // (Content-Length still describes the GET body, per RFC 9110).
  const bool head = req.method == "HEAD";
  std::string resp;
  if (req.method != "GET" && !head) {
    resp = render_http_response(405, "text/plain", "method not allowed\n",
                                "Allow: GET, HEAD\r\n");
  } else if (req.path == "/metrics") {
    // Fold live traffic first so a scrape sees current bytes.
    for (auto& [fd, c] : conns_) fold_traffic(*c);
    const auto parts = hub_.partition_stats();
    // Store families sum over the backing stores (a partitioned fleet
    // has one).
    store_metrics sm;
    for (const auto* st : stores_) {
      if (st == nullptr) continue;
      sm.present = true;
      sm.sync_policy = store::to_string(st->wal_sync_policy());
      sm.wal_records += st->wal_records();
      sm.wal_bytes += st->wal_bytes();
      sm.wal_fsyncs += st->group_commit().syncs;
    }
    // A partitioned hub labels each partition; a bare hub is one
    // pipeline labeled partition="0".
    auto pipes = hub_.partition_pipelines();
    if (pipes.empty()) pipes.push_back(hub_.pipeline());
    std::vector<store::ship_stats> ships;
    ships.reserve(shippers_.size());
    for (const auto* sh : shippers_) {
      ships.push_back(sh != nullptr ? sh->stats() : store::ship_stats{});
    }
    build_info_metrics build;
    build.version = dialed_version;
    build.sha256_backend =
        crypto::to_string(crypto::sha256_active_backend());
    build.wal_sync = sm.sync_policy;
    resp = render_http_response(
        200, "text/plain; version=0.0.4",
        render_metrics_body(hub_.stats(), stats(), parts, sm, pipes,
                            ships, build));
  } else if (req.path == "/healthz") {
    std::vector<partition_health> parts(
        std::max(stores_.size(), shippers_.size()));
    bool any_desync = false;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      auto& p = parts[i];
      if (i < stores_.size() && stores_[i] != nullptr) {
        p.has_store = true;
        p.generation = stores_[i]->generation();
        p.wal_records = stores_[i]->wal_records();
      }
      if (i < shippers_.size() && shippers_[i] != nullptr) {
        const auto ss = shippers_[i]->stats();
        p.has_standby = ss.followers > 0;
        p.ship_lag_records = ss.max_lag_records;
        p.ship_desync = ss.any_desync;
        p.standby_synced = p.has_standby && !ss.any_desync;
        if (ss.any_desync) any_desync = true;
      }
    }
    resp = render_http_response(any_desync ? 503 : 200, "application/json",
                                render_healthz_body(parts));
  } else if (req.path == "/debug/traces") {
    resp = render_http_response(200, "application/json",
                                render_traces_body(hub_.traces()));
  } else {
    resp = render_http_response(404, "text/plain", "not found\n");
  }
  return head ? strip_http_body(resp) : resp;
}

void attest_server::request_close(connection& c, close_reason why) {
  if (c.close_requested()) return;
  c.mark_close_requested();
  fold_traffic(c);
  if (loop_.watching(c.fd())) loop_.remove(c.fd());
  doomed_.push_back(c.fd());
  connections_closed_.fetch_add(1, relaxed);
  switch (why) {
    case close_reason::framing_error:
      framing_errors_.fetch_add(1, relaxed);
      obs::log().emit(obs::log_level::warn, "conn_framing_error",
                      rl_framing, {{"conn", c.id()}});
      break;
    case close_reason::write_stalled:
      closed_stalled_.fetch_add(1, relaxed);
      obs::log().emit(obs::log_level::warn, "conn_write_stalled",
                      rl_close, {{"conn", c.id()}});
      break;
    case close_reason::idle:
      closed_idle_.fetch_add(1, relaxed);
      obs::log().emit(obs::log_level::debug, "conn_idle_closed",
                      rl_close, {{"conn", c.id()}});
      break;
    default:
      break;
  }
}

// ---- internals --------------------------------------------------------

void attest_server::on_accept(std::uint32_t) {
  for (;;) {
    const int fd = accept_connection(listen_fd_);
    if (fd < 0) return;
    if (conns_.size() >= cfg_.max_connections) {
      ::close(fd);  // shed load: the client sees a reset
      continue;
    }
    if (cfg_.limits.sndbuf != 0) {
      const int v = static_cast<int>(cfg_.limits.sndbuf);
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof v);
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<connection>(fd, id, *this, loop_,
                                             cfg_.limits);
    if (ingest_paused_) conn->pause_ingest();
    conns_by_id_[id] = conn.get();
    conns_[fd] = std::move(conn);
    connections_accepted_.fetch_add(1, relaxed);
    connections_open_.fetch_add(1, relaxed);
  }
}

void attest_server::deliver_completions() {
  for (auto& done : batcher_.drain_completions()) {
    const auto it = conns_by_id_.find(done.conn_id);
    if (it == conns_by_id_.end() || it->second->close_requested()) {
      dropped_conn_gone_.fetch_add(1, relaxed);
      continue;
    }
    attest_resp resp;
    resp.error = done.result.error;
    resp.accepted = done.result.accepted();
    resp.device_id = done.result.device;
    resp.seq = done.result.seq;
    const auto encoded = encode_attest_resp(resp);
    it->second->send_frame(encoded);
    responses_sent_.fetch_add(1, relaxed);
  }
}

void attest_server::check_backpressure() {
  const std::size_t backlog = batcher_.backlog();
  if (!ingest_paused_ && backlog >= cfg_.max_pending_frames) {
    ingest_paused_ = true;
    obs::log().emit(obs::log_level::warn, "ingest_paused",
                    rl_backpressure,
                    {{"backlog", backlog},
                     {"cap", cfg_.max_pending_frames}});
    for (auto& [fd, c] : conns_) {
      if (!c->close_requested()) c->pause_ingest();
    }
  } else if (ingest_paused_ && backlog <= cfg_.max_pending_frames / 2) {
    ingest_paused_ = false;
    obs::log().emit(obs::log_level::info, "ingest_resumed",
                    rl_backpressure, {{"backlog", backlog}});
    for (auto& [fd, c] : conns_) {
      if (!c->close_requested()) c->resume_ingest();
    }
  }
}

void attest_server::sweep(std::chrono::steady_clock::time_point now) {
  for (auto& [fd, c] : conns_) {
    fold_traffic(*c);
    if (c->close_requested()) continue;
    const auto verdict = c->sweep(now);
    if (verdict.close) request_close(*c, verdict.why);
  }
}

void attest_server::fold_traffic(connection& c) {
  bytes_in_.fetch_add(c.bytes_in - c.folded_in, relaxed);
  bytes_out_.fetch_add(c.bytes_out - c.folded_out, relaxed);
  backpressure_pauses_.fetch_add(c.pause_events - c.folded_pauses,
                                 relaxed);
  c.folded_in = c.bytes_in;
  c.folded_out = c.bytes_out;
  c.folded_pauses = c.pause_events;
}

void attest_server::process_doomed() {
  for (const int fd : doomed_) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    conns_by_id_.erase(it->second->id());
    conns_.erase(it);  // ~connection deregisters (no-op here) + close(2)
    connections_open_.fetch_sub(1, relaxed);
  }
  doomed_.clear();
}

}  // namespace dialed::net
