// attest_server: the DIALED attestation service front-end. One reactor
// thread multiplexes
//
//   * a TCP listener for the length-prefixed binary protocol (challenge
//     requests + report frames) AND one-shot HTTP scrapes (/metrics,
//     /healthz, /debug/traces) — protocol sniffed per connection (see
//     connection.h). Every report gets a typed answer on its connection;
//     there is no fire-and-forget ingest;
//   * the batcher's completion queues (verification happens on the
//     batcher's verify threads, one per partition — the reactor never
//     blocks on crypto).
//
// Batching needs no timer: each reactor turn ends by handing the frames
// read in it to their partition's verify thread, which takes up to
// max_batch_frames (64) of whatever is queued whenever it is free (see
// batcher.h). So the epoll timeout serves only the sweep.
//
// Backpressure, two levels:
//   * per-connection write-queue watermarks (connection.h) — a peer that
//     won't drain responses stops being read;
//   * a global ingest cap: when frames accepted-but-unverified exceed
//     `max_pending_frames`, EVERY connection's reads pause until the
//     backlog drains to half — memory stays bounded no matter how many
//     clients push.
//
// Closing a connection is always deferred to the end of the reactor turn
// (doomed list): epoll may still hold queued events for the fd this
// round, and closing it early would let accept() reuse the number and
// alias them onto a different peer.
//
// Thread-safety surface: run() (or start()'s internal thread) owns all
// connection state. request_stop() is thread- AND async-signal-safe.
// stats() and tcp_port() are safe from any thread.
#ifndef DIALED_NET_SERVER_H
#define DIALED_NET_SERVER_H

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/batcher.h"
#include "net/connection.h"
#include "net/http_metrics.h"
#include "net/listener.h"
#include "store/fleet_store.h"

namespace dialed::net {

struct server_config {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t tcp_port = 0;  ///< 0 = ephemeral
  connection_limits limits;
  /// Global ingest cap: frames accepted but not yet verified before all
  /// reads pause. Resumes at half.
  std::size_t max_pending_frames = 4096;
  std::size_t max_connections = 1024;
  /// Cadence of the write-stall/idle timeout sweep (and traffic-counter
  /// fold into the atomic stats).
  std::uint32_t sweep_interval_ms = 200;
};

class attest_server final : public connection_host {
 public:
  /// `hub` is any hub_like — a bare verifier_hub or a partition_router
  /// (the server is how `--partitions N` serves unmodified). `stores`
  /// (optional) powers /healthz depth — one entry per backing store
  /// (a partitioned fleet has one, labeled partition 0); the registry
  /// must already be wired to it as its persist sink by the caller.
  /// `shippers` (optional, same indexing)
  /// powers the dialed_ship_* families and the standby half of /healthz
  /// — once any tracked follower latches ship_desync, /healthz answers
  /// 503. All must outlive the server. Binds the listen socket
  /// immediately (throws dialed::error).
  attest_server(fleet::hub_like& hub, server_config cfg,
                std::vector<store::fleet_store*> stores = {},
                std::vector<const store::wal_shipper*> shippers = {});
  ~attest_server();  ///< stops and joins if still running

  attest_server(const attest_server&) = delete;
  attest_server& operator=(const attest_server&) = delete;

  /// Run the reactor loop on the calling thread until request_stop().
  void run();

  /// Run the reactor loop on an internal thread; returns once it is
  /// serving.
  void start();

  /// request_stop() + join the internal thread (no-op without start()).
  void stop();

  /// Thread- and async-signal-safe: usable from a SIGINT/SIGTERM handler.
  void request_stop();

  std::uint16_t tcp_port() const { return tcp_port_; }

  /// Snapshot of the service counters (atomics; safe from any thread).
  /// Live connections' traffic is folded in every sweep interval, so
  /// bytes may trail reality by up to sweep_interval_ms.
  server_stats stats() const;

  // ---- connection_host (reactor thread only) --------------------------
  void on_challenge_req(connection& c, const challenge_req& m) override;
  void on_report_frame(connection& c, byte_vec frame) override;
  std::string handle_http(const http_request& req) override;
  void request_close(connection& c, close_reason why) override;

 private:
  struct member_handler final : reactor_handler {
    attest_server* srv = nullptr;
    void (attest_server::*fn)(std::uint32_t) = nullptr;
    void on_event(std::uint32_t events) override { (srv->*fn)(events); }
  };

  void on_accept(std::uint32_t events);
  void deliver_completions();
  void check_backpressure();
  void sweep(std::chrono::steady_clock::time_point now);
  void fold_traffic(connection& c);
  void process_doomed();

  fleet::hub_like& hub_;
  server_config cfg_;
  std::vector<store::fleet_store*> stores_;
  std::vector<const store::wal_shipper*> shippers_;

  int listen_fd_ = -1;
  std::uint16_t tcp_port_ = 0;

  reactor loop_;
  batcher batcher_;  ///< after loop_: its verify threads wake the reactor
  member_handler accept_handler_;

  // Reactor-thread-only state.
  std::map<int, std::unique_ptr<connection>> conns_;         ///< by fd
  std::map<std::uint64_t, connection*> conns_by_id_;
  std::vector<int> doomed_;  ///< fds to tear down at end of turn
  std::uint64_t next_conn_id_ = 1;
  bool ingest_paused_ = false;
  bool sweeps_enabled_ = false;
  std::chrono::steady_clock::time_point last_sweep_;

  // Counters (relaxed atomics; see stats()).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> tcp_frames_{0};
  std::atomic<std::uint64_t> challenge_reqs_{0};
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> framing_errors_{0};
  std::atomic<std::uint64_t> dropped_conn_gone_{0};
  std::atomic<std::uint64_t> backpressure_pauses_{0};
  std::atomic<std::uint64_t> closed_stalled_{0};
  std::atomic<std::uint64_t> closed_idle_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};

  std::atomic<bool> stop_flag_{false};
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace dialed::net

#endif  // DIALED_NET_SERVER_H
