// The observability face of the attestation service: a deliberately tiny
// HTTP/1.x server-side — just enough to answer Prometheus scrapes and
// load-balancer health checks on the same reactor (and port) the binary
// protocol runs on. Two endpoints:
//
//   GET /metrics        hub counters (fleet/stats_render), per-stage
//                       latency histograms, the net server's own
//                       counters/gauges/histograms, store + WAL-ship
//                       health, build info — Prometheus text format
//   GET /healthz        hub + per-partition store/standby health, JSON;
//                       503 once any standby latches ship_desync
//   GET /debug/traces   flight-recorder dump (slowest + rejected span
//                       traces), JSON
//
// Requests are parsed from the connection's buffer (method + path only;
// headers are skipped), responses always carry Connection: close and the
// connection is torn down after the write — scrapes are one-shot, keeping
// the server free of keep-alive state.
#ifndef DIALED_NET_HTTP_METRICS_H
#define DIALED_NET_HTTP_METRICS_H

#include <span>
#include <string>

#include "fleet/stats_render.h"
#include "net/batcher.h"
#include "obs/obs.h"
#include "store/ship.h"

namespace dialed::net {

/// Snapshot of the backing store(s) for /metrics; `present == false`
/// renders no dialed_store_* families (serving without --state-dir).
/// With several stores the counts are sums.
struct store_metrics {
  bool present = false;
  const char* sync_policy = "none";  ///< store::to_string(wal_sync)
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_fsyncs = 0;  ///< group_commit_stats::syncs
};

/// Net-side counters, snapshotted by attest_server::stats(). Everything
/// here is maintained by the reactor thread and read via atomics (see
/// server.h); this is the plain-data view.
struct server_stats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connections_open = 0;  ///< gauge
  std::uint64_t tcp_frames = 0;        ///< report frames ingested via TCP
  std::uint64_t challenge_reqs = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t responses_sent = 0;    ///< attest/challenge responses
  std::uint64_t framing_errors = 0;    ///< poisoned streams, bad messages
  std::uint64_t dropped_conn_gone = 0; ///< results whose conn had closed
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t closed_stalled = 0;
  std::uint64_t closed_idle = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  batcher::stats batching;
};

/// One partition's slice of the /healthz body (and the 503 decision).
struct partition_health {
  bool has_store = false;
  std::uint64_t generation = 0;
  std::uint64_t wal_records = 0;
  bool has_standby = false;  ///< a wal_shipper with tracked followers
  std::uint64_t ship_lag_records = 0;
  bool standby_synced = false;
  bool ship_desync = false;  ///< latched follower error -> answer 503
};

/// The dialed_build_info labels: which binary, crypto backend and
/// durability policy this scrape talks to.
struct build_info_metrics {
  const char* version = "";
  const char* sha256_backend = "";
  const char* wal_sync = "none";
};

struct http_request {
  bool complete = false;   ///< header terminator seen
  bool too_large = false;  ///< header exceeded the cap before terminating
  bool malformed = false;  ///< request line did not parse
  std::string method;
  std::string path;
};

/// Parse the head of `buf` as an HTTP request. Returns complete=false
/// while the blank line hasn't arrived (keep reading), too_large once
/// `max_header` bytes arrived without one.
http_request parse_http_request(std::span<const std::uint8_t> buf,
                                std::size_t max_header);

/// A full HTTP/1.1 response (status line, minimal headers incl.
/// Content-Length and Connection: close, then body). `extra_headers`,
/// when non-empty, must be complete CRLF-terminated header lines (e.g.
/// "Allow: GET, HEAD\r\n").
std::string render_http_response(int status,
                                 const std::string& content_type,
                                 const std::string& body,
                                 const std::string& extra_headers = {});

/// Drop the body of a rendered response, keeping every header byte —
/// the HEAD answer (Content-Length still names the GET body's size, as
/// the RFC wants).
std::string strip_http_body(const std::string& response);

/// The /metrics body: hub families + dialed_net_* families. A non-empty
/// `partitions` (one hub_stats per partition, from
/// hub_like::partition_stats) additionally renders the labeled
/// dialed_partition_* families; `pipelines`
/// (hub_like::partition_pipelines, or a single aggregate snapshot for a
/// bare hub) renders dialed_stage_latency_seconds; `ship` (one
/// wal_shipper::stats per partition) renders the dialed_ship_* standby
/// families; a build with a non-empty version renders dialed_build_info.
std::string render_metrics_body(
    const fleet::hub_stats& hub, const server_stats& net,
    std::span<const fleet::hub_stats> partitions = {},
    const store_metrics& store = {},
    std::span<const obs::pipeline_snapshot> pipelines = {},
    std::span<const store::ship_stats> ship = {},
    const build_info_metrics& build = {});

/// The /healthz body: overall status plus one entry per partition. The
/// endpoint answers 503 when any partition reads ship_desync (the
/// standby is silently diverging — the operator signal this exists
/// for). Empty `parts` renders the storeless body.
std::string render_healthz_body(std::span<const partition_health> parts);

/// The /debug/traces body: the flight-recorder dump as JSON (bounded;
/// a reactor-safe snapshot taken by the caller).
std::string render_traces_body(const obs::trace_dump& d);

}  // namespace dialed::net

#endif  // DIALED_NET_HTTP_METRICS_H
