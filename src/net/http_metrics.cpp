#include "net/http_metrics.h"

#include <algorithm>

#include "proto/errors.h"

namespace dialed::net {

namespace {

using fleet::family;
using fleet::sample;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

}  // namespace

http_request parse_http_request(std::span<const std::uint8_t> buf,
                                std::size_t max_header) {
  http_request req;
  static constexpr char term[] = "\r\n\r\n";
  const auto end = std::search(buf.begin(), buf.end(), term, term + 4);
  if (end == buf.end()) {
    req.too_large = buf.size() >= max_header;
    return req;
  }
  req.complete = true;
  // Request line: METHOD SP PATH SP VERSION
  const auto eol =
      std::find(buf.begin(), buf.end(), static_cast<std::uint8_t>('\r'));
  std::string line(buf.begin(), eol);
  const auto sp1 = line.find(' ');
  const auto sp2 = sp1 == std::string::npos ? std::string::npos
                                            : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    req.malformed = true;
    return req;
  }
  req.method = line.substr(0, sp1);
  req.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Scrapers may append a query string; route on the bare path.
  if (const auto q = req.path.find('?'); q != std::string::npos) {
    req.path.resize(q);
  }
  return req;
}

std::string render_http_response(int status,
                                 const std::string& content_type,
                                 const std::string& body,
                                 const std::string& extra_headers) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    status_text(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += extra_headers;
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

std::string strip_http_body(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  if (pos == std::string::npos) return response;
  return response.substr(0, pos + 4);
}

std::string render_metrics_body(
    const fleet::hub_stats& hub, const server_stats& net,
    std::span<const fleet::hub_stats> partitions,
    const store_metrics& store,
    std::span<const obs::pipeline_snapshot> pipelines,
    std::span<const store::ship_stats> ship,
    const build_info_metrics& build) {
  std::string out;
  out.reserve(8192);
  fleet::render_stats_prometheus(hub, out);
  fleet::render_partition_prometheus(partitions, out);
  fleet::render_stage_prometheus(pipelines, out);

  family(out, "dialed_net_connections_accepted_total", "counter",
         "TCP connections accepted.");
  sample(out, "dialed_net_connections_accepted_total",
         net.connections_accepted);
  family(out, "dialed_net_connections_open", "gauge",
         "TCP connections currently open.");
  sample(out, "dialed_net_connections_open", net.connections_open);
  family(out, "dialed_net_frames_total", "counter",
         "Report frames ingested, by transport.");
  sample(out, "dialed_net_frames_total", net.tcp_frames,
         "{transport=\"tcp\"}");
  family(out, "dialed_net_challenge_requests_total", "counter",
         "Challenge requests served.");
  sample(out, "dialed_net_challenge_requests_total", net.challenge_reqs);
  family(out, "dialed_net_http_requests_total", "counter",
         "HTTP requests served.");
  sample(out, "dialed_net_http_requests_total", net.http_requests);
  family(out, "dialed_net_responses_total", "counter",
         "Binary responses written back.");
  sample(out, "dialed_net_responses_total", net.responses_sent);
  family(out, "dialed_net_framing_errors_total", "counter",
         "Connections dropped for unrecoverable framing.");
  sample(out, "dialed_net_framing_errors_total", net.framing_errors);
  family(out, "dialed_net_dropped_results_total", "counter",
         "Verify results whose connection had already closed.");
  sample(out, "dialed_net_dropped_results_total", net.dropped_conn_gone);
  family(out, "dialed_net_backpressure_pauses_total", "counter",
         "Times a connection's reads were paused at the write high-water "
         "mark or the ingest backlog cap.");
  sample(out, "dialed_net_backpressure_pauses_total",
         net.backpressure_pauses);
  family(out, "dialed_net_connections_closed_total", "counter",
         "Connections closed, by cause (subset: stalled, idle).");
  sample(out, "dialed_net_connections_closed_total", net.connections_closed,
         "{cause=\"any\"}");
  sample(out, "dialed_net_connections_closed_total", net.closed_stalled,
         "{cause=\"write_stalled\"}");
  sample(out, "dialed_net_connections_closed_total", net.closed_idle,
         "{cause=\"idle\"}");
  family(out, "dialed_net_bytes_total", "counter",
         "Socket bytes, by direction.");
  sample(out, "dialed_net_bytes_total", net.bytes_in,
         "{direction=\"in\"}");
  sample(out, "dialed_net_bytes_total", net.bytes_out,
         "{direction=\"out\"}");
  family(out, "dialed_net_ingest_backlog", "gauge",
         "Frames accepted but not yet verified.");
  sample(out, "dialed_net_ingest_backlog", net.batching.backlog);
  family(out, "dialed_net_batches_total", "counter",
         "verify_batch calls, one per batch a verify thread took.");
  sample(out, "dialed_net_batches_total", net.batching.batches);
  family(out, "dialed_net_batch_frames_total", "counter",
         "Frames passed to verify_batch.");
  sample(out, "dialed_net_batch_frames_total", net.batching.batch_frames);
  // Batch-size histogram in Prometheus cumulative-bucket form.
  family(out, "dialed_net_batch_size", "histogram",
         "verify_batch sizes (frames per batch, at most 64).");
  std::uint64_t cum = 0;
  std::size_t bound = 1;
  for (std::size_t i = 0; i < batch_hist_buckets; ++i) {
    cum += net.batching.batch_size_hist[i];
    const std::string le =
        i + 1 == batch_hist_buckets ? "+Inf" : std::to_string(bound);
    sample(out, "dialed_net_batch_size_bucket", cum,
           "{le=\"" + le + "\"}");
    bound <<= 1;
  }
  sample(out, "dialed_net_batch_size_sum", net.batching.batch_frames);
  sample(out, "dialed_net_batch_size_count", net.batching.batches);
  // Queue wait: enqueue on the reactor to verify start on a verify thread
  // — the latency the batcher itself adds in front of the pipeline.
  family(out, "dialed_net_queue_wait_seconds", "histogram",
         "Frame wait from ingest enqueue to verify start.");
  fleet::render_latency_samples(net.batching.queue_wait,
                                "dialed_net_queue_wait_seconds", "", out);

  if (store.present) {
    family(out, "dialed_store_wal_sync_policy", "gauge",
           "Configured WAL durability policy (1 on the active label).");
    sample(out, "dialed_store_wal_sync_policy", 1,
           std::string("{policy=\"") + store.sync_policy + "\"}");
    family(out, "dialed_store_wal_records", "gauge",
           "WAL records since the last snapshot (all partitions).");
    sample(out, "dialed_store_wal_records", store.wal_records);
    family(out, "dialed_store_wal_bytes", "gauge",
           "WAL bytes since the last snapshot (all partitions).");
    sample(out, "dialed_store_wal_bytes", store.wal_bytes);
    // per_record fsyncs each provisioning record alone; `none` never
    // fsyncs.
    family(out, "dialed_store_wal_fsyncs_total", "counter",
           "WAL fsyncs issued (all partitions).");
    sample(out, "dialed_store_wal_fsyncs_total", store.wal_fsyncs);
  }
  if (!ship.empty()) {
    const auto each = [&](const char* name, const char* type,
                          const char* help, auto value_of) {
      family(out, name, type, help);
      for (std::size_t i = 0; i < ship.size(); ++i) {
        sample(out, name, value_of(ship[i]),
               "{partition=\"" + std::to_string(i) + "\"}");
      }
    };
    each("dialed_ship_records_total", "counter",
         "WAL records shipped to standbys, per partition.",
         [](const store::ship_stats& s) { return s.records_shipped; });
    each("dialed_ship_bytes_total", "counter",
         "WAL bytes shipped to standbys, per partition.",
         [](const store::ship_stats& s) { return s.bytes_shipped; });
    each("dialed_ship_snapshots_total", "counter",
         "Snapshots shipped to standbys, per partition.",
         [](const store::ship_stats& s) { return s.snapshots_shipped; });
    each("dialed_ship_followers", "gauge",
         "Tracked standby followers, per partition.",
         [](const store::ship_stats& s) { return s.followers; });
    each("dialed_ship_lag_records", "gauge",
         "Max standby apply lag in records, per partition.",
         [](const store::ship_stats& s) { return s.max_lag_records; });
    each("dialed_ship_desync", "gauge",
         "1 while any standby of the partition has latched a stream "
         "error.",
         [](const store::ship_stats& s) {
           return static_cast<std::uint64_t>(s.any_desync ? 1 : 0);
         });
  }
  if (build.version != nullptr && build.version[0] != '\0') {
    family(out, "dialed_build_info", "gauge",
           "Build identity: constant 1, the labels are the data.");
    sample(out, "dialed_build_info", 1,
           "{version=\"" + fleet::escape_label_value(build.version) +
               "\",sha256_backend=\"" +
               fleet::escape_label_value(build.sha256_backend) +
               "\",wal_sync=\"" +
               fleet::escape_label_value(build.wal_sync) + "\"}");
  }
  return out;
}

std::string render_healthz_body(std::span<const partition_health> parts) {
  bool any_store = false;
  bool any_desync = false;
  std::uint64_t wal_records = 0;
  std::uint64_t generation = 0;
  for (const auto& p : parts) {
    if (p.has_store) {
      any_store = true;
      wal_records += p.wal_records;
      generation = std::max(generation, p.generation);
    }
    if (p.ship_desync) any_desync = true;
  }
  // Legacy aggregate fields first (existing probes grep for them), then
  // the per-partition detail.
  std::string out = "{\"hub\": \"ok\", \"status\": ";
  out += any_desync ? "\"degraded\"" : "\"ok\"";
  out += ", \"store\": ";
  if (!any_store) {
    out += "\"none\"";
  } else {
    out += any_desync ? "\"degraded\"" : "\"ok\"";
    out += ", \"wal_records\": " + std::to_string(wal_records) +
           ", \"generation\": " + std::to_string(generation);
  }
  if (!parts.empty()) {
    out += ", \"partitions\": [";
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const auto& p = parts[i];
      if (i != 0) out += ", ";
      out += "{\"partition\": " + std::to_string(i) + ", \"store\": ";
      if (!p.has_store) {
        out += "\"none\"";
      } else {
        out += p.ship_desync ? "\"degraded\"" : "\"ok\"";
        out += ", \"generation\": " + std::to_string(p.generation) +
               ", \"wal_records\": " + std::to_string(p.wal_records);
      }
      if (p.has_standby) {
        out += ", \"standby\": {\"synced\": ";
        out += p.standby_synced ? "true" : "false";
        out += ", \"lag_records\": " +
               std::to_string(p.ship_lag_records) + ", \"desync\": ";
        out += p.ship_desync ? "true" : "false";
        out += "}";
      }
      out += "}";
    }
    out += "]";
  }
  out += "}\n";
  return out;
}

namespace {

void render_trace(std::string& out, const obs::span_trace& t) {
  out += "{\"trace_id\": " + std::to_string(t.trace_id) +
         ", \"partition\": " + std::to_string(t.partition) +
         ", \"device\": " + std::to_string(t.device) +
         ", \"seq\": " + std::to_string(t.seq) + ", \"accepted\": ";
  out += t.accepted ? "true" : "false";
  out += ", \"error\": \"";
  out += t.error < proto::proto_error_count
             ? proto::to_string(static_cast<proto::proto_error>(t.error))
             : "unknown";
  out += "\", \"total_ns\": " + std::to_string(t.total_ns) +
         ", \"stages\": {";
  for (std::size_t s = 0; s < obs::stage_count; ++s) {
    if (s != 0) out += ", ";
    out += std::string("\"") +
           obs::to_string(static_cast<obs::stage>(s)) +
           "\": " + std::to_string(t.stage_ns[s]);
  }
  out += "}}";
}

}  // namespace

std::string render_traces_body(const obs::trace_dump& d) {
  std::string out;
  out.reserve(1024);
  out += "{\"slowest_ns\": " + std::to_string(d.slowest_ns) +
         ", \"slow_recorded\": " + std::to_string(d.slow_recorded) +
         ", \"rejected_recorded\": " +
         std::to_string(d.rejected_recorded) + ", \"slow\": [";
  for (std::size_t i = 0; i < d.slow.size(); ++i) {
    if (i != 0) out += ", ";
    render_trace(out, d.slow[i]);
  }
  out += "], \"rejected\": [";
  for (std::size_t i = 0; i < d.rejected.size(); ++i) {
    if (i != 0) out += ", ";
    render_trace(out, d.rejected[i]);
  }
  out += "]}\n";
  return out;
}

}  // namespace dialed::net
