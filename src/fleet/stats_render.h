// Render verifier_hub::stats() for export: one set of counters, two
// serializations. The JSON form is what `dialed-attest --stats-json`
// writes on exit; the Prometheus text form is what `dialed-serve`'s live
// /metrics endpoint scrapes. Keeping both renderers in one place (instead
// of the JSON writer living inside the CLI tool) means a counter added to
// hub_stats shows up in the file export and on the wire in the same PR —
// the two views can never drift apart.
#ifndef DIALED_FLEET_STATS_RENDER_H
#define DIALED_FLEET_STATS_RENDER_H

#include <span>
#include <string>

#include "fleet/hub_like.h"

namespace dialed::fleet {

/// Hub counters (incl. the per-device breakdown) as a pretty-printed JSON
/// document.
std::string render_stats_json(const hub_stats& s);

/// Escape a Prometheus label VALUE per the text exposition format:
/// backslash, double-quote and newline become \\, \" and \n (the only
/// three escapes the format defines — everything else passes through).
/// Every renderer here routes label values through this; callers
/// assembling their own labels should too.
std::string escape_label_value(const std::string& v);

/// Prometheus text exposition primitives every renderer here (and the
/// net server's own families) writes through: `family` introduces a
/// family with its HELP/TYPE header, `sample` appends one
/// `name{labels} value` line (`labels` braced, or empty).
void family(std::string& out, const char* name, const char* type,
            const char* help);
void sample(std::string& out, const char* name, std::uint64_t value,
            const std::string& labels = {});

/// Append the hub counters to `out` in Prometheus text exposition format
/// (one HELP/TYPE header per family, `dialed_hub_` prefix). Appends —
/// callers with their own metrics (the net server) concatenate families
/// into one scrape body.
void render_stats_prometheus(const hub_stats& s, std::string& out);

/// Append the per-partition families (`dialed_partition_` prefix, one
/// sample per partition labeled partition="i") for a partitioned hub —
/// `parts` is hub_like::partition_stats(), in partition-index order.
/// Empty input appends nothing, so unpartitioned scrape bodies are
/// unchanged.
void render_partition_prometheus(std::span<const hub_stats> parts,
                                 std::string& out);

/// Append one obs latency histogram's samples (`name_bucket` with
/// cumulative le labels in SECONDS, `name_sum`, `name_count`) — no
/// HELP/TYPE header; the caller emits the family introduction once and
/// may call this repeatedly with different `labels` (comma-joined
/// `k="v"` pairs, no braces; empty for an unlabeled histogram).
void render_latency_samples(const obs::histogram_snapshot& h,
                            const char* name, const std::string& labels,
                            std::string& out);

/// Append the `dialed_stage_latency_seconds{stage,partition}` histogram
/// family: one histogram per pipeline stage per partition. `parts` is
/// hub_like::partition_pipelines() in partition-index order; a
/// single-hub caller passes one snapshot (labeled partition="0").
/// Empty input appends nothing.
void render_stage_prometheus(std::span<const obs::pipeline_snapshot> parts,
                             std::string& out);

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_STATS_RENDER_H
