#include "fleet/stats_render.h"

#include <sstream>

namespace dialed::fleet {

void family(std::string& out, const char* name, const char* type,
            const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, const char* name, std::uint64_t value,
            const std::string& labels) {
  out += name;
  out += labels;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string render_stats_json(const hub_stats& s) {
  std::ostringstream out;
  const char* sep = "";
  out << "{\n";
  out << "  \"challenges_issued\": " << s.challenges_issued << ",\n";
  out << "  \"challenges_expired\": " << s.challenges_expired << ",\n";
  out << "  \"challenges_superseded\": " << s.challenges_superseded
      << ",\n";
  out << "  \"reports_accepted\": " << s.reports_accepted << ",\n";
  out << "  \"reports_rejected_verdict\": " << s.reports_rejected_verdict
      << ",\n";
  out << "  \"replay_memo_hits\": " << s.replay_memo_hits << ",\n";
  out << "  \"replay_memo_misses\": " << s.replay_memo_misses << ",\n";
  out << "  \"rejected_by_error\": {";
  for (std::size_t i = 1; i < s.rejected_by_error.size(); ++i) {
    const auto e = static_cast<proto::proto_error>(i);
    out << sep << "\n    \"" << proto::to_string(e)
        << "\": " << s.rejected_by_error[i];
    sep = ",";
  }
  out << "\n  },\n";
  out << "  \"devices\": {";
  sep = "";
  for (const auto& [id, c] : s.per_device) {
    out << sep << "\n    \"" << id << "\": {\"accepted\": " << c.accepted
        << ", \"rejected_verdict\": " << c.rejected_verdict
        << ", \"replayed\": " << c.replayed
        << ", \"rejected_protocol\": " << c.rejected_protocol << "}";
    sep = ",";
  }
  out << "\n  }\n}\n";
  return out.str();
}

void render_stats_prometheus(const hub_stats& s, std::string& out) {
  family(out, "dialed_hub_challenges_issued_total", "counter",
         "Challenges drawn from the hub.");
  sample(out, "dialed_hub_challenges_issued_total", s.challenges_issued);
  family(out, "dialed_hub_challenges_expired_total", "counter",
         "Challenges retired past their TTL.");
  sample(out, "dialed_hub_challenges_expired_total", s.challenges_expired);
  family(out, "dialed_hub_challenges_superseded_total", "counter",
         "Challenges evicted by capacity.");
  sample(out, "dialed_hub_challenges_superseded_total",
         s.challenges_superseded);
  family(out, "dialed_hub_reports_accepted_total", "counter",
         "Reports that passed protocol checks and the full verdict.");
  sample(out, "dialed_hub_reports_accepted_total", s.reports_accepted);
  family(out, "dialed_hub_reports_rejected_verdict_total", "counter",
         "Reports that reached verification but failed the verdict.");
  sample(out, "dialed_hub_reports_rejected_verdict_total",
         s.reports_rejected_verdict);
  family(out, "dialed_hub_reports_rejected_protocol_total", "counter",
         "Submissions that never reached verification, by typed error.");
  for (std::size_t i = 1; i < s.rejected_by_error.size(); ++i) {
    const auto e = static_cast<proto::proto_error>(i);
    sample(out, "dialed_hub_reports_rejected_protocol_total",
           s.rejected_by_error[i],
           "{reason=\"" + escape_label_value(proto::to_string(e)) +
               "\"}");
  }
  family(out, "dialed_replay_memo_hits_total", "counter",
         "Verdicts reused from the device's last accepted round.");
  sample(out, "dialed_replay_memo_hits_total", s.replay_memo_hits);
  family(out, "dialed_replay_memo_misses_total", "counter",
         "Replays executed: no reusable accepted round matched the OR.");
  sample(out, "dialed_replay_memo_misses_total", s.replay_memo_misses);
  if (!s.per_device.empty()) {
    family(out, "dialed_hub_device_reports_total", "counter",
           "Per-device submissions by outcome.");
    for (const auto& [id, c] : s.per_device) {
      const std::string dev = "device=\"" + std::to_string(id) + "\"";
      sample(out, "dialed_hub_device_reports_total", c.accepted,
             "{" + dev + ",outcome=\"accepted\"}");
      sample(out, "dialed_hub_device_reports_total", c.rejected_verdict,
             "{" + dev + ",outcome=\"rejected_verdict\"}");
      sample(out, "dialed_hub_device_reports_total", c.replayed,
             "{" + dev + ",outcome=\"replayed\"}");
      sample(out, "dialed_hub_device_reports_total", c.rejected_protocol,
             "{" + dev + ",outcome=\"rejected_protocol\"}");
    }
  }
}

void render_latency_samples(const obs::histogram_snapshot& h,
                            const char* name, const std::string& labels,
                            std::string& out) {
  const std::string sep = labels.empty() ? "" : ",";
  char buf[48];
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < obs::latency_buckets; ++i) {
    cum += h.buckets[i];
    std::string le = "+Inf";
    if (i + 1 != obs::latency_buckets) {
      // Bucket bounds are exact powers-of-two nanoseconds; %g in seconds
      // renders them compactly (1.024e-06, 0.00524288, ...).
      std::snprintf(buf, sizeof buf, "%g",
                    static_cast<double>(obs::latency_bucket_bound_ns(i)) *
                        1e-9);
      le = buf;
    }
    sample(out, (std::string(name) + "_bucket").c_str(), cum,
           "{" + labels + sep + "le=\"" + le + "\"}");
  }
  const std::string braced = labels.empty() ? "" : "{" + labels + "}";
  std::snprintf(buf, sizeof buf, "%.9g",
                static_cast<double>(h.sum_ns) * 1e-9);
  out += name;
  out += "_sum";
  out += braced;
  out += ' ';
  out += buf;
  out += '\n';
  sample(out, (std::string(name) + "_count").c_str(), h.count, braced);
}

void render_stage_prometheus(std::span<const obs::pipeline_snapshot> parts,
                             std::string& out) {
  if (parts.empty()) return;
  family(out, "dialed_stage_latency_seconds", "histogram",
         "Per-report pipeline stage latency "
         "(decode/journal/mac/replay/verdict), per partition.");
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::size_t s = 0; s < obs::stage_count; ++s) {
      const std::string labels =
          "stage=\"" +
          escape_label_value(obs::to_string(static_cast<obs::stage>(s))) +
          "\",partition=\"" + std::to_string(p) + "\"";
      render_latency_samples(parts[p].stages[s],
                             "dialed_stage_latency_seconds", labels, out);
    }
  }
}

void render_partition_prometheus(std::span<const hub_stats> parts,
                                 std::string& out) {
  if (parts.empty()) return;
  const auto each = [&](const char* name, const char* type,
                        const char* help, auto value_of) {
    family(out, name, type, help);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      sample(out, name, value_of(parts[i]),
             "{partition=\"" +
                 escape_label_value(std::to_string(i)) + "\"}");
    }
  };
  each("dialed_partition_challenges_issued_total", "counter",
       "Challenges drawn, per hub partition.",
       [](const hub_stats& s) { return s.challenges_issued; });
  each("dialed_partition_reports_accepted_total", "counter",
       "Accepted reports, per hub partition.",
       [](const hub_stats& s) { return s.reports_accepted; });
  each("dialed_partition_reports_rejected_total", "counter",
       "Rejected reports (verdict + protocol), per hub partition.",
       [](const hub_stats& s) {
         return s.reports_rejected_verdict + s.reports_rejected_protocol();
       });
  each("dialed_partition_reports_replayed_total", "counter",
       "Replayed reports caught, per hub partition.",
       [](const hub_stats& s) {
         return s.rejected_by_error[static_cast<std::size_t>(
             proto::proto_error::replayed_report)];
       });
}

}  // namespace dialed::fleet
