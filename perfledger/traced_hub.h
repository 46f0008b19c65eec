// A hub_like decorator for the traced run: it forwards every call to the
// real hub (the partition router) and times challenge() and
// verify_batch() from outside. Spans stay in memory until the run writes
// them out. The untraced runs that produce the end-to-end numbers serve
// the router directly, without this layer.
#ifndef DIALED_PERFLEDGER_TRACED_HUB_H
#define DIALED_PERFLEDGER_TRACED_HUB_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "fleet/hub_like.h"

namespace ledger {

/// One recorded span. `report` is device << 32 | seq, the id the client
/// side uses for the same report; `parent` is a span id (0 = root).
struct span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t report = 0;
};

class traced_hub final : public dialed::fleet::hub_like {
 public:
  explicit traced_hub(dialed::fleet::hub_like& inner) : inner_(inner) {}

  dialed::fleet::challenge_grant challenge(
      dialed::fleet::device_id id) override;
  dialed::fleet::attest_result submit(
      std::span<const std::uint8_t> frame) override;
  std::vector<dialed::fleet::attest_result> verify_batch(
      std::span<const dialed::byte_vec> frames) override;
  void tick(std::uint64_t n) override { inner_.tick(n); }
  using hub_like::tick;
  std::uint64_t now() const override { return inner_.now(); }
  std::size_t outstanding(dialed::fleet::device_id id) const override {
    return inner_.outstanding(id);
  }
  std::size_t batch_workers() const override {
    return inner_.batch_workers();
  }
  dialed::fleet::hub_stats stats(bool include_per_device) const override {
    return inner_.stats(include_per_device);
  }
  std::vector<dialed::fleet::hub_stats> partition_stats() const override {
    return inner_.partition_stats();
  }
  dialed::obs::pipeline_snapshot pipeline() const override {
    return inner_.pipeline();
  }
  std::vector<dialed::obs::pipeline_snapshot> partition_pipelines()
      const override {
    return inner_.partition_pipelines();
  }
  dialed::obs::trace_dump traces() const override { return inner_.traces(); }

  /// Counters over a window (see window()).
  struct totals {
    std::uint64_t challenges = 0;
    std::uint64_t challenge_ns = 0;
    std::uint64_t frames = 0;
    std::uint64_t busy_ns = 0;          ///< sum of verify_batch wall time
    /// Sum over frames of their batch's verify_batch wall time.
    std::uint64_t frame_verify_ns = 0;
    /// Sum over batches of the obs stage time of the batch's reports. The
    /// hub verifies a batch's reports one after another on one thread, so
    /// this should cover busy_ns.
    std::uint64_t stage_ns = 0;
  };
  totals window() const;

  /// Spans are recorded only while on (counters always run).
  void record_spans(bool on);
  /// Move the recorded spans out (call once traffic has stopped).
  std::deque<span> take_spans();

 private:
  dialed::fleet::hub_like& inner_;

  mutable std::mutex mu_;  ///< guards everything below
  totals totals_;
  bool recording_ = false;
  std::deque<span> spans_;  ///< deque: growth never copies old spans
  std::uint64_t next_span_ = 1;
};

}  // namespace ledger

#endif  // DIALED_PERFLEDGER_TRACED_HUB_H
