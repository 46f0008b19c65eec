#include "traced_hub.h"

#include "common/bytes.h"
#include "obs/obs.h"
#include "proto/wire.h"

namespace ledger {

namespace {

std::uint64_t stage_sum_ns(const dialed::obs::pipeline_snapshot& p) {
  std::uint64_t ns = 0;
  for (const auto& s : p.stages) ns += s.sum_ns;
  return ns;
}

/// device << 32 | seq from a v2/v2.1 frame header (0 when unreadable).
std::uint64_t report_id(std::span<const std::uint8_t> frame) {
  const auto dev = dialed::proto::peek_device_id(frame);
  if (!dev || frame.size() < 12) return 0;
  return (static_cast<std::uint64_t>(*dev) << 32) |
         dialed::load_le32(frame, 8);
}

}  // namespace

dialed::fleet::challenge_grant traced_hub::challenge(
    dialed::fleet::device_id id) {
  const auto t0 = dialed::obs::now_ns();
  auto g = inner_.challenge(id);
  const auto t1 = dialed::obs::now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.challenges;
  totals_.challenge_ns += t1 - t0;
  if (recording_) {
    spans_.push_back({"hub.challenge", next_span_++, 0, t0, t1,
                      (static_cast<std::uint64_t>(id) << 32) | g.seq});
  }
  return g;
}

dialed::fleet::attest_result traced_hub::submit(
    std::span<const std::uint8_t> frame) {
  return inner_.submit(frame);
}

std::vector<dialed::fleet::attest_result> traced_hub::verify_batch(
    std::span<const dialed::byte_vec> frames) {
  // The batcher runs one verify_batch at a time, so the pipeline delta
  // across this call is exactly this batch's stage time.
  const auto before = stage_sum_ns(inner_.pipeline());
  const auto t0 = dialed::obs::now_ns();
  auto out = inner_.verify_batch(frames);
  const auto t1 = dialed::obs::now_ns();
  const auto after = stage_sum_ns(inner_.pipeline());

  std::lock_guard<std::mutex> lk(mu_);
  totals_.frames += frames.size();
  totals_.busy_ns += t1 - t0;
  totals_.frame_verify_ns += (t1 - t0) * frames.size();
  totals_.stage_ns += after - before;
  if (!recording_) return out;
  const auto batch_span = next_span_++;
  spans_.push_back({"hub.verify_batch", batch_span, 0, t0, t1, 0});
  for (const auto& f : frames) {
    spans_.push_back(
        {"hub.verify", next_span_++, batch_span, t0, t1, report_id(f)});
  }
  return out;
}

traced_hub::totals traced_hub::window() const {
  std::lock_guard<std::mutex> lk(mu_);
  return totals_;
}

void traced_hub::record_spans(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  recording_ = on;
}

std::deque<span> traced_hub::take_spans() {
  std::lock_guard<std::mutex> lk(mu_);
  return std::move(spans_);
}

}  // namespace ledger
