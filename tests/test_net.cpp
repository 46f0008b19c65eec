// The attestation service over real sockets: stream-framer reassembly
// under arbitrary splits, the service control-message codec, HTTP
// parsing, and a loopback integration battery — concurrent clients
// across all four embedded apps, interleaved v2/v2.1 multi-device
// traffic on one connection, delta desync falling back to a full frame
// on the same nonce, slow-reader backpressure, global ingest caps,
// mid-stream disconnects, oversized length prefixes, /metrics–/healthz
// scrapes, partitions verifying independently on their own threads, and
// a server restart from a durable state dir rejecting a pre-crash
// replay. Run under TSan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "apps/apps.h"
#include "fleet/partition.h"
#include "helpers.h"
#include "net/client.h"
#include "net/framer.h"
#include "net/http_metrics.h"
#include "net/listener.h"
#include "net/server.h"
#include "proto/prover.h"
#include "proto/wire.h"
#include "store/fleet_store.h"

namespace dialed::net {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr const char* adder = "int op(int a, int b) { return a + b; }";

byte_vec master_key() { return byte_vec(32, 0x42); }

instr::linked_program adder_prog() {
  return test::build_op(adder, "op", instr::instrumentation::dialed);
}

proto::invocation args(std::uint16_t a0, std::uint16_t a1 = 0) {
  proto::invocation inv;
  inv.args[0] = a0;
  inv.args[1] = a1;
  return inv;
}

byte_vec full_frame(fleet::device_id id, std::uint32_t seq,
                    const verifier::attestation_report& rep) {
  proto::frame_info info;
  info.device_id = id;
  info.seq = seq;
  return proto::encode_frame(info, rep);
}

template <typename F>
bool wait_until(F&& f, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (f()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return f();
}

/// Raw blocking loopback socket, optionally with a tiny receive buffer
/// (the slow-reader tests need the kernel to stop absorbing responses).
int raw_connect(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
  return fd;
}

// ---------------------------------------------------------------------------
// stream_framer: reassembly under arbitrary splits
// ---------------------------------------------------------------------------

TEST(net_framer, reassembles_byte_at_a_time) {
  std::vector<byte_vec> frames;
  byte_vec stream;
  for (std::size_t n : {1u, 7u, 300u}) {
    byte_vec f(n);
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = static_cast<std::uint8_t>(i * 31 + n);
    }
    proto::append_stream_frame(stream, f);
    frames.push_back(std::move(f));
  }

  stream_framer fr;
  std::vector<byte_vec> got;
  byte_vec out;
  for (const auto b : stream) {
    ASSERT_TRUE(fr.feed({&b, 1}));
    while (fr.next(out)) got.push_back(out);
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got[i], frames[i]);
  }
  EXPECT_EQ(fr.buffered(), 0u);
  EXPECT_EQ(fr.error(), proto::proto_error::none);
}

TEST(net_framer, reassembles_random_chunking) {
  std::mt19937 rng(1234);
  byte_vec stream;
  std::size_t expect = 0;
  for (int i = 0; i < 50; ++i) {
    byte_vec f(1 + rng() % 2000);
    for (auto& b : f) b = static_cast<std::uint8_t>(rng());
    proto::append_stream_frame(stream, f);
    ++expect;
  }
  stream_framer fr;
  byte_vec out;
  std::size_t got = 0, pos = 0;
  while (pos < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 700, stream.size() - pos);
    ASSERT_TRUE(fr.feed({stream.data() + pos, n}));
    pos += n;
    while (fr.next(out)) ++got;
  }
  EXPECT_EQ(got, expect);
  EXPECT_EQ(fr.buffered(), 0u);
}

TEST(net_framer, oversized_prefix_poisons_without_allocating) {
  stream_framer fr;
  byte_vec huge(8, 0xff);  // LE32 0xffffffff, way past the cap
  EXPECT_FALSE(fr.feed(huge));  // rejected the moment the prefix lands
  byte_vec out;
  EXPECT_FALSE(fr.next(out));
  EXPECT_EQ(fr.error(), proto::proto_error::bad_length);
  // Poisoned: nothing further is consumed, and the buffer never grew
  // toward the advertised 4 GiB.
  EXPECT_FALSE(fr.feed(huge));
  EXPECT_EQ(fr.buffered(), 0u);
}

TEST(net_framer, oversized_prefix_mid_stream) {
  byte_vec stream;
  proto::append_stream_frame(stream, byte_vec(10, 0xaa));
  stream.insert(stream.end(), {0xff, 0xff, 0xff, 0x7f});  // bad prefix
  stream_framer fr;
  EXPECT_TRUE(fr.feed(stream));
  byte_vec out;
  EXPECT_TRUE(fr.next(out));  // the good frame before the poison
  EXPECT_EQ(out.size(), 10u);
  EXPECT_FALSE(fr.next(out));
  EXPECT_EQ(fr.error(), proto::proto_error::bad_length);
}

TEST(net_framer, svc_codec_round_trips) {
  const challenge_req cq{0xdeadbeef};
  const auto cq2 = decode_challenge_req(encode_challenge_req(cq));
  ASSERT_TRUE(cq2.has_value());
  EXPECT_EQ(cq2->device_id, cq.device_id);

  challenge_resp cr;
  cr.error = proto::proto_error::unknown_device;
  cr.note = proto::proto_error::challenge_superseded;
  cr.device_id = 7;
  cr.seq = 41;
  for (std::size_t i = 0; i < cr.nonce.size(); ++i) {
    cr.nonce[i] = static_cast<std::uint8_t>(i);
  }
  const auto cr2 = decode_challenge_resp(encode_challenge_resp(cr));
  ASSERT_TRUE(cr2.has_value());
  EXPECT_EQ(cr2->error, cr.error);
  EXPECT_EQ(cr2->note, cr.note);
  EXPECT_EQ(cr2->device_id, cr.device_id);
  EXPECT_EQ(cr2->seq, cr.seq);
  EXPECT_EQ(cr2->nonce, cr.nonce);

  attest_resp ar;
  ar.error = proto::proto_error::replayed_report;
  ar.accepted = false;
  ar.device_id = 9;
  ar.seq = 3;
  const auto ar2 = decode_attest_resp(encode_attest_resp(ar));
  ASSERT_TRUE(ar2.has_value());
  EXPECT_EQ(ar2->error, ar.error);
  EXPECT_EQ(ar2->accepted, ar.accepted);
  EXPECT_EQ(ar2->device_id, ar.device_id);
  EXPECT_EQ(ar2->seq, ar.seq);

  // Cross-type and truncated decodes fail closed.
  EXPECT_FALSE(decode_attest_resp(encode_challenge_req(cq)).has_value());
  EXPECT_FALSE(decode_challenge_resp(encode_attest_resp(ar)).has_value());
  auto bytes = encode_challenge_resp(cr);
  bytes.pop_back();
  EXPECT_FALSE(decode_challenge_resp(bytes).has_value());
  EXPECT_TRUE(is_svc_message(encode_challenge_req(cq)));
}

// ---------------------------------------------------------------------------
// HTTP request parsing
// ---------------------------------------------------------------------------

TEST(net_http, parses_request_line) {
  const std::string raw = "GET /metrics?x=1 HTTP/1.1\r\nHost: h\r\n\r\n";
  const auto req = parse_http_request(
      {reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()},
      8192);
  EXPECT_TRUE(req.complete);
  EXPECT_FALSE(req.malformed);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");  // query string stripped
}

TEST(net_http, incomplete_and_oversized) {
  const std::string partial = "GET /metrics HTTP/1.1\r\nHost:";
  auto req = parse_http_request(
      {reinterpret_cast<const std::uint8_t*>(partial.data()),
       partial.size()},
      8192);
  EXPECT_FALSE(req.complete);
  EXPECT_FALSE(req.too_large);

  const std::string big = "GET /" + std::string(10000, 'a');
  req = parse_http_request(
      {reinterpret_cast<const std::uint8_t*>(big.data()), big.size()},
      8192);
  EXPECT_FALSE(req.complete);
  EXPECT_TRUE(req.too_large);

  const std::string bad = "NONSENSE\r\n\r\n";
  req = parse_http_request(
      {reinterpret_cast<const std::uint8_t*>(bad.data()), bad.size()},
      8192);
  EXPECT_TRUE(req.complete);
  EXPECT_TRUE(req.malformed);
}

// ---------------------------------------------------------------------------
// Loopback integration
// ---------------------------------------------------------------------------

/// A hub_like that forwards to a real hub but holds every verify_batch
/// until the test opens the gate: the verify thread stalls on its first
/// batch, so ingest backs up behind it no matter how fast verify is.
/// arrived() counts the verify_batch calls that reached the gate, and
/// batch_sizes() their sizes in arrival order.
class gated_hub final : public fleet::hub_like {
 public:
  explicit gated_hub(fleet::hub_like& inner) : inner_(inner) {}

  void open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  fleet::challenge_grant challenge(fleet::device_id id) override {
    return inner_.challenge(id);
  }
  fleet::attest_result submit(std::span<const std::uint8_t> f) override {
    return inner_.submit(f);
  }
  std::vector<fleet::attest_result> verify_batch(
      std::span<const byte_vec> frames) override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      sizes_.push_back(frames.size());
      cv_.wait(lk, [&] { return open_; });
    }
    return inner_.verify_batch(frames);
  }
  std::size_t arrived() {
    std::lock_guard<std::mutex> lk(mu_);
    return sizes_.size();
  }
  std::vector<std::size_t> batch_sizes() {
    std::lock_guard<std::mutex> lk(mu_);
    return sizes_;
  }
  using hub_like::tick;
  void tick(std::uint64_t n) override { inner_.tick(n); }
  std::uint64_t now() const override { return inner_.now(); }
  std::size_t outstanding(fleet::device_id id) const override {
    return inner_.outstanding(id);
  }
  fleet::hub_stats stats(bool include_per_device) const override {
    return inner_.stats(include_per_device);
  }

 private:
  fleet::hub_like& inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<std::size_t> sizes_;  ///< per verify_batch call, in order
};

/// Registry + hub + running attest_server on ephemeral loopback ports.
/// With `gated`, the server talks to the hub through a closed gated_hub.
struct harness {
  explicit harness(server_config cfg = {}, bool gated = false)
      : registry(master_key()) {
    fleet::hub_config hc;
    hc.max_outstanding = 256;
    hub.emplace(registry, hc);
    if (gated) gate.emplace(*hub);
    cfg.bind_addr = "127.0.0.1";
    cfg.tcp_port = 0;
    server.emplace(gate ? static_cast<fleet::hub_like&>(*gate) : *hub, cfg);
    server->start();
  }
  ~harness() {
    if (gate) gate->open();  // never strand the verify thread on stop
    if (server) server->stop();
  }

  fleet::device_id provision(const instr::linked_program& prog) {
    return registry.provision(prog);
  }

  byte_vec key(fleet::device_id id) { return registry.find(id)->key; }
  std::uint16_t port() const { return server->tcp_port(); }

  fleet::device_registry registry;
  std::optional<fleet::verifier_hub> hub;
  std::optional<gated_hub> gate;
  std::optional<attest_server> server;
};

TEST(net_serve, challenge_and_attest_over_tcp) {
  harness h;
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));

  attest_client client("127.0.0.1", h.port());
  const auto grant = client.get_challenge(id);
  ASSERT_EQ(grant.error, proto::proto_error::none);
  EXPECT_EQ(grant.device_id, id);

  const auto rep = dev.invoke(grant.nonce, args(20, 22));
  EXPECT_EQ(rep.claimed_result, 42);
  const auto res = client.submit_report(full_frame(id, grant.seq, rep));
  EXPECT_EQ(res.error, proto::proto_error::none);
  EXPECT_TRUE(res.accepted);
  EXPECT_EQ(res.device_id, id);
  EXPECT_EQ(res.seq, grant.seq);

  const auto st = h.server->stats();
  EXPECT_EQ(st.challenge_reqs, 1u);
  EXPECT_EQ(st.tcp_frames, 1u);
  EXPECT_EQ(st.responses_sent, 2u);
  EXPECT_EQ(h.hub->stats().reports_accepted, 1u);
}

TEST(net_serve, unknown_device_gets_typed_challenge_error) {
  harness h;
  attest_client client("127.0.0.1", h.port());
  const auto grant = client.get_challenge(999);
  EXPECT_EQ(grant.error, proto::proto_error::unknown_device);
}

// All four embedded apps attesting concurrently through one server —
// the multi-client, multi-firmware routing test (TSan target).
TEST(net_serve, four_apps_concurrent_clients) {
  harness h;
  struct client_plan {
    fleet::device_id id;
    instr::linked_program prog;
    proto::invocation inv;
  };
  std::vector<client_plan> plans;
  for (auto& app : apps::evaluation_apps()) {
    auto prog = apps::build_app(app, instr::instrumentation::dialed);
    const auto id = h.provision(prog);
    plans.push_back({id, std::move(prog), app.representative_input});
  }
  {
    const auto app = apps::door_lock_app();
    auto prog = apps::build_app(app, instr::instrumentation::dialed);
    const auto id = h.provision(prog);
    plans.push_back({id, std::move(prog), app.representative_input});
  }
  ASSERT_EQ(plans.size(), 4u);

  constexpr int rounds = 5;
  std::vector<std::thread> threads;
  std::atomic<int> accepted{0};
  for (const auto& plan : plans) {
    threads.emplace_back([&h, &plan, &accepted] {
      proto::prover_device dev(plan.prog, h.key(plan.id));
      attest_client client("127.0.0.1", h.port());
      for (int k = 0; k < rounds; ++k) {
        const auto grant = client.get_challenge(plan.id);
        ASSERT_EQ(grant.error, proto::proto_error::none);
        const auto rep = dev.invoke(grant.nonce, plan.inv);
        const auto res =
            client.submit_report(full_frame(plan.id, grant.seq, rep));
        EXPECT_EQ(res.device_id, plan.id);
        if (res.accepted) accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(accepted.load(), 4 * rounds);
  EXPECT_EQ(h.hub->stats().reports_accepted,
            static_cast<std::uint64_t>(4 * rounds));
}

// One connection carrying interleaved traffic for two devices — device A
// speaking wire v2.1 deltas, device B full v2 frames — with pipelined
// submissions completed by the server's batching in whatever order;
// responses are matched by (device, seq).
TEST(net_serve, interleaved_v2_v21_multi_device_pipelined) {
  harness h;
  const auto prog = adder_prog();
  const auto a = h.provision(prog);
  const auto b = h.provision(prog);
  proto::prover_device dev_a(prog, h.key(a));
  proto::prover_device dev_b(prog, h.key(b));
  proto::delta_emitter emitter;

  attest_client client("127.0.0.1", h.port());
  constexpr int rounds = 4;
  for (int k = 0; k < rounds; ++k) {
    const auto ga = client.get_challenge(a);
    const auto gb = client.get_challenge(b);
    ASSERT_EQ(ga.error, proto::proto_error::none);
    ASSERT_EQ(gb.error, proto::proto_error::none);
    const auto rep_a = dev_a.invoke(ga.nonce, args(1, k));
    const auto rep_b = dev_b.invoke(gb.nonce, args(2, k));

    // v2.1 (or first-round full) for A, always-full v2 for B, pipelined.
    const auto frame_a = emitter.encode(a, ga.seq, rep_a);
    client.send_report(frame_a);
    client.send_report(full_frame(b, gb.seq, rep_b));
    if (k > 0) {
      EXPECT_EQ(frame_a[2], proto::wire_v21);  // deltas after round 0
    }

    std::map<fleet::device_id, attest_resp> by_dev;
    for (int i = 0; i < 2; ++i) {
      const auto r = client.recv_result();
      by_dev[r.device_id] = r;
    }
    ASSERT_TRUE(by_dev.count(a));
    ASSERT_TRUE(by_dev.count(b));
    EXPECT_TRUE(by_dev[a].accepted);
    EXPECT_TRUE(by_dev[b].accepted);
    EXPECT_EQ(by_dev[a].seq, ga.seq);
    EXPECT_EQ(by_dev[b].seq, gb.seq);
    emitter.note_result(a, ga.seq, rep_a, by_dev[a].error,
                        by_dev[a].accepted);
  }
  EXPECT_EQ(h.hub->stats().reports_accepted,
            static_cast<std::uint64_t>(2 * rounds));
}

// Delta desync over a real socket: the client believes a baseline exists
// that the server never accepted, so its delta is answered
// baseline_mismatch — and the SAME challenge then accepts a full frame
// (the nonce survives the mismatch by design).
TEST(net_serve, delta_desync_falls_back_to_full_frame_same_nonce) {
  harness h;
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));
  attest_client client("127.0.0.1", h.port());
  proto::delta_emitter emitter;

  // Fabricate the desync: round 1 is encoded and marked accepted in the
  // emitter's mirror but never reaches the server.
  const auto g1 = client.get_challenge(id);
  const auto rep1 = dev.invoke(g1.nonce, args(5, 6));
  (void)emitter.encode(id, g1.seq, rep1);
  emitter.note_result(id, g1.seq, rep1, proto::proto_error::none, true);

  const auto g2 = client.get_challenge(id);
  const auto rep2 = dev.invoke(g2.nonce, args(7, 8));
  auto frame = emitter.encode(id, g2.seq, rep2);
  ASSERT_EQ(frame[2], proto::wire_v21);  // really a delta
  auto res = client.submit_report(frame);
  EXPECT_EQ(res.error, proto::proto_error::baseline_mismatch);
  EXPECT_FALSE(res.accepted);

  // Fall back to a full frame on the same still-alive nonce.
  emitter.note_result(id, g2.seq, rep2, res.error, false);
  frame = emitter.encode(id, g2.seq, rep2);
  ASSERT_EQ(frame[2], proto::wire_v2);
  res = client.submit_report(frame);
  EXPECT_EQ(res.error, proto::proto_error::none);
  EXPECT_TRUE(res.accepted);
  EXPECT_EQ(res.seq, g2.seq);
}

// A peer that stops draining responses gets its reads paused at the
// write high-water mark, and everything still completes once it drains.
TEST(net_serve, slow_reader_backpressure_pauses_then_recovers) {
  server_config cfg;
  cfg.limits.write_high_water = 2048;
  cfg.limits.write_low_water = 512;
  cfg.limits.write_stall_ms = 0;  // never kill the slow reader here
  cfg.limits.sndbuf = 4096;  // keep the kernel from absorbing the queue
  harness h(cfg);
  const auto id = h.provision(adder_prog());

  constexpr std::size_t n = 4000;
  byte_vec burst;
  for (std::size_t i = 0; i < n; ++i) {
    proto::append_stream_frame(burst, encode_challenge_req({id}));
  }
  const int fd = raw_connect(h.port(), /*rcvbuf=*/2048);
  write_all(fd, burst);

  // Pause counters live on the connection and fold into server stats on
  // sweeps and scrapes; with sweeps off here, scrape to observe them.
  ASSERT_TRUE(wait_until([&] {
    (void)http_get("127.0.0.1", h.port(), "/metrics");
    return h.server->stats().backpressure_pauses > 0;
  }));

  // Drain: every single response must arrive despite the pauses.
  stream_framer fr;
  byte_vec frame;
  std::size_t got = 0;
  std::uint8_t buf[4096];
  while (got < n) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(r, 0);
    ASSERT_TRUE(fr.feed({buf, static_cast<std::size_t>(r)}));
    while (fr.next(frame)) {
      ASSERT_TRUE(decode_challenge_resp(frame).has_value());
      ++got;
    }
  }
  EXPECT_EQ(got, n);
  ::close(fd);
}

// A peer whose write queue makes no progress for write_stall_ms is dead:
// the server closes it instead of buffering forever.
TEST(net_serve, write_stalled_connection_is_closed) {
  server_config cfg;
  cfg.limits.write_high_water = 1 << 20;  // don't pause, stall instead
  cfg.limits.write_stall_ms = 200;
  cfg.limits.sndbuf = 4096;
  cfg.sweep_interval_ms = 50;
  harness h(cfg);
  const auto id = h.provision(adder_prog());

  byte_vec burst;
  for (std::size_t i = 0; i < 4000; ++i) {
    proto::append_stream_frame(burst, encode_challenge_req({id}));
  }
  const int fd = raw_connect(h.port(), /*rcvbuf=*/2048);
  write_all(fd, burst);
  EXPECT_TRUE(wait_until(
      [&] { return h.server->stats().closed_stalled > 0; }));
  EXPECT_TRUE(
      wait_until([&] { return h.server->stats().connections_open == 0; }));
  ::close(fd);
}

// Global ingest cap: a pipelined burst past max_pending_frames pauses
// reads (bounded memory) and still verifies every frame.
TEST(net_serve, global_backlog_cap_pauses_ingest) {
  server_config cfg;
  cfg.max_pending_frames = 4;
  harness h(cfg, /*gated=*/true);
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));
  attest_client client("127.0.0.1", h.port());

  // Phase 1: gather all challenges and reports (nothing pipelined yet —
  // interleaving report results into get_challenge replies would desync
  // the sequential client).
  constexpr int n = 32;
  std::vector<byte_vec> frames;
  for (int k = 0; k < n; ++k) {
    const auto grant = client.get_challenge(id);
    ASSERT_EQ(grant.error, proto::proto_error::none);
    const auto rep = dev.invoke(grant.nonce, args(k, 1));
    frames.push_back(full_frame(id, grant.seq, rep));
  }
  // Phase 2: fire the whole burst. The gate holds the verify thread on its
  // first batch, so the backlog must reach the cap and pause ingest (the
  // periodic sweep folds the pause into the server stats).
  for (const auto& f : frames) client.send_report(f);
  EXPECT_TRUE(wait_until(
      [&] { return h.server->stats().backpressure_pauses > 0; }));
  // Phase 3: release the verify thread and collect every result.
  h.gate->open();
  std::set<std::uint32_t> seen;
  for (int k = 0; k < n; ++k) {
    const auto r = client.recv_result();
    EXPECT_TRUE(r.accepted);
    seen.insert(r.seq);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
}

// A batch is whatever the verify thread finds queued, capped at
// max_batch_frames: a backlog that built up behind a stalled batch drains
// in calls of at most 64 frames, and every frame is verified exactly once.
TEST(net_serve, backlog_drains_in_batches_of_at_most_64) {
  harness h({}, /*gated=*/true);
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));
  attest_client client("127.0.0.1", h.port());

  constexpr std::size_t n = 150;
  std::vector<byte_vec> frames;
  for (std::size_t k = 0; k < n; ++k) {
    const auto grant = client.get_challenge(id);
    ASSERT_EQ(grant.error, proto::proto_error::none);
    const auto rep =
        dev.invoke(grant.nonce, args(static_cast<std::uint16_t>(k), 1));
    frames.push_back(full_frame(id, grant.seq, rep));
  }
  // The first frame goes alone and is held at the gate; the rest queue
  // behind it.
  client.send_report(frames[0]);
  ASSERT_TRUE(wait_until([&] { return h.gate->arrived() == 1; }));
  for (std::size_t k = 1; k < n; ++k) client.send_report(frames[k]);
  ASSERT_TRUE(wait_until(
      [&] { return h.server->stats().batching.backlog == n; }));

  h.gate->open();
  std::set<std::uint32_t> seen;
  for (std::size_t k = 0; k < n; ++k) {
    const auto r = client.recv_result();
    EXPECT_TRUE(r.accepted);
    seen.insert(r.seq);
  }
  EXPECT_EQ(seen.size(), n);

  const auto sizes = h.gate->batch_sizes();
  ASSERT_FALSE(sizes.empty());
  EXPECT_EQ(sizes.front(), 1u);
  std::size_t total = 0;
  for (const auto s : sizes) {
    EXPECT_LE(s, max_batch_frames);
    total += s;
  }
  EXPECT_EQ(total, n);
  const auto b = h.server->stats().batching;
  EXPECT_EQ(b.batches, sizes.size());
  EXPECT_EQ(b.batch_frames, n);
}

// One verify thread per partition: a stalled partition holds up only its
// own frames. Partition 0's hub sits behind a closed gate; partition 1's
// report must still come back accepted, and partition 0's once the gate
// opens. With a single dispatcher for both, partition 1's frame would
// queue behind the gate and its client would time out.
TEST(net_serve, partitions_verify_independently) {
  auto fleet = fleet::partitioned_fleet::create(2, master_key());
  gated_hub gate(fleet.hub_of(0));
  fleet::partition_router router({&gate, &fleet.hub_of(1)});
  std::vector<fleet::device_id> ids(2, 0);  // one device per partition
  for (fleet::device_id id = 1; ids[0] == 0 || ids[1] == 0; ++id) {
    auto& slot = ids[router.index_of(id)];
    if (slot == 0) slot = id;
  }
  const auto prog = adder_prog();
  std::vector<byte_vec> frames;
  for (std::size_t p = 0; p < 2; ++p) {
    fleet.provision(ids[p], prog);
    const auto grant = router.challenge(ids[p]);
    ASSERT_TRUE(grant.ok());
    proto::prover_device dev(prog, fleet.registry().find(ids[p])->key);
    frames.push_back(
        full_frame(ids[p], grant.seq, dev.invoke(grant.nonce, args(20, 22))));
  }

  server_config cfg;
  cfg.bind_addr = "127.0.0.1";
  attest_server server(router, cfg);
  server.start();
  struct open_on_exit {
    gated_hub& g;
    ~open_on_exit() { g.open(); }  // never strand a verify thread on stop
  } guard{gate};

  attest_client held("127.0.0.1", server.tcp_port());
  held.send_report(frames[0]);
  ASSERT_TRUE(wait_until([&] { return gate.arrived() == 1; }));

  attest_client other("127.0.0.1", server.tcp_port(), /*timeout_ms=*/2000);
  try {
    const auto r1 = other.submit_report(frames[1]);
    EXPECT_TRUE(r1.accepted);
    EXPECT_EQ(r1.device_id, ids[1]);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "partition 1 waited behind partition 0's gate: "
                  << e.what();
  }
  EXPECT_EQ(fleet.hub_of(0).stats().reports_submitted(), 0u);

  gate.open();
  const auto r0 = held.recv_result();
  EXPECT_TRUE(r0.accepted);
  EXPECT_EQ(r0.device_id, ids[0]);
}

TEST(net_serve, mid_stream_disconnect_cleans_up) {
  harness h;
  const int fd = raw_connect(h.port());
  // A length prefix promising 100 bytes, then only 10, then gone.
  byte_vec torn = {100, 0, 0, 0};
  torn.resize(14, 0xab);
  write_all(fd, torn);
  ASSERT_TRUE(wait_until(
      [&] { return h.server->stats().connections_accepted == 1; }));
  ::close(fd);
  EXPECT_TRUE(
      wait_until([&] { return h.server->stats().connections_open == 0; }));
  EXPECT_EQ(h.server->stats().framing_errors, 0u);  // EOF, not an attack
}

TEST(net_serve, oversized_length_prefix_drops_connection) {
  harness h;
  const int fd = raw_connect(h.port());
  const byte_vec evil = {0xff, 0xff, 0xff, 0x7f, 0x00, 0x00};
  write_all(fd, evil);
  EXPECT_TRUE(
      wait_until([&] { return h.server->stats().framing_errors == 1; }));
  // The server hangs up; the client sees EOF, never a 2 GiB allocation.
  std::uint8_t buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);
  ::close(fd);
}

TEST(net_serve, http_metrics_and_healthz_reflect_traffic) {
  harness h;
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));
  attest_client client("127.0.0.1", h.port());
  const auto grant = client.get_challenge(id);
  const auto rep = dev.invoke(grant.nonce, args(40, 2));
  ASSERT_TRUE(client.submit_report(full_frame(id, grant.seq, rep)).accepted);

  const auto metrics = http_get("127.0.0.1", h.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("dialed_hub_reports_accepted_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("dialed_hub_challenges_issued_total 1"),
            std::string::npos);
  EXPECT_NE(
      metrics.find("dialed_net_frames_total{transport=\"tcp\"} 1"),
      std::string::npos);
  EXPECT_NE(metrics.find("dialed_net_batch_size_count"),
            std::string::npos);
  EXPECT_NE(metrics.find("dialed_hub_device_reports_total"),
            std::string::npos);

  const auto health = http_get("127.0.0.1", h.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"hub\": \"ok\""), std::string::npos);

  EXPECT_NE(http_get("127.0.0.1", h.port(), "/nope")
                .find("HTTP/1.1 404"),
            std::string::npos);

  // Non-GET methods are refused; oversized headers answered 431.
  {
    const int fd = raw_connect(h.port());
    const std::string post = "POST /metrics HTTP/1.1\r\n\r\n";
    write_all(fd, {reinterpret_cast<const std::uint8_t*>(post.data()),
                   post.size()});
    std::string resp;
    char buf[1024];
    ssize_t r;
    while ((r = ::recv(fd, buf, sizeof buf, 0)) > 0) {
      resp.append(buf, static_cast<std::size_t>(r));
    }
    EXPECT_NE(resp.find("HTTP/1.1 405"), std::string::npos);
    ::close(fd);
  }
  {
    const int fd = raw_connect(h.port());
    const std::string big = "GET /" + std::string(10000, 'a');
    write_all(fd, {reinterpret_cast<const std::uint8_t*>(big.data()),
                   big.size()});
    std::string resp;
    char buf[1024];
    ssize_t r;
    while ((r = ::recv(fd, buf, sizeof buf, 0)) > 0) {
      resp.append(buf, static_cast<std::size_t>(r));
    }
    EXPECT_NE(resp.find("HTTP/1.1 431"), std::string::npos);
    ::close(fd);
  }
}

// Crash-durability across the wire: a server restarted from its state
// dir keeps its devices and rejects a pre-crash report over a real
// socket — its hub never issued that nonce, so it is stale.
TEST(net_serve, restart_from_state_dir_rejects_pre_crash_replay) {
  const auto dir = fs::path(::testing::TempDir()) / "dialed-net-restart";
  fs::remove_all(dir);

  const auto prog = adder_prog();
  byte_vec frame;
  {
    store::fleet_store::options so;
    so.master_key = master_key();
    auto state = store::fleet_store::open(dir.string(), so);
    const auto id = state.registry->provision(prog);
    proto::prover_device dev(prog, state.registry->find(id)->key);

    server_config cfg;
    cfg.bind_addr = "127.0.0.1";
    attest_server server(*state.hub, cfg, {state.store.get()});
    server.start();

    attest_client client("127.0.0.1", server.tcp_port());
    const auto grant = client.get_challenge(id);
    ASSERT_EQ(grant.error, proto::proto_error::none);
    const auto rep = dev.invoke(grant.nonce, args(10, 11));
    frame = full_frame(id, grant.seq, rep);
    const auto res = client.submit_report(frame);
    ASSERT_TRUE(res.accepted);

    const auto health =
        http_get("127.0.0.1", server.tcp_port(), "/healthz");
    EXPECT_NE(health.find("\"store\": \"ok\""), std::string::npos);
    server.stop();
    // fleet_state goes out of scope: the "crash" (WAL is already on
    // disk; nothing depends on a clean shutdown path).
  }
  {
    store::fleet_store::options so;
    so.master_key = master_key();
    auto state = store::fleet_store::open(dir.string(), so);
    server_config cfg;
    cfg.bind_addr = "127.0.0.1";
    attest_server server(*state.hub, cfg, {state.store.get()});
    server.start();

    attest_client client("127.0.0.1", server.tcp_port());
    const auto res = client.submit_report(frame);
    EXPECT_EQ(res.error, proto::proto_error::stale_nonce);
    EXPECT_FALSE(res.accepted);
    server.stop();
  }
  fs::remove_all(dir);
}

// The server survives its clients vanishing mid-verification: results
// whose connection is gone are counted and dropped, never delivered to
// an aliased fd. A valid report and a poisoned prefix in ONE burst make
// the race deterministic — the close is requested in the same reactor
// dispatch that enqueued the frame, so its result can only be dropped.
TEST(net_serve, close_before_result_drops_the_result) {
  harness h;
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));

  attest_client client("127.0.0.1", h.port());
  const auto grant = client.get_challenge(id);
  ASSERT_EQ(grant.error, proto::proto_error::none);
  const auto rep = dev.invoke(grant.nonce, args(1, 2));

  byte_vec burst;
  proto::append_stream_frame(burst, full_frame(id, grant.seq, rep));
  burst.insert(burst.end(), {0xff, 0xff, 0xff, 0x7f});  // poison
  write_all(client.fd(), burst);

  EXPECT_TRUE(wait_until([&] {
    return h.server->stats().framing_errors == 1 &&
           h.server->stats().dropped_conn_gone == 1 &&
           h.hub->stats().reports_accepted == 1;
  }));
  EXPECT_TRUE(
      wait_until([&] { return h.server->stats().connections_open == 0; }));

  // The service itself is unharmed: a fresh client still attests.
  attest_client again("127.0.0.1", h.port());
  const auto g2 = again.get_challenge(id);
  ASSERT_EQ(g2.error, proto::proto_error::none);
  const auto rep2 = dev.invoke(g2.nonce, args(3, 4));
  EXPECT_TRUE(again.submit_report(full_frame(id, g2.seq, rep2)).accepted);
}

// Every blocking client call is deadlined: a server that accepts the
// connection into its backlog and then never serves it must produce the
// typed net::timeout_error in bounded time, on both the attestation
// stream and the HTTP scrape path — `dialed-attest --connect` can wedge
// on neither.
TEST(net_client, blocking_calls_time_out_against_a_wedged_server) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(lfd, 8), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  const auto t0 = std::chrono::steady_clock::now();
  // The kernel completes the handshake from the backlog, so connect
  // succeeds; the request then starves.
  attest_client client("127.0.0.1", port, /*timeout_ms=*/200);
  try {
    (void)client.get_challenge(1);
    FAIL() << "wedged server answered?";
  } catch (const timeout_error&) {
  }
  EXPECT_THROW((void)http_get("127.0.0.1", port, "/metrics", 200),
               timeout_error);
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 200);    // the deadline is real, not an EOF
  EXPECT_LT(elapsed, 10000);  // and bounded, not a hang
  ::close(lfd);
}


// ---------------------------------------------------------------------------
// PR 9 observability: response hygiene, stage histograms, flight
// recorder endpoint, standby-aware health, scrape-under-traffic (TSan)
// ---------------------------------------------------------------------------

TEST(net_http, head_allow_and_body_strip) {
  const auto full =
      render_http_response(405, "text/plain", "method not allowed\n",
                           "Allow: GET, HEAD\r\n");
  EXPECT_NE(full.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(full.find("Allow: GET, HEAD\r\n"), std::string::npos);
  const auto head = strip_http_body(full);
  // Headers survive byte-for-byte (Content-Length still names the GET
  // body size); the body is gone.
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
  EXPECT_EQ(head, full.substr(0, head.size()));
  EXPECT_NE(head.find("Content-Length: 19\r\n"), std::string::npos);
  EXPECT_EQ(head.find("method not allowed"), std::string::npos);
}

TEST(net_http, traces_body_renders_json) {
  obs::trace_dump d;
  d.slowest_ns = 5000;
  d.slow_recorded = 1;
  d.rejected_recorded = 1;
  obs::span_trace t;
  t.trace_id = 7;
  t.total_ns = 5000;
  t.stage_ns[static_cast<std::size_t>(obs::stage::mac)] = 1200;
  t.device = 42;
  t.seq = 3;
  t.partition = 1;
  t.accepted = true;
  d.slow.push_back(t);
  t.accepted = false;
  t.error =
      static_cast<std::uint8_t>(proto::proto_error::replayed_report);
  d.rejected.push_back(t);

  const auto body = render_traces_body(d);
  EXPECT_NE(body.find("\"slowest_ns\": 5000"), std::string::npos);
  EXPECT_NE(body.find("\"trace_id\": 7"), std::string::npos);
  EXPECT_NE(body.find("\"device\": 42"), std::string::npos);
  EXPECT_NE(body.find("\"partition\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"mac\": 1200"), std::string::npos);
  EXPECT_NE(body.find("\"error\": \"replayed_report\""),
            std::string::npos);
  EXPECT_NE(body.find("\"accepted\": true"), std::string::npos);
  EXPECT_NE(body.find("\"accepted\": false"), std::string::npos);
}

TEST(net_http, healthz_body_partitions_and_degraded) {
  std::vector<partition_health> parts(2);
  parts[0].has_store = true;
  parts[0].generation = 3;
  parts[0].wal_records = 10;
  parts[0].has_standby = true;
  parts[0].standby_synced = true;
  parts[1].has_store = true;
  parts[1].generation = 5;
  parts[1].wal_records = 7;
  parts[1].has_standby = true;
  parts[1].ship_lag_records = 4;
  parts[1].ship_desync = true;

  const auto body = render_healthz_body(parts);
  // Legacy aggregates survive for existing probes...
  EXPECT_NE(body.find("\"hub\": \"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"wal_records\": 17"), std::string::npos);
  EXPECT_NE(body.find("\"generation\": 5"), std::string::npos);
  // ...and the desync degrades the overall status plus its partition.
  EXPECT_NE(body.find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(body.find("\"partition\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"lag_records\": 4"), std::string::npos);
  EXPECT_NE(body.find("\"desync\": true"), std::string::npos);

  std::vector<partition_health> healthy(1);
  healthy[0].has_store = true;
  const auto ok = render_healthz_body(healthy);
  EXPECT_NE(ok.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(ok.find("\"store\": \"ok\""), std::string::npos);
}

/// Value of the first sample whose line starts with `prefix` (the body
/// opens with a HELP line, so every sample line follows a newline, and
/// the HELP and TYPE lines that name the same family never match).
std::uint64_t metric_value(const std::string& body,
                           const std::string& prefix) {
  const auto at = body.find("\n" + prefix);
  EXPECT_NE(at, std::string::npos) << prefix;
  if (at == std::string::npos) return 0;
  const auto eol = body.find('\n', at + 1);
  const auto sp = body.rfind(' ', eol);
  return std::stoull(body.substr(sp + 1, eol - sp - 1));
}

TEST(net_serve, stage_histograms_and_build_info_in_metrics) {
  harness h;
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));
  attest_client client("127.0.0.1", h.port());
  const auto grant = client.get_challenge(id);
  const auto rep = dev.invoke(grant.nonce, args(40, 2));
  ASSERT_TRUE(client.submit_report(full_frame(id, grant.seq, rep)).accepted);

  const auto metrics = http_get("127.0.0.1", h.port(), "/metrics");
  // One histogram per stage, partition-labeled (a bare hub is
  // partition "0"); the accepted report moved every stage's count.
  for (const char* stage :
       {"decode", "journal", "mac", "replay", "verdict"}) {
    const std::string count =
        std::string("dialed_stage_latency_seconds_count{stage=\"") +
        stage + "\",partition=\"0\"}";
    EXPECT_EQ(metric_value(metrics, count), 1u) << stage;
  }
  EXPECT_NE(metrics.find("dialed_stage_latency_seconds_bucket{"
                         "stage=\"replay\",partition=\"0\",le=\"+Inf\"} 1"),
            std::string::npos);
  // Batcher attribution: the batch the report went in, and its queue
  // wait.
  EXPECT_GE(metric_value(metrics, "dialed_net_batches_total "), 1u);
  EXPECT_GE(metric_value(metrics, "dialed_net_queue_wait_seconds_count"),
            1u);
  // Build identity.
  EXPECT_NE(metrics.find("dialed_build_info{version=\""),
            std::string::npos);
  EXPECT_NE(metrics.find("sha256_backend=\""), std::string::npos);
}

TEST(net_serve, debug_traces_endpoint_reports_rejections) {
  harness h;
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));
  attest_client client("127.0.0.1", h.port());
  const auto grant = client.get_challenge(id);
  const auto rep = dev.invoke(grant.nonce, args(1, 2));
  const auto frame = full_frame(id, grant.seq, rep);
  ASSERT_TRUE(client.submit_report(frame).accepted);
  // The same frame again is a replay: rejected, so flight-recorded.
  EXPECT_EQ(client.submit_report(frame).error,
            proto::proto_error::replayed_report);

  const auto resp = http_get("127.0.0.1", h.port(), "/debug/traces");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"rejected\": [{"), std::string::npos);
  EXPECT_NE(resp.find("\"error\": \"replayed_report\""),
            std::string::npos);
  EXPECT_NE(resp.find("\"device\": " + std::to_string(id)),
            std::string::npos);
  // The accepted report is the slowest seen: it is in the slow ring.
  EXPECT_NE(resp.find("\"slow\": [{"), std::string::npos);
}

TEST(net_serve, head_is_get_without_a_body) {
  harness h;
  const int fd = raw_connect(h.port());
  const std::string head = "HEAD /healthz HTTP/1.1\r\n\r\n";
  write_all(fd, {reinterpret_cast<const std::uint8_t*>(head.data()),
                 head.size()});
  std::string resp;
  char buf[1024];
  ssize_t r;
  while ((r = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length:"), std::string::npos);
  // The response ends at the header terminator: no body bytes follow.
  EXPECT_EQ(resp.substr(resp.size() - 4), "\r\n\r\n");
  EXPECT_EQ(resp.find("\"hub\""), std::string::npos);
}

TEST(net_serve, unsupported_method_names_the_allowed_ones) {
  harness h;
  const int fd = raw_connect(h.port());
  const std::string del = "DELETE /metrics HTTP/1.1\r\n\r\n";
  write_all(fd, {reinterpret_cast<const std::uint8_t*>(del.data()),
                 del.size()});
  std::string resp;
  char buf[1024];
  ssize_t r;
  while ((r = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(resp.find("Allow: GET, HEAD"), std::string::npos);
}

// A standby follower behind a shipper surfaces on both endpoints; a
// desynced one flips /healthz to 503. Uses the store-backed server
// wiring exactly as dialed-serve --standby-dir does.
TEST(net_serve, healthz_standby_depth_and_desync_503) {
  const auto dir = fs::path(::testing::TempDir()) / "dialed-net-standby";
  fs::remove_all(dir);
  const auto prog = adder_prog();

  store::fleet_store::options so;
  so.master_key = master_key();
  auto state = store::fleet_store::open((dir / "primary").string(), so);
  store::wal_follower follower((dir / "standby").string());
  store::wal_shipper shipper;
  shipper.add_follower(&follower);
  state.store->attach_shipper(&shipper);
  // Provisioning is what ships; the round below ships nothing.
  const auto id = state.registry->provision(prog);
  proto::prover_device dev(prog, state.registry->find(id)->key);

  server_config cfg;
  cfg.bind_addr = "127.0.0.1";
  attest_server server(*state.hub, cfg, {state.store.get()}, {&shipper});
  server.start();

  attest_client client("127.0.0.1", server.tcp_port());
  const auto grant = client.get_challenge(id);
  const auto rep = dev.invoke(grant.nonce, args(5, 6));
  ASSERT_TRUE(
      client.submit_report(full_frame(id, grant.seq, rep)).accepted);

  const auto port = server.tcp_port();
  auto health = http_get("127.0.0.1", port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"standby\": {\"synced\": true"),
            std::string::npos);
  const auto metrics = http_get("127.0.0.1", port, "/metrics");
  EXPECT_GE(metric_value(metrics,
                         "dialed_ship_records_total{partition=\"0\"}"),
            1u);
  EXPECT_EQ(metric_value(metrics,
                         "dialed_ship_desync{partition=\"0\"}"),
            0u);

  // Poison the stream the way a genuine desync looks to the follower: a
  // record for a generation it is not following.
  follower.on_record(/*generation=*/999, byte_vec{1, 2, 3});
  health = http_get("127.0.0.1", port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(health.find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(health.find("\"desync\": true"), std::string::npos);

  server.stop();
  state.store->attach_shipper(nullptr);
}

/// Every non-comment line of a Prometheus body is `name{labels} value`.
void expect_prometheus_parses(const std::string& response) {
  const auto body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::size_t at = body_at + 4;
  while (at < response.size()) {
    auto eol = response.find('\n', at);
    if (eol == std::string::npos) eol = response.size();
    const std::string line = response.substr(at, eol - at);
    at = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_NE(sp, 0u) << line;
    const std::string value = line.substr(sp + 1);
    EXPECT_FALSE(value.empty()) << line;
    std::size_t used = 0;
    (void)std::stod(value, &used);
    EXPECT_EQ(used, value.size()) << line;
  }
}

// Scrapes racing live traffic: every body parses, and the stage
// histogram totals never move backwards. This is a TSan target — it
// pits the reactor's scrape path against the hub's recording path.
TEST(net_serve, concurrent_scrape_under_traffic) {
  harness h;
  const auto prog = adder_prog();
  const auto id = h.provision(prog);
  proto::prover_device dev(prog, h.key(id));

  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    attest_client client("127.0.0.1", h.port());
    while (!stop.load(std::memory_order_relaxed)) {
      const auto grant = client.get_challenge(id);
      if (grant.error != proto::proto_error::none) continue;
      const auto rep = dev.invoke(grant.nonce, args(9, 9));
      const auto frame = full_frame(id, grant.seq, rep);
      (void)client.submit_report(frame);
      (void)client.submit_report(frame);  // replay: keeps rejects flowing
    }
  });

  // At least 20 scrapes race the traffic. They can all finish before the
  // first report is verified, so keep scraping until the stage totals
  // move or a deadline passes.
  std::uint64_t last_total = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int i = 0;
       i < 20 ||
       (last_total == 0 && std::chrono::steady_clock::now() < deadline);
       ++i) {
    const auto metrics = http_get("127.0.0.1", h.port(), "/metrics");
    expect_prometheus_parses(metrics);
    std::uint64_t total = 0;
    for (const char* stage :
         {"decode", "journal", "mac", "replay", "verdict"}) {
      total += metric_value(
          metrics,
          std::string("dialed_stage_latency_seconds_count{stage=\"") +
              stage + "\",partition=\"0\"}");
    }
    EXPECT_GE(total, last_total);
    last_total = total;
    const auto traces = http_get("127.0.0.1", h.port(), "/debug/traces");
    EXPECT_NE(traces.find("\"slowest_ns\":"), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  traffic.join();
  EXPECT_GT(last_total, 0u);
}

}  // namespace
}  // namespace dialed::net
