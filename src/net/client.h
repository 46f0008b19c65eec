// Blocking client for the attestation service — the library behind
// `dialed-attest --connect` and the loopback integration tests. One
// instance owns one TCP connection speaking the length-prefixed framing
// of server.h.
//
// Two usage styles:
//   * request/response: get_challenge() / submit_report() each send one
//     message and block for its reply — the simple sequential loop;
//   * pipelined: send_report() many frames, then recv_result() for each.
//     A partitioned server verifies partitions in parallel and may
//     complete them out of order; responses carry device/seq for
//     matching (attest_resp in framer.h).
//
// Errors are thrown as dialed::error (socket failure, peer close,
// protocol violation) — a client with a broken stream cannot limp on.
// Every blocking operation is DEADLINED: `timeout_ms` bounds the connect
// AND each subsequent read/write (net::timeout_error on expiry), so a
// dead or wedged host fails the call in bounded time instead of hanging
// it forever.
#ifndef DIALED_NET_CLIENT_H
#define DIALED_NET_CLIENT_H

#include <string>

#include "net/framer.h"

namespace dialed::net {

class attest_client {
 public:
  /// Connects immediately (throws dialed::error on failure,
  /// net::timeout_error on deadline). `timeout_ms` also bounds every
  /// later read/write on the connection; 0 = unbounded.
  attest_client(const std::string& host, std::uint16_t port,
                int timeout_ms = 5000);
  ~attest_client();

  attest_client(const attest_client&) = delete;
  attest_client& operator=(const attest_client&) = delete;

  /// Request a challenge for `device_id` and block for the grant.
  challenge_resp get_challenge(std::uint32_t device_id);

  /// Submit one report frame and block for its result.
  attest_resp submit_report(std::span<const std::uint8_t> frame);

  // ---- pipelined style -----------------------------------------------
  void send_report(std::span<const std::uint8_t> frame);
  attest_resp recv_result();

  /// Next complete frame off the stream (blocking). Throws on EOF or a
  /// poisoned stream. Exposed for tests that want raw access.
  byte_vec recv_frame();

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  stream_framer framer_;
};

/// One-shot HTTP GET against the service's observability endpoints.
/// Returns the raw response (status line through body).
std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path, int timeout_ms = 5000);

}  // namespace dialed::net

#endif  // DIALED_NET_CLIENT_H
