// Socket plumbing for the attestation service: non-blocking TCP listen
// sockets and the small helpers (local port discovery, full-write loops)
// the rest of src/net leans on.
// Everything throws dialed::error with the errno string on failure —
// socket setup problems are configuration errors, not traffic.
#ifndef DIALED_NET_LISTENER_H
#define DIALED_NET_LISTENER_H

#include <cstdint>
#include <span>
#include <string>

#include "common/error.h"

namespace dialed::net {

/// A blocking socket operation exceeded its deadline. Typed so callers
/// (dialed-attest, tests) can tell "the host is dead/slow" from protocol
/// or transport failures and report it as such instead of hanging.
class timeout_error : public error {
 public:
  using error::error;
};

/// Create a non-blocking, CLOEXEC TCP listen socket bound to addr:port
/// (port 0 = kernel-assigned ephemeral; SO_REUSEADDR set). Returns the
/// fd; the caller owns it.
int listen_tcp(const std::string& addr, std::uint16_t port,
               int backlog = 128);

/// The port a bound socket actually landed on (resolves ephemeral 0).
std::uint16_t local_port(int fd);

/// Accept one pending connection: non-blocking, CLOEXEC, TCP_NODELAY.
/// Returns -1 when the queue is drained (EAGAIN) or on a transient
/// per-connection error (ECONNABORTED etc. — the listener stays up).
int accept_connection(int listen_fd);

/// Blocking connect to host:port with TCP_NODELAY (the client library's
/// entry point). `timeout_ms` bounds the connect (timeout_error on
/// expiry); 0 = OS default.
int connect_tcp(const std::string& host, std::uint16_t port,
                int timeout_ms = 0);

/// Bound every subsequent blocking read/write on `fd` to `timeout_ms`
/// (SO_RCVTIMEO/SO_SNDTIMEO). 0 clears the bound. Reads and writes that
/// expire surface as timeout_error from recv paths and write_all.
void set_io_timeout(int fd, int timeout_ms);

/// Write the whole buffer to a BLOCKING fd (client side; loops over
/// partial writes, throws on error — timeout_error when an fd bounded by
/// set_io_timeout expires mid-write).
void write_all(int fd, std::span<const std::uint8_t> bytes);

}  // namespace dialed::net

#endif  // DIALED_NET_LISTENER_H
