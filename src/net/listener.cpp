#include "net/listener.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/time.h>

#include <cerrno>
#include <cstring>

namespace dialed::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw error("net: " + what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& addr, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
    throw error("net: not an IPv4 address: " + addr);
  }
  return sa;
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

int listen_tcp(const std::string& addr, std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(tcp)");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const auto sa = make_addr(addr, port);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    ::close(fd);
    throw_errno("bind " + addr + ":" + std::to_string(port));
  }
  if (listen(fd, backlog) != 0) {
    ::close(fd);
    throw_errno("listen");
  }
  try {
    set_nonblocking(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(sa.sin_port);
}

int accept_connection(int listen_fd) {
  const int fd =
      accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) return -1;  // EAGAIN / transient aborts: caller retries
  set_nodelay(fd);
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port,
                int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(tcp)");
  const auto sa = make_addr(host, port);
  if (timeout_ms <= 0) {
    if (connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) !=
        0) {
      ::close(fd);
      throw_errno("connect " + host + ":" + std::to_string(port));
    }
  } else {
    // Non-blocking connect bounded by poll, then back to blocking mode
    // (the client library is a plain blocking API).
    try {
      set_nonblocking(fd);
    } catch (...) {
      ::close(fd);
      throw;
    }
    if (connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) !=
            0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      throw_errno("connect " + host + ":" + std::to_string(port));
    }
    pollfd p{fd, POLLOUT, 0};
    int r;
    do {
      r = ::poll(&p, 1, timeout_ms);
    } while (r < 0 && errno == EINTR);
    int soerr = 0;
    socklen_t len = sizeof soerr;
    if (r <= 0 ||
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      ::close(fd);
      if (r == 0) {
        throw timeout_error("net: connect " + host + ":" +
                            std::to_string(port) + ": timed out after " +
                            std::to_string(timeout_ms) + "ms");
      }
      errno = soerr != 0 ? soerr : errno;
      throw_errno("connect " + host + ":" + std::to_string(port));
    }
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 ||
        fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
      ::close(fd);
      throw_errno("fcntl(blocking)");
    }
  }
  set_nodelay(fd);
  return fd;
}

void set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<long>(timeout_ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0 ||
      setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO)");
  }
}

void write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto n = ::send(fd, bytes.data() + off, bytes.size() - off,
                          MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw timeout_error("net: send: timed out");
      }
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace dialed::net
