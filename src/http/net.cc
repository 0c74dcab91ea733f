#include "http/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "util/string_util.h"

namespace ifgen {
namespace net {

namespace {

/// Kernel listen(2) backlog for not-yet-accepted connections.
constexpr int kListenBacklog = 64;

Status ParseAddress(const std::string& host, int port, sockaddr_in* addr) {
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::Invalid("bad host '" + host + "' (dotted IPv4 only)");
  }
  return Status::OK();
}

}  // namespace

bool SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

Result<int> ConnectTcp(const std::string& host, int port, int64_t timeout_ms) {
  sockaddr_in addr{};
  IFGEN_RETURN_NOT_OK(ParseAddress(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(StrFormat("socket() failed: %s",
                                         std::strerror(errno)));
  }
  SetTimeout(fd, SO_SNDTIMEO, timeout_ms);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(StrFormat("connect(%s:%d) failed: %s",
                                         host.c_str(), port,
                                         std::strerror(err)));
  }
  SetNoDelay(fd);
  return fd;
}

Result<int> ListenTcp(const std::string& host, int port) {
  sockaddr_in addr{};
  IFGEN_RETURN_NOT_OK(ParseAddress(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("bind(%s:%d) failed: %s", host.c_str(),
                                      port, std::strerror(err)));
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("listen failed: %s", std::strerror(err)));
  }
  return fd;
}

Result<int> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::Internal("getsockname failed");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<size_t> RecvWithin(int fd, char* buf, size_t len, int64_t timeout_ms,
                          const Stopwatch& watch) {
  while (true) {
    if (timeout_ms > 0) {
      const int64_t remaining = timeout_ms - watch.ElapsedMillis();
      pollfd p{};
      p.fd = fd;
      p.events = POLLIN;
      const int rc =
          remaining <= 0
              ? 0
              : ::poll(&p, 1, static_cast<int>(std::min<int64_t>(remaining, INT_MAX)));
      if (rc == 0) {
        return Status::ResourceExhausted(
            StrFormat("read timed out after %lld ms",
                      static_cast<long long>(timeout_ms)));
      }
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(StrFormat("poll failed: %s",
                                             std::strerror(errno)));
      }
    }
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return Status::Unavailable(StrFormat("recv failed: %s", std::strerror(errno)));
  }
}

void SetTimeout(int fd, int option, int64_t timeout_ms) {
  timeout_ms = std::max<int64_t>(0, timeout_ms);
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace net
}  // namespace ifgen
