#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/timer.h"

namespace ifgen {
namespace net {

/// \brief The one socket module: every TCP call the HTTP server, the HTTP
/// client and the cluster make goes through these functions. Hosts are
/// dotted IPv4 only; a bad host is InvalidArgument.

/// Sends all of `data` on a connected socket, retrying on EINTR and
/// suppressing SIGPIPE (MSG_NOSIGNAL) so a dead peer surfaces as a false
/// return. A send the socket's SO_SNDTIMEO cuts short is also false.
bool SendAll(int fd, std::string_view data);

/// Connects to `host:port`. `timeout_ms` becomes the socket's SO_SNDTIMEO,
/// which bounds the connect and every later send; TCP_NODELAY is set
/// (request/reply exchanges must not wait out Nagle). No receive timeout is
/// armed: reads are bounded with RecvWithin. Unavailable on failure.
Result<int> ConnectTcp(const std::string& host, int port, int64_t timeout_ms);

/// Binds (SO_REUSEADDR) and listens on `host:port`; port 0 is ephemeral.
Result<int> ListenTcp(const std::string& host, int port);

/// The port a bound listener landed on (resolves port 0).
Result<int> LocalPort(int fd);

/// One recv() of at most `len` bytes into `buf`, waiting with poll() no
/// longer than what is left of the total deadline `timeout_ms`, measured by
/// `watch` from the start of the caller's whole read. Returns the byte count,
/// 0 at EOF. ResourceExhausted once the deadline has passed, Unavailable on
/// a socket error. `timeout_ms` <= 0 waits indefinitely.
Result<size_t> RecvWithin(int fd, char* buf, size_t len, int64_t timeout_ms,
                          const Stopwatch& watch);

/// Arms a per-call socket timeout (`option` is SO_RCVTIMEO or SO_SNDTIMEO);
/// 0 means none.
void SetTimeout(int fd, int option, int64_t timeout_ms);

/// Disables Nagle on an accepted socket: a reply written as several sends
/// would otherwise wait about 40 ms for the peer's delayed ACK.
void SetNoDelay(int fd);

}  // namespace net
}  // namespace ifgen
