#include "cluster/frame.h"

#include "http/net.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ifgen {
namespace cluster {

namespace {

/// Reads exactly `len` bytes under a total deadline shared across calls.
/// Returns Unavailable on EOF, timeout, or a socket error — all transient
/// from the router's point of view.
Status RecvExact(int fd, char* buf, size_t len, int64_t timeout_ms,
                 const Stopwatch& watch) {
  size_t got = 0;
  while (got < len) {
    Result<size_t> n = net::RecvWithin(fd, buf + got, len - got, timeout_ms, watch);
    if (!n.ok()) return Status::Unavailable("frame " + n.status().message());
    if (*n == 0) return Status::Unavailable("peer closed the connection");
    got += *n;
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::Invalid(StrFormat("frame of %zu bytes exceeds the %zu cap",
                                     payload.size(), kMaxFrameBytes));
  }
  char prefix[4];
  const uint32_t len = static_cast<uint32_t>(payload.size());
  prefix[0] = static_cast<char>((len >> 24) & 0xff);
  prefix[1] = static_cast<char>((len >> 16) & 0xff);
  prefix[2] = static_cast<char>((len >> 8) & 0xff);
  prefix[3] = static_cast<char>(len & 0xff);
  // Two sends, one small: the prefix write coalesces into the payload
  // segment under Nagle; correctness does not depend on it.
  if (!net::SendAll(fd, std::string_view(prefix, 4)) ||
      !net::SendAll(fd, payload)) {
    return Status::Unavailable("frame send failed (peer gone?)");
  }
  return Status::OK();
}

Result<std::string> ReadFrame(int fd, int64_t timeout_ms,
                              size_t max_frame_bytes) {
  Stopwatch watch;
  char prefix[4];
  IFGEN_RETURN_NOT_OK(RecvExact(fd, prefix, 4, timeout_ms, watch));
  const uint32_t len = (static_cast<uint32_t>(static_cast<uint8_t>(prefix[0])) << 24) |
                       (static_cast<uint32_t>(static_cast<uint8_t>(prefix[1])) << 16) |
                       (static_cast<uint32_t>(static_cast<uint8_t>(prefix[2])) << 8) |
                       static_cast<uint32_t>(static_cast<uint8_t>(prefix[3]));
  if (len > max_frame_bytes) {
    return Status::Invalid(StrFormat("frame of %u bytes exceeds the %zu cap",
                                     len, max_frame_bytes));
  }
  std::string payload(len, '\0');
  if (len > 0) {
    IFGEN_RETURN_NOT_OK(RecvExact(fd, payload.data(), len, timeout_ms, watch));
  }
  return payload;
}

}  // namespace cluster
}  // namespace ifgen
