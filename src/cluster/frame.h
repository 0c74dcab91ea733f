#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace ifgen {
namespace cluster {

/// \brief The cluster's wire framing: every RPC request/reply travels as a
/// 4-byte big-endian length prefix followed by that many bytes of compact
/// JSON (an api::RpcEnvelope or api::RpcReply document). Length-prefixed
/// frames keep the parser trivial and make oversized/garbage input a
/// structured error before any JSON is touched.
///
/// Failure model: everything transport-level — connect refused, peer gone
/// (EOF/EPIPE), deadline exceeded — returns StatusCode::kUnavailable, the
/// retryable code, because a router that re-sends to a healthy worker is
/// expected to succeed. Only protocol violations (oversized frame) are
/// non-retryable InvalidArgument.

/// Frames above this are rejected by both sides (a full GenerateResponse
/// with widgets for the bundled workloads is well under 1 MiB).
inline constexpr size_t kMaxFrameBytes = 64u << 20;  // 64 MiB

/// Sends one `[len][payload]` frame; blocks until written or the socket's
/// send timeout trips.
Status WriteFrame(int fd, std::string_view payload);

/// Receives one frame. `timeout_ms` bounds the whole read (prefix + body),
/// not each recv (net::RecvWithin); <= 0 blocks indefinitely.
Result<std::string> ReadFrame(int fd, int64_t timeout_ms,
                              size_t max_frame_bytes = kMaxFrameBytes);

}  // namespace cluster
}  // namespace ifgen
