#pragma once

#include <map>
#include <string>

#include "util/status.h"

namespace ifgen {
namespace http {

/// \brief A minimal blocking HTTP/1.1 client for the in-repo surfaces that
/// drive the embedded server: tests/http_test.cc, bench/bench_http.cc, and
/// anything else that wants to talk to ApiHttpFrontend without shelling out
/// to curl. One request per connection, mirroring the server's
/// `Connection: close` framing.

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lowercased names
  std::string body;
};

/// Performs one request. `body` is sent with Content-Type: application/json
/// when non-empty. `timeout_ms` bounds the connect and each send, and is a
/// total deadline for reading the whole response (a server trickling bytes
/// still times out; ResourceExhausted); <= 0 waits indefinitely.
Result<ClientResponse> Fetch(const std::string& host, int port,
                             const std::string& method, const std::string& target,
                             const std::string& body = "",
                             int64_t timeout_ms = 10000);

Result<ClientResponse> Get(const std::string& host, int port,
                           const std::string& target);
Result<ClientResponse> Post(const std::string& host, int port,
                            const std::string& target, const std::string& body);
Result<ClientResponse> Delete(const std::string& host, int port,
                              const std::string& target);

/// \brief Incremental reader over a `text/event-stream` response: connects,
/// sends the GET, consumes the response headers, then yields one SSE `data:`
/// payload per NextEvent call (comment/heartbeat lines are skipped).
class SseClient {
 public:
  SseClient() = default;
  ~SseClient();
  SseClient(const SseClient&) = delete;
  SseClient& operator=(const SseClient&) = delete;

  /// `timeout_ms` bounds the connect plus the whole response-head read (a
  /// total deadline, not per-recv); <= 0 waits indefinitely.
  Status Connect(const std::string& host, int port, const std::string& target,
                 int64_t timeout_ms = 10000);

  /// Next event's data payload; NotFound when the stream ended cleanly,
  /// ResourceExhausted on timeout. `timeout_ms` is a total deadline for the
  /// call — a stream trickling partial bytes still times out; <= 0 waits
  /// indefinitely.
  Result<std::string> NextEvent(int64_t timeout_ms = 10000);

  void Close();

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace http
}  // namespace ifgen
