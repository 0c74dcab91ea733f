#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace ifgen {
namespace http {

/// \brief A minimal, dependency-free embedded HTTP/1.1 server — the first
/// transport of the v1 API (mounted by ApiHttpFrontend in api_http.h).
///
/// Scope is deliberately small: one request per connection (every response
/// carries `Connection: close`, which keeps framing trivial for curl,
/// python stdlib, and EventSource clients alike), a bounded worker pool, a
/// body-size cap, and receive timeouts. Responses either carry a body or a
/// `stream` callback that writes after the headers (the SSE path).

/// \brief One parsed request. Header names are lowercased; the path and
/// query values are percent-decoded.
struct HttpRequest {
  std::string method;  ///< uppercased ("GET", "POST", ...)
  std::string path;    ///< decoded, query stripped ("/v1/jobs/j-1")
  std::map<std::string, std::string> query;
  std::map<std::string, std::string> headers;
  std::string body;

  /// Query parameter lookup with default.
  std::string QueryParam(const std::string& key, const std::string& dflt = "") const;
  int64_t QueryInt(const std::string& key, int64_t dflt) const;
};

/// \brief Post-header byte sink handed to streaming responses. Write
/// returns false once the client disconnected or the server is stopping —
/// the streamer's loop must exit then.
class HttpStream {
 public:
  HttpStream(int fd, const std::atomic<bool>* stopping)
      : fd_(fd), stopping_(stopping) {}
  bool Write(std::string_view data);
  bool alive() const { return ok_ && !stopping_->load(); }

 private:
  int fd_;
  const std::atomic<bool>* stopping_;
  bool ok_ = true;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;  ///< extras
  std::string body;
  /// When set, `body` is ignored: headers go out without Content-Length and
  /// the callback writes the (e.g. text/event-stream) payload incrementally.
  std::function<void(HttpStream*)> stream;
};

class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 = ephemeral; the bound port is port() after Start
    size_t num_threads = 4;
    size_t max_body_bytes = 8u << 20;
    /// Concurrent connections per client IP (queued + in handling) beyond
    /// this are answered `429 Too Many Requests` (retryable) and closed.
    /// 0 disables the cap (the default: loopback test/dev traffic shares
    /// one IP).
    size_t max_connections_per_client = 0;
    /// Value for `Access-Control-Allow-Origin`, e.g. "*" or an origin URL.
    /// Empty (the default) emits no CORS headers at all: browsers then
    /// refuse cross-origin reads, so a random web page cannot drive a
    /// localhost-bound server. Enabling it also answers OPTIONS preflights.
    std::string cors_allow_origin;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer() { Stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the accept loop + workers. The handler runs
  /// on worker threads, possibly concurrently with itself; exceptions it
  /// throws become 500 responses (nothing crosses the transport boundary).
  Status Start(Options opts, Handler handler);

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  bool stopping() const { return stopping_.load(); }

  /// Stops accepting, drains workers, closes queued connections. Idempotent;
  /// also invoked by the destructor.
  void Stop();

 private:
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);

  Options opts_;
  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  struct PendingConn {
    int fd = -1;
    uint32_t client_ip = 0;  ///< host order; keys the per-client count
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingConn> pending_;  ///< accepted fds awaiting a worker
  /// Connections per client IP, queued or in handling (only tracked while
  /// max_connections_per_client is set).
  std::map<uint32_t, size_t> client_conns_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

/// Percent-decodes a URL component ("%2F" -> "/", "+" -> " ").
std::string UrlDecode(std::string_view s);

}  // namespace http
}  // namespace ifgen
