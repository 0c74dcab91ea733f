#include "http/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "http/net.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ifgen {
namespace http {

namespace {

using net::SendAll;

/// Total time a worker spends reading one request's head and body, counted
/// from the first read (slowloris guard): a client that trickles bytes keeps
/// every single recv short, so only a bound on the whole read frees the
/// worker. A rejected request's drain gets the same bound of its own.
constexpr int64_t kRecvTimeoutMs = 10000;
/// Per-socket send timeout (stalled-reader guard): bounds any single send()
/// so a client that stops reading cannot pin a worker forever. Without it a
/// full socket buffer blocks SendAll indefinitely (an SSE consumer that
/// sleeps mid-stream would leak the worker and hang Stop()). A timed-out
/// send marks the connection dead.
constexpr int64_t kSendTimeoutMs = 10000;
/// Accepted connections waiting for a worker beyond this are answered
/// `503 Service Unavailable` (retryable) and closed, which bounds the fds
/// and memory a stalled worker pool can accumulate.
constexpr size_t kMaxQueuedConnections = 256;

/// Terminal early-error send for requests rejected before their bytes were
/// fully read (oversized headers/bodies): a plain close() with unread input
/// makes the kernel send RST, which discards the response before the client
/// reads it. Half-close the write side instead and drain (bounded by
/// kRecvTimeoutMs in total and a byte cap) until the client finishes
/// sending, so the status line actually arrives.
void SendErrorAndDrain(int fd, std::string_view response) {
  SendAll(fd, response);
  ::shutdown(fd, SHUT_WR);
  char sink[4096];
  size_t drained = 0;
  const Stopwatch watch;
  while (drained < (64u << 20)) {
    Result<size_t> n = net::RecvWithin(fd, sink, sizeof sink, kRecvTimeoutMs, watch);
    if (!n.ok() || *n == 0) break;  // deadline, reset, or EOF
    drained += *n;
  }
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

}  // namespace

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size()) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string HttpRequest::QueryParam(const std::string& key,
                                    const std::string& dflt) const {
  auto it = query.find(key);
  return it != query.end() ? it->second : dflt;
}

int64_t HttpRequest::QueryInt(const std::string& key, int64_t dflt) const {
  auto it = query.find(key);
  if (it == query.end()) return dflt;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') return dflt;
  return v;
}

bool HttpStream::Write(std::string_view data) {
  if (!alive()) return false;
  ok_ = SendAll(fd_, data);
  return ok_;
}

Status HttpServer::Start(Options opts, Handler handler) {
  if (started_) return Status::Invalid("HttpServer already started");
  opts_ = std::move(opts);
  handler_ = std::move(handler);

  IFGEN_ASSIGN_OR_RETURN(listen_fd_, net::ListenTcp(opts_.host, opts_.port));
  IFGEN_ASSIGN_OR_RETURN(port_, net::LocalPort(listen_fd_));

  started_ = true;
  stopping_.store(false);
  IFGEN_LOG_C(Info, "http") << "listening on " << opts_.host << ":" << port_;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const size_t n = std::max<size_t>(1, opts_.num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (!started_) return;
  stopping_.store(true);
  // Closing the listen socket fails the blocking accept() and ends the loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  for (const PendingConn& c : pending_) ::close(c.fd);
  pending_.clear();
  client_conns_.clear();
  listen_fd_ = -1;
  started_ = false;
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load()) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;  // transient
      // Persistent failure (EMFILE/ENFILE under fd exhaustion): back off
      // instead of spinning the accept thread at 100% CPU.
      IFGEN_LOG_C(Warning, "http")
          << "accept() failed: " << std::strerror(errno) << "; backing off";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    net::SetTimeout(fd, SO_SNDTIMEO, kSendTimeoutMs);
    net::SetNoDelay(fd);

    // Admission: a full accept queue answers 503, a client over its
    // connection cap answers 429 — both retryable per the API error
    // contract, both closed without touching the worker pool.
    const uint32_t client_ip = ntohl(peer.sin_addr.s_addr);
    bool queue_full = false;
    bool client_capped = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() >= kMaxQueuedConnections) {
        queue_full = true;
      } else if (opts_.max_connections_per_client > 0 &&
                 client_conns_[client_ip] >= opts_.max_connections_per_client) {
        client_capped = true;
      } else {
        if (opts_.max_connections_per_client > 0) ++client_conns_[client_ip];
        pending_.push_back(PendingConn{fd, client_ip});
      }
    }
    if (queue_full || client_capped) {
      const std::string body =
          queue_full ? "{\"code\":\"Unavailable\",\"message\":\"server accept "
                       "queue is full\",\"retryable\":true}"
                     : "{\"code\":\"ResourceExhausted\",\"message\":\"too many "
                       "connections from this client\",\"retryable\":true}";
      const int status = queue_full ? 503 : 429;
      IFGEN_LOG_C(Warning, "http")
          << "rejecting connection (" << status << "): "
          << (queue_full ? "accept queue full at " : "client over per-IP cap of ")
          << (queue_full ? kMaxQueuedConnections
                         : opts_.max_connections_per_client);
      SendAll(fd, StrFormat("HTTP/1.1 %d %s\r\n", status, ReasonPhrase(status)) +
                      "Content-Type: application/json\r\nRetry-After: 1\r\n"
                      "Connection: close\r\n" +
                      StrFormat("Content-Length: %zu\r\n\r\n", body.size()) +
                      body);
      ::close(fd);
      continue;
    }
    cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    PendingConn conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_.load() || !pending_.empty(); });
      if (stopping_.load()) return;
      conn = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(conn.fd);
    ::close(conn.fd);
    if (opts_.max_connections_per_client > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = client_conns_.find(conn.client_ip);
      if (it != client_conns_.end() && --it->second == 0) client_conns_.erase(it);
    }
  }
}

void HttpServer::HandleConnection(int fd) {
  // Read until the end of the header block. The terminator search resumes
  // just before the previous buffer end (it may straddle a recv boundary)
  // instead of rescanning from 0 — a byte-trickling client would otherwise
  // buy O(n^2) scanning work per connection. Head and body share one
  // deadline (kRecvTimeoutMs from this first read).
  const Stopwatch read_watch;
  std::string buf;
  size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    Result<size_t> n = net::RecvWithin(fd, chunk, sizeof chunk, kRecvTimeoutMs, read_watch);
    if (!n.ok() || *n == 0) return;  // deadline/disconnect before a full request
    const size_t scan_from = buf.size() < 3 ? 0 : buf.size() - 3;
    buf.append(chunk, *n);
    header_end = buf.find("\r\n\r\n", scan_from);
    if (buf.size() > opts_.max_body_bytes + 16384) {
      // Tell the client why instead of silently dropping the connection.
      IFGEN_LOG_C(Warning, "http")
          << "rejecting request: header block exceeds "
          << (opts_.max_body_bytes + 16384) << " bytes (431)";
      SendErrorAndDrain(fd,
                        "HTTP/1.1 431 Request Header Fields Too Large\r\n"
                        "Connection: close\r\n\r\n");
      return;
    }
  }

  HttpRequest req;
  {
    std::string_view head(buf.data(), header_end);
    size_t line_end = head.find("\r\n");
    std::string_view request_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    size_t sp1 = request_line.find(' ');
    size_t sp2 = request_line.rfind(' ');
    if (sp1 == std::string_view::npos || sp2 <= sp1) {
      IFGEN_LOG_C(Warning, "http") << "rejecting malformed request line (400)";
      SendAll(fd, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n");
      return;
    }
    req.method = ToUpper(request_line.substr(0, sp1));
    std::string target(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    size_t qpos = target.find('?');
    req.path = UrlDecode(qpos == std::string::npos ? target : target.substr(0, qpos));
    if (qpos != std::string::npos) {
      for (const std::string& kv : Split(target.substr(qpos + 1), '&')) {
        size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          req.query[UrlDecode(kv)] = "";
        } else {
          req.query[UrlDecode(kv.substr(0, eq))] = UrlDecode(kv.substr(eq + 1));
        }
      }
    }
    // Headers.
    size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      if (eol == std::string_view::npos) eol = head.size();
      std::string_view line = head.substr(pos, eol - pos);
      pos = eol + 2;
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      std::string key = ToLower(Trim(line.substr(0, colon)));
      req.headers[key] = Trim(line.substr(colon + 1));
    }
  }

  // Body (Content-Length framing only; this server does not accept chunked
  // uploads).
  size_t content_length = 0;
  if (auto it = req.headers.find("content-length"); it != req.headers.end()) {
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str() || *end != '\0' || v < 0) {
      IFGEN_LOG_C(Warning, "http")
          << "rejecting unparsable Content-Length '" << it->second << "' (400)";
      SendAll(fd, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n");
      return;
    }
    content_length = static_cast<size_t>(v);
  }
  if (content_length > opts_.max_body_bytes) {
    IFGEN_LOG_C(Warning, "http")
        << "rejecting " << content_length << "-byte body for " << req.method
        << " " << req.path << " (413, limit " << opts_.max_body_bytes << ")";
    // The announced body is mostly still in flight — drain it or the close
    // RSTs the 413 away before the client reads it.
    SendErrorAndDrain(fd,
                      "HTTP/1.1 413 Payload Too Large\r\nConnection: close\r\n\r\n");
    return;
  }
  req.body = buf.substr(header_end + 4);
  while (req.body.size() < content_length) {
    Result<size_t> n = net::RecvWithin(fd, chunk, sizeof chunk, kRecvTimeoutMs, read_watch);
    if (!n.ok() || *n == 0) return;
    req.body.append(chunk, *n);
  }
  req.body.resize(content_length);

  // CORS preflight (only when cross-origin access is configured; otherwise
  // OPTIONS falls through to the handler like any other method).
  if (!opts_.cors_allow_origin.empty() && req.method == "OPTIONS") {
    SendAll(fd,
            "HTTP/1.1 204 No Content\r\n"
            "Access-Control-Allow-Origin: " + opts_.cors_allow_origin + "\r\n"
            "Access-Control-Allow-Methods: GET, POST, DELETE, OPTIONS\r\n"
            "Access-Control-Allow-Headers: Content-Type\r\n"
            "Access-Control-Max-Age: 600\r\n"
            "Connection: close\r\n\r\n");
    return;
  }

  HttpResponse resp;
  try {
    resp = handler_(req);
  } catch (const std::exception& e) {
    IFGEN_LOG_C(Error, "http") << "handler threw for " << req.method << " "
                               << req.path << ": " << e.what();
    resp.status = 500;
    resp.body = std::string("{\"code\":\"Internal\",\"message\":\"unhandled "
                            "exception in handler\"}");
    resp.stream = nullptr;
  } catch (...) {
    IFGEN_LOG_C(Error, "http") << "handler threw a non-std exception for "
                               << req.method << " " << req.path;
    resp.status = 500;
    resp.body = "{\"code\":\"Internal\",\"message\":\"unhandled exception\"}";
    resp.stream = nullptr;
  }

  std::string head = StrFormat("HTTP/1.1 %d %s\r\n", resp.status,
                               ReasonPhrase(resp.status));
  head += "Content-Type: " + resp.content_type + "\r\n";
  head += "Connection: close\r\n";
  if (!opts_.cors_allow_origin.empty()) {
    head += "Access-Control-Allow-Origin: " + opts_.cors_allow_origin + "\r\n";
  }
  for (const auto& [k, v] : resp.headers) head += k + ": " + v + "\r\n";
  if (resp.stream) {
    head += "Cache-Control: no-store\r\n\r\n";
    if (!SendAll(fd, head)) return;
    HttpStream stream(fd, &stopping_);
    resp.stream(&stream);
  } else {
    head += StrFormat("Content-Length: %zu\r\n\r\n", resp.body.size());
    if (!SendAll(fd, head)) return;
    SendAll(fd, resp.body);
  }
}

}  // namespace http
}  // namespace ifgen
