#include "http/http_client.h"

#include <unistd.h>

#include <cstdlib>

#include "http/net.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ifgen {
namespace http {

namespace {

using net::SendAll;

std::string BuildRequest(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: localhost\r\n";
  req += "Connection: close\r\n";
  if (!body.empty()) {
    req += "Content-Type: application/json\r\n";
    req += StrFormat("Content-Length: %zu\r\n", body.size());
  }
  req += "\r\n";
  req += body;
  return req;
}

/// Parses the status line + headers out of `head`.
Status ParseHead(std::string_view head, ClientResponse* out) {
  size_t line_end = head.find("\r\n");
  std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos) return Status::Internal("malformed status line");
  out->status = std::atoi(std::string(status_line.substr(sp + 1, 3)).c_str());
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    out->headers[ToLower(Trim(line.substr(0, colon)))] = Trim(line.substr(colon + 1));
  }
  return Status::OK();
}

}  // namespace

Result<ClientResponse> Fetch(const std::string& host, int port,
                             const std::string& method, const std::string& target,
                             const std::string& body, int64_t timeout_ms) {
  Stopwatch watch;
  IFGEN_ASSIGN_OR_RETURN(int fd, net::ConnectTcp(host, port, timeout_ms));
  if (!SendAll(fd, BuildRequest(method, target, body))) {
    ::close(fd);
    return Status::Internal("send failed");
  }
  // Connection: close framing — read to EOF within the total deadline.
  std::string raw;
  char chunk[8192];
  while (true) {
    Result<size_t> n = net::RecvWithin(fd, chunk, sizeof chunk, timeout_ms, watch);
    if (!n.ok()) {
      ::close(fd);
      return n.status();
    }
    if (*n == 0) break;
    raw.append(chunk, *n);
  }
  ::close(fd);
  size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::Internal("truncated HTTP response");
  }
  ClientResponse resp;
  IFGEN_RETURN_NOT_OK(ParseHead(std::string_view(raw.data(), header_end), &resp));
  resp.body = raw.substr(header_end + 4);
  return resp;
}

Result<ClientResponse> Get(const std::string& host, int port,
                           const std::string& target) {
  return Fetch(host, port, "GET", target);
}

Result<ClientResponse> Post(const std::string& host, int port,
                            const std::string& target, const std::string& body) {
  return Fetch(host, port, "POST", target, body);
}

Result<ClientResponse> Delete(const std::string& host, int port,
                              const std::string& target) {
  return Fetch(host, port, "DELETE", target);
}

// ---------------------------------------------------------------------------
// SSE.

SseClient::~SseClient() { Close(); }

void SseClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

Status SseClient::Connect(const std::string& host, int port,
                          const std::string& target, int64_t timeout_ms) {
  Close();
  Stopwatch watch;
  IFGEN_ASSIGN_OR_RETURN(fd_, net::ConnectTcp(host, port, timeout_ms));
  std::string req = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  req += "Accept: text/event-stream\r\nConnection: close\r\n\r\n";
  if (!SendAll(fd_, req)) {
    Close();
    return Status::Internal("send failed");
  }
  // Consume the response head, bounded by the *total* timeout (not per-read,
  // so a server dribbling header bytes cannot stall Connect indefinitely).
  while (true) {
    size_t end = buf_.find("\r\n\r\n");
    if (end != std::string::npos) {
      ClientResponse head;
      IFGEN_RETURN_NOT_OK(ParseHead(std::string_view(buf_.data(), end), &head));
      if (head.status != 200) {
        Close();
        return Status::Internal("SSE endpoint answered HTTP " +
                                std::to_string(head.status));
      }
      buf_.erase(0, end + 4);
      return Status::OK();
    }
    char chunk[4096];
    Result<size_t> n = net::RecvWithin(fd_, chunk, sizeof chunk, timeout_ms, watch);
    if (!n.ok() || *n == 0) {
      Close();
      return n.ok() ? Status::Internal("SSE connect: no response head")
                    : n.status();
    }
    buf_.append(chunk, *n);
  }
}

Result<std::string> SseClient::NextEvent(int64_t timeout_ms) {
  if (fd_ < 0) return Status::Invalid("SseClient not connected");
  // Total deadline across however many recv() calls this event takes: a
  // stalled (or byte-trickling) stream must not block the caller past
  // timeout_ms.
  Stopwatch watch;
  while (true) {
    // A complete frame ends with a blank line.
    size_t frame_end = buf_.find("\n\n");
    if (frame_end != std::string::npos) {
      std::string frame = buf_.substr(0, frame_end);
      buf_.erase(0, frame_end + 2);
      std::string data;
      for (const std::string& line : Split(frame, '\n')) {
        if (line.rfind("data:", 0) == 0) {
          if (!data.empty()) data += "\n";
          data += Trim(line.substr(5));
        }
      }
      if (data.empty()) continue;  // comment/heartbeat frame
      return data;
    }
    char chunk[4096];
    IFGEN_ASSIGN_OR_RETURN(
        size_t n, net::RecvWithin(fd_, chunk, sizeof chunk, timeout_ms, watch));
    if (n == 0) return Status::NotFound("SSE stream ended");
    buf_.append(chunk, n);
  }
}

}  // namespace http
}  // namespace ifgen
