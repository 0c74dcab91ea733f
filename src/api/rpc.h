#pragma once

#include <string>

#include "api/dto.h"
#include "util/json.h"
#include "util/status.h"

namespace ifgen {
namespace api {

/// \brief The versioned RPC envelope the cluster speaks: the PR-5 v1 DTOs
/// become payloads inside a `{api_version, method, request_id, payload}`
/// request and a `{request_id, ok, payload | error}` reply, so the exact
/// same types serve HTTP and inter-process RPC. The wire framing (4-byte
/// length prefix) lives in cluster/frame.h; this header is
/// transport-agnostic.
///
/// Method names are dotted strings (see kMethod* below). Unknown methods
/// answer Unimplemented; an api_version other than kRpcApiVersion answers
/// InvalidArgument — a mixed-version cluster fails loudly, not subtly.

/// The one version this codec speaks; bump together with the DTO set.
inline constexpr const char kRpcApiVersion[] = "v1";

// Method names, one per ServiceFrontend operation plus worker lifecycle.
inline constexpr const char kMethodSubmitGenerate[] = "generate.submit";
inline constexpr const char kMethodGetJob[] = "job.get";
inline constexpr const char kMethodCancelJob[] = "job.cancel";
inline constexpr const char kMethodJobProgress[] = "job.progress";
inline constexpr const char kMethodJobTrace[] = "job.trace";
inline constexpr const char kMethodOpenSession[] = "session.open";
inline constexpr const char kMethodSessionEvent[] = "session.event";
inline constexpr const char kMethodPollSession[] = "session.poll";
inline constexpr const char kMethodCloseSession[] = "session.close";
inline constexpr const char kMethodSessionTable[] = "session.table";
inline constexpr const char kMethodCatalog[] = "catalog.get";
inline constexpr const char kMethodStats[] = "stats.get";
inline constexpr const char kMethodPing[] = "worker.ping";
inline constexpr const char kMethodDrain[] = "worker.drain";

/// \brief One request frame: which operation, against which payload.
/// `request_id` is caller-chosen and echoed verbatim in the reply so a
/// client can pair frames without trusting ordering.
struct RpcEnvelope {
  std::string api_version = kRpcApiVersion;
  std::string method;
  int64_t request_id = 0;
  JsonValue payload = JsonValue::Object();

  /// Decoding also rejects a non-object payload.
  static constexpr auto Fields() {
    using E = RpcEnvelope;
    return std::make_tuple(wire::Field("api_version", &E::api_version).Required(),
                           wire::Field("method", &E::method).Required(),
                           wire::Field("request_id", &E::request_id),
                           wire::Field("payload", &E::payload));
  }
  JsonValue ToJson() const;
  static Result<RpcEnvelope> FromJson(const JsonValue& v);
  bool operator==(const RpcEnvelope& o) const;
};

/// \brief One reply frame: `ok` selects which of `payload` (success DTO) or
/// `error` (ErrorBody) is meaningful.
///
/// `epoch` identifies the answering worker *incarnation* (nonzero, rolled
/// at process start). A router that recorded the epoch a job/session was
/// created under can detect that a later reply came from a restarted
/// process — whose dense local id space restarts too — and refuse to serve
/// a potentially aliased answer. 0 = unknown (pre-epoch peer).
struct RpcReply {
  int64_t request_id = 0;
  bool ok = true;
  int64_t epoch = 0;
  JsonValue payload = JsonValue::Object();
  ErrorBody error;  ///< meaningful only when !ok

  static RpcReply Success(int64_t request_id, JsonValue payload);
  static RpcReply Failure(int64_t request_id, const Status& s);

  JsonValue ToJson() const;
  static Result<RpcReply> FromJson(const JsonValue& v);
  bool operator==(const RpcReply& o) const {
    return request_id == o.request_id && ok == o.ok && epoch == o.epoch &&
           payload == o.payload && (ok || error == o.error);
  }
};

// ---------------------------------------------------------------------------
// Request payloads for methods whose HTTP shape is path/query-encoded (the
// body-carrying methods reuse their existing DTOs directly).

/// Cap of a wire `wait_ms` (the `deadline_ms` cap): larger waits would
/// overflow `std::chrono::milliseconds` arithmetic in the condvar waits.
inline constexpr int64_t kMaxWaitMs = 10 * 60 * 1000;

/// \brief Payload of job.get / job.cancel / job.trace / session.close /
/// session.poll / session.table: just the target id (+ optional wait).
struct IdRequest {
  std::string id;
  int64_t wait_ms = 0;  ///< job.get only; 0 = no blocking

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("id", &IdRequest::id).Required(),
                           wire::Field("wait_ms", &IdRequest::wait_ms).Min(0).Max(kMaxWaitMs));
  }
  JsonValue ToJson() const;
  static Result<IdRequest> FromJson(const JsonValue& v);
  bool operator==(const IdRequest& o) const;
};

/// \brief Payload of job.progress: the long-poll cursor.
struct ProgressRequest {
  std::string job_id;
  int64_t last_seen_version = 0;
  int64_t wait_ms = 0;

  static constexpr auto Fields() {
    using P = ProgressRequest;
    return std::make_tuple(wire::Field("job_id", &P::job_id).Required(),
                           wire::Field("last_seen_version", &P::last_seen_version).Min(0),
                           wire::Field("wait_ms", &P::wait_ms).Min(0).Max(kMaxWaitMs));
  }
  JsonValue ToJson() const;
  static Result<ProgressRequest> FromJson(const JsonValue& v);
  bool operator==(const ProgressRequest& o) const;
};

/// \brief Payload of session.event: target session + the widget event.
struct SessionEventRequest {
  std::string session_id;
  WidgetEventRequest event;

  static constexpr auto Fields() {
    using S = SessionEventRequest;
    return std::make_tuple(wire::Field("session_id", &S::session_id).Required(),
                           wire::Field("event", &S::event).Required());
  }
  JsonValue ToJson() const;
  static Result<SessionEventRequest> FromJson(const JsonValue& v);
  bool operator==(const SessionEventRequest& o) const;
};

/// \brief Reply payload of worker.ping: the worker's live job/session load,
/// polled by the router's health loop and folded into stats.cluster.
struct WorkerPingResponse {
  int64_t jobs_submitted = 0;
  int64_t jobs_executed = 0;
  int64_t jobs_pending = 0;
  int64_t sessions_active = 0;
  bool draining = false;

  static constexpr auto Fields() {
    using W = WorkerPingResponse;
    return std::make_tuple(wire::Field("jobs_submitted", &W::jobs_submitted),
                           wire::Field("jobs_executed", &W::jobs_executed),
                           wire::Field("jobs_pending", &W::jobs_pending),
                           wire::Field("sessions_active", &W::sessions_active),
                           wire::Field("draining", &W::draining));
  }
  JsonValue ToJson() const;
  static Result<WorkerPingResponse> FromJson(const JsonValue& v);
  bool operator==(const WorkerPingResponse& o) const;
};

/// \brief Reply payload of job.trace (a JSON document in a string) and
/// session.close (empty fields) — the "everything else" scalar wrapper.
struct TextReply {
  std::string text;

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("text", &TextReply::text));
  }
  JsonValue ToJson() const;
  static Result<TextReply> FromJson(const JsonValue& v);
  bool operator==(const TextReply& o) const;
};

}  // namespace api
}  // namespace ifgen
