#include "api/rpc.h"

#include "api/codec.h"

namespace ifgen {
namespace api {

namespace {

Status CheckObjectPayload(const RpcEnvelope& e) {
  if (!e.payload.is_object()) {
    return Status::Invalid("RpcEnvelope.payload must be an object");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Table DTOs: codecs derived from each DTO's Fields().

IFGEN_WIRE_CODEC_CHECKED(RpcEnvelope, "RpcEnvelope", CheckObjectPayload)
IFGEN_WIRE_CODEC(IdRequest, "IdRequest")
IFGEN_WIRE_CODEC(ProgressRequest, "ProgressRequest")
IFGEN_WIRE_CODEC(SessionEventRequest, "SessionEventRequest")
IFGEN_WIRE_CODEC(WorkerPingResponse, "WorkerPingResponse")
IFGEN_WIRE_CODEC(TextReply, "TextReply")

// ---------------------------------------------------------------------------
// Irregular shapes: hand-written codecs over the same primitives.

RpcReply RpcReply::Success(int64_t request_id, JsonValue payload) {
  RpcReply r;
  r.request_id = request_id;
  r.ok = true;
  r.payload = std::move(payload);
  return r;
}

RpcReply RpcReply::Failure(int64_t request_id, const Status& s) {
  RpcReply r;
  r.request_id = request_id;
  r.ok = false;
  r.error = ErrorBody::FromStatus(s);
  return r;
}

JsonValue RpcReply::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("request_id", JsonValue::Int(request_id));
  v.Set("ok", JsonValue::Bool(ok));
  if (epoch != 0) v.Set("epoch", JsonValue::Int(epoch));
  if (ok) {
    v.Set("payload", payload);
  } else {
    v.Set("error", error.ToJson());
  }
  return v;
}

Result<RpcReply> RpcReply::FromJson(const JsonValue& v) {
  RpcReply rep;
  ObjectReader r(v, "RpcReply");
  r.Int("request_id", &rep.request_id);
  r.Bool("ok", &rep.ok, /*required=*/true);
  r.Int("epoch", &rep.epoch, /*required=*/false, 0);
  const JsonValue* payload = r.Child("payload");
  const JsonValue* error = r.Child("error");
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (rep.ok) {
    if (payload == nullptr || !payload->is_object()) {
      return Status::Invalid("ok RpcReply requires an object payload");
    }
    rep.payload = *payload;
  } else {
    if (error == nullptr) {
      return Status::Invalid("failed RpcReply requires an error body");
    }
    IFGEN_ASSIGN_OR_RETURN(rep.error, ErrorBody::FromJson(*error));
  }
  return rep;
}

}  // namespace api
}  // namespace ifgen
