#include "api/rpc.h"

#include "api/codec.h"

namespace ifgen {
namespace api {

namespace {

/// Full-width uint64 <-> lowercase hex (no 0x prefix). The strict Int codec
/// is int64, and canonical hashes / store keys use all 64 bits.
std::string U64ToHex(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

Result<uint64_t> HexToU64(const std::string& s, const char* what) {
  if (s.empty() || s.size() > 16) {
    return Status::Invalid(std::string(what) + ": bad hex '" + s + "'");
  }
  uint64_t v = 0;
  for (char c : s) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return Status::Invalid(std::string(what) + ": bad hex '" + s + "'");
    }
    v = (v << 4) | digit;
  }
  return v;
}

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
IFGEN_WIRE_CODEC(CacheProbeResponse, "CacheProbeResponse")
IFGEN_WIRE_CODEC(TtExportRequest, "TtExportRequest")
IFGEN_WIRE_CODEC(TtSyncDto, "TtSyncDto")
IFGEN_WIRE_CODEC(TtSyncAck, "TtSyncAck")
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

bool TtBatchDto::operator==(const TtBatchDto& o) const {
  return store_key == o.store_key && entries == o.entries;
}

JsonValue TtBatchDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("store_key", JsonValue::Str(U64ToHex(store_key)));
  JsonValue arr = JsonValue::Array();
  for (const TtSeedEntry& e : entries) {
    JsonValue ev = JsonValue::Object();
    ev.Set("h", JsonValue::Str(U64ToHex(e.canonical)));
    ev.Set("c", JsonValue::Double(e.cost));
    ev.Set("v", JsonValue::Int(static_cast<int64_t>(e.visits)));
    arr.Append(std::move(ev));
  }
  v.Set("entries", std::move(arr));
  return v;
}

Result<TtBatchDto> TtBatchDto::FromJson(const JsonValue& v) {
  TtBatchDto b;
  std::string store_hex;
  ObjectReader r(v, "TtBatchDto");
  r.String("store_key", &store_hex, /*required=*/true);
  const JsonValue* entries = r.Child("entries", /*required=*/true);
  IFGEN_RETURN_NOT_OK(r.Finish());
  IFGEN_ASSIGN_OR_RETURN(b.store_key, HexToU64(store_hex, "TtBatchDto.store_key"));
  if (!entries->is_array()) {
    return Status::Invalid("TtBatchDto.entries must be an array");
  }
  b.entries.reserve(entries->items().size());
  for (const JsonValue& ev : entries->items()) {
    TtSeedEntry e;
    std::string hex;
    int64_t visits = 0;
    ObjectReader er(ev, "TtBatchDto.entry");
    er.String("h", &hex, /*required=*/true);
    er.Double("c", &e.cost, /*required=*/true);
    er.Int("v", &visits, /*required=*/false, 0);
    IFGEN_RETURN_NOT_OK(er.Finish());
    IFGEN_ASSIGN_OR_RETURN(e.canonical, HexToU64(hex, "TtBatchDto.entry.h"));
    e.visits = visits < 0 ? 0 : static_cast<uint64_t>(visits);
    b.entries.push_back(e);
  }
  return b;
}

}  // namespace api
}  // namespace ifgen
