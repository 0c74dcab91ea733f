#include "api/codec.h"

#include "util/string_util.h"

namespace ifgen {
namespace api {

// ---------------------------------------------------------------------------
// ObjectReader.

ObjectReader::ObjectReader(const JsonValue& value, std::string what)
    : value_(value), what_(std::move(what)) {
  if (!value_.is_object()) {
    status_ = Status::Invalid(what_ + ": expected a JSON object");
  } else {
    consumed_.assign(value_.members().size(), false);
  }
}

const JsonValue* ObjectReader::Get(const char* key) {
  if (!value_.is_object()) return nullptr;
  for (size_t i = 0; i < value_.members().size(); ++i) {
    if (value_.members()[i].first == key) {
      consumed_[i] = true;
      return &value_.members()[i].second;
    }
  }
  return nullptr;
}

void ObjectReader::Fail(Status s) {
  if (status_.ok()) status_ = std::move(s);
}

void ObjectReader::String(const char* key, std::string* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_string()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a string"));
    return;
  }
  *out = v->AsString();
}

void ObjectReader::Int(const char* key, int64_t* out, bool required, int64_t lo,
                       int64_t hi) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_int()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be an integer"));
    return;
  }
  if (v->AsInt() < lo || v->AsInt() > hi) {
    Fail(Status::OutOfRange(what_ + ": field '" + key + "'=" +
                            std::to_string(v->AsInt()) + " outside [" +
                            std::to_string(lo) + ", " + std::to_string(hi) + "]"));
    return;
  }
  *out = v->AsInt();
}

void ObjectReader::Double(const char* key, double* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_number()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a number"));
    return;
  }
  *out = v->AsDouble();
}

void ObjectReader::Bool(const char* key, bool* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_bool()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a boolean"));
    return;
  }
  *out = v->AsBool();
}

void ObjectReader::StringArray(const char* key, std::vector<std::string>* out,
                               bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_array()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be an array"));
    return;
  }
  out->clear();
  for (const JsonValue& item : v->items()) {
    if (!item.is_string()) {
      Fail(Status::Invalid(what_ + ": field '" + key + "' must contain strings only"));
      return;
    }
    out->push_back(item.AsString());
  }
}

const JsonValue* ObjectReader::Child(const char* key, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr && required) {
    Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
  }
  return v;
}

Status ObjectReader::Finish() {
  if (!status_.ok()) return status_;
  std::vector<std::string> unknown;
  for (size_t i = 0; i < consumed_.size(); ++i) {
    if (!consumed_[i]) unknown.push_back("'" + value_.members()[i].first + "'");
  }
  if (!unknown.empty()) {
    return Status::Invalid(what_ + ": unknown field(s) " + Join(unknown, ", "));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Table cells.

namespace {

JsonValue ValueToJson(const Value& v) {
  if (v.is_null()) return JsonValue::MakeNull();
  if (v.is_int()) return JsonValue::Int(v.AsInt());
  if (v.is_double()) return JsonValue::Double(v.AsDouble());
  return JsonValue::Str(v.AsString());
}

Result<Value> ValueFromJson(const JsonValue& j) {
  switch (j.kind()) {
    case JsonValue::Kind::kNull:
      return Value();
    case JsonValue::Kind::kInt:
      return Value(j.AsInt());
    case JsonValue::Kind::kDouble:
      return Value(j.AsDouble());
    case JsonValue::Kind::kString:
      return Value(j.AsString());
    default:
      return Status::Invalid("table cell must be null, number, or string");
  }
}

}  // namespace

JsonValue CellsToJson(const std::vector<Value>& row) {
  JsonValue arr = JsonValue::Array();
  for (const Value& cell : row) arr.Append(ValueToJson(cell));
  return arr;
}

Status CellsFromJson(const JsonValue& row, std::vector<Value>* out) {
  out->clear();
  out->reserve(row.size());
  for (const JsonValue& cell : row.items()) {
    IFGEN_ASSIGN_OR_RETURN(Value v, ValueFromJson(cell));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

namespace wire {

JsonValue EncodeValue(const std::vector<std::string>& v) {
  JsonValue arr = JsonValue::Array();
  for (const std::string& s : v) arr.Append(JsonValue::Str(s));
  return arr;
}

Status RowsFromJson(const JsonValue& rows, const std::string& what, const char* key,
                    std::vector<std::vector<Value>>* out) {
  if (!rows.is_array()) return Status::Invalid(what + ": " + key + " must be an array");
  out->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows.items()[i].is_array()) {
      return Status::Invalid(what + ": each row must be an array");
    }
    IFGEN_RETURN_NOT_OK(CellsFromJson(rows.items()[i], &(*out)[i]));
  }
  return Status::OK();
}

JsonValue EncodeValue(const std::vector<std::vector<Value>>& rows) {
  JsonValue arr = JsonValue::Array();
  for (const std::vector<Value>& row : rows) arr.Append(CellsToJson(row));
  return arr;
}

}  // namespace wire

}  // namespace api
}  // namespace ifgen
