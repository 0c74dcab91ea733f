#pragma once

#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "api/dto.h"

namespace ifgen {
namespace api {

/// \brief Internal to src/api (included by dto.cc and rpc.cc only): the
/// generic codec that derives ToJson, strict FromJson and operator== from a
/// DTO's field table, plus the primitives the irregular DTOs' hand-written
/// codecs share with it.

/// \brief Strict field-by-field reader over a JSON object: wrong-kind and
/// out-of-range fields accumulate a (first) error, and Finish() rejects any
/// field no accessor consumed — the unknown-field guard that keeps v1
/// requests forward-incompatible by design instead of silently ignored.
class ObjectReader {
 public:
  /// `what` names the DTO for error messages ("GenerateRequest").
  ObjectReader(const JsonValue& value, std::string what);

  void String(const char* key, std::string* out, bool required = false);
  /// kInt only (doubles do not silently truncate); `lo`/`hi` inclusive.
  void Int(const char* key, int64_t* out, bool required = false,
           int64_t lo = INT64_MIN, int64_t hi = INT64_MAX);
  void Double(const char* key, double* out, bool required = false);
  void Bool(const char* key, bool* out, bool required = false);
  void StringArray(const char* key, std::vector<std::string>* out,
                   bool required = false);
  /// Any-kind member access (nested DTOs); null when absent.
  const JsonValue* Child(const char* key, bool required = false);

  /// First accumulated error, or InvalidArgument naming every field that no
  /// accessor consumed.
  Status Finish();

 private:
  const JsonValue* Get(const char* key);
  void Fail(Status s);

  const JsonValue& value_;
  std::string what_;
  Status status_;
  std::vector<bool> consumed_;
};

/// One row of engine Values, each cell an exact JSON scalar
/// (null/int/double/string; bool and nested kinds are rejected — the engine
/// has no such cell types). `row` must already be known to be an array.
JsonValue CellsToJson(const std::vector<Value>& row);
Status CellsFromJson(const JsonValue& row, std::vector<Value>* out);

namespace wire {

/// Member types ObjectReader reads directly (pass one of a decode).
template <typename M>
constexpr bool kIsScalar =
    std::is_same_v<M, std::string> || std::is_same_v<M, int64_t> ||
    std::is_same_v<M, double> || std::is_same_v<M, bool> ||
    std::is_same_v<M, std::vector<std::string>>;

template <typename M>
struct IsVector : std::false_type {};
template <typename E>
struct IsVector<std::vector<E>> : std::true_type {};

inline JsonValue EncodeValue(const std::string& v) { return JsonValue::Str(v); }
inline JsonValue EncodeValue(int64_t v) { return JsonValue::Int(v); }
inline JsonValue EncodeValue(double v) { return JsonValue::Double(v); }
inline JsonValue EncodeValue(bool v) { return JsonValue::Bool(v); }
inline JsonValue EncodeValue(const JsonValue& v) { return v; }
JsonValue EncodeValue(const std::vector<std::string>& v);
JsonValue EncodeValue(const std::vector<std::vector<Value>>& rows);
template <typename T>
JsonValue EncodeValue(const T& dto) {
  return dto.ToJson();
}
template <typename T>
JsonValue EncodeValue(const std::vector<T>& dtos) {
  JsonValue arr = JsonValue::Array();
  for (const T& dto : dtos) arr.Append(dto.ToJson());
  return arr;
}

/// Decodes `rows` (any kind) into Value rows; errors name `what`.
Status RowsFromJson(const JsonValue& rows, const std::string& what, const char* key,
                    std::vector<std::vector<Value>>* out);

/// Decodes `arr` (any kind) into DTOs; `path` names the field in errors.
template <typename T>
Status ArrayFromJson(const JsonValue& arr, const std::string& path, bool bare_error,
                     std::vector<T>* out) {
  if (!arr.is_array()) {
    return Status::Invalid(path + (bare_error ? " must be an array" : ": must be an array"));
  }
  out->reserve(arr.size());
  for (const JsonValue& item : arr.items()) {
    IFGEN_ASSIGN_OR_RETURN(T dto, T::FromJson(item));
    out->push_back(std::move(dto));
  }
  return Status::OK();
}

template <typename T, typename Table>
void EncodeFields(const T& x, const Table& fields, JsonValue* obj);

template <typename T, typename M>
void EncodeField(const T& x, const FieldSpec<T, M>& f, JsonValue* obj) {
  if constexpr (std::is_same_v<M, JobResultDto>) {
    (x.*f.member).AppendToJson(obj, f.name);
  } else {
    obj->Set(f.name, EncodeValue(x.*f.member));
  }
}
template <typename T, typename... Fs>
void EncodeField(const T& x, const GroupSpec<Fs...>& g, JsonValue* obj) {
  JsonValue sub = JsonValue::Object();
  EncodeFields(x, g.fields, &sub);
  obj->Set(g.name, std::move(sub));
}

template <typename T, typename Table>
void EncodeFields(const T& x, const Table& fields, JsonValue* obj) {
  std::apply([&](const auto&... f) { (EncodeField(x, f, obj), ...); }, fields);
}

/// The object holding `x`'s table fields in table order.
template <typename T>
JsonValue Encode(const T& x) {
  JsonValue obj = JsonValue::Object();
  EncodeFields(x, T::Fields(), &obj);
  return obj;
}

// Decoding runs in two passes over one object. Pass one (Read) reads the
// scalar kinds straight into the DTO and only marks the other kinds
// consumed, so the first wrong-kind scalar and then the unknown-field guard
// report before anything nested is decoded. Pass two (DecodeChild) decodes
// the nested kinds in table order.

template <typename T, typename M>
void Read(ObjectReader* r, T* x, const FieldSpec<T, M>& f) {
  M* out = &(x->*f.member);
  if constexpr (std::is_same_v<M, std::string>) {
    r->String(f.name, out, f.required);
  } else if constexpr (std::is_same_v<M, int64_t>) {
    r->Int(f.name, out, f.required, f.lo, f.hi);
  } else if constexpr (std::is_same_v<M, double>) {
    r->Double(f.name, out, f.required);
  } else if constexpr (std::is_same_v<M, bool>) {
    r->Bool(f.name, out, f.required);
  } else if constexpr (std::is_same_v<M, std::vector<std::string>>) {
    r->StringArray(f.name, out, f.required);
  } else {
    r->Child(f.name, f.required);
    if constexpr (std::is_same_v<M, JobResultDto>) r->Child("error");
  }
}
template <typename T, typename... Fs>
void Read(ObjectReader* r, T*, const GroupSpec<Fs...>& g) {
  r->Child(g.name);
}

template <typename T, typename Table>
Status DecodeObject(const JsonValue& v, const std::string& what, T* x,
                    const Table& fields);

template <typename T, typename M>
Status DecodeChild(const JsonValue& obj, const std::string& what, T* x,
                   const FieldSpec<T, M>& f) {
  if constexpr (kIsScalar<M>) {
    return Status::OK();  // read in pass one
  } else {
    M* out = &(x->*f.member);
    const JsonValue* v = obj.Find(f.name);
    if constexpr (std::is_same_v<M, JobResultDto>) {
      IFGEN_ASSIGN_OR_RETURN(*out, JobResultDto::FromFields(v, obj.Find("error")));
    } else if (v == nullptr) {
      return Status::OK();
    } else if constexpr (std::is_same_v<M, JsonValue>) {
      *out = *v;
    } else if constexpr (std::is_same_v<M, std::vector<std::vector<Value>>>) {
      return RowsFromJson(*v, what, f.name, out);
    } else if constexpr (IsVector<M>::value) {
      return ArrayFromJson(*v, what + "." + f.name, f.bare_array_error, out);
    } else {
      IFGEN_ASSIGN_OR_RETURN(*out, M::FromJson(*v));
    }
    return Status::OK();
  }
}
template <typename T, typename... Fs>
Status DecodeChild(const JsonValue& obj, const std::string& what, T* x,
                   const GroupSpec<Fs...>& g) {
  const JsonValue* sub = obj.Find(g.name);
  if (sub == nullptr) return Status::OK();
  return DecodeObject(*sub, what + "." + g.name, x, g.fields);
}

/// Decodes the object `v` into `x`'s `fields`; `what` names the object in
/// error messages.
template <typename T, typename Table>
Status DecodeObject(const JsonValue& v, const std::string& what, T* x,
                    const Table& fields) {
  ObjectReader r(v, what);
  std::apply([&](const auto&... f) { (Read(&r, x, f), ...); }, fields);
  IFGEN_RETURN_NOT_OK(r.Finish());
  Status status;
  std::apply(
      [&](const auto&... f) {
        (void)((status = DecodeChild(v, what, x, f)).ok() && ...);
      },
      fields);
  return status;
}

/// Strict decode of a table DTO; `check` (optional) validates the decoded
/// value as a whole.
template <typename T>
Result<T> Decode(const JsonValue& v, const char* what,
                 Status (*check)(const T&) = nullptr) {
  T x;
  IFGEN_RETURN_NOT_OK(DecodeObject(v, what, &x, T::Fields()));
  if (check != nullptr) IFGEN_RETURN_NOT_OK(check(x));
  return x;
}

template <typename T, typename Table>
bool EqualFields(const T& a, const T& b, const Table& fields);

template <typename T, typename M>
bool EqualField(const T& a, const T& b, const FieldSpec<T, M>& f) {
  return a.*f.member == b.*f.member;
}
template <typename T, typename... Fs>
bool EqualField(const T& a, const T& b, const GroupSpec<Fs...>& g) {
  return EqualFields(a, b, g.fields);
}

template <typename T, typename Table>
bool EqualFields(const T& a, const T& b, const Table& fields) {
  return std::apply([&](const auto&... f) { return (EqualField(a, b, f) && ...); },
                    fields);
}

/// Field-by-field equality over the table.
template <typename T>
bool Equal(const T& a, const T& b) {
  return EqualFields(a, b, T::Fields());
}

}  // namespace wire

/// Defines T::ToJson, T::FromJson and T::operator== from T::Fields(); `what`
/// names T in decode errors and `check` (a `Status(const T&)` or nullptr)
/// validates a decoded value.
#define IFGEN_WIRE_CODEC_CHECKED(T, what, check)                             \
  JsonValue T::ToJson() const { return wire::Encode(*this); }               \
  Result<T> T::FromJson(const JsonValue& v) {                               \
    return wire::Decode<T>(v, what, check);                                 \
  }                                                                         \
  bool T::operator==(const T& o) const { return wire::Equal(*this, o); }

#define IFGEN_WIRE_CODEC(T, what) IFGEN_WIRE_CODEC_CHECKED(T, what, nullptr)

}  // namespace api
}  // namespace ifgen
