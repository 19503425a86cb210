//===- support/Json.h - Minimal JSON value model and parser ---------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON reader for the `csdf serve` request
/// protocol (one JSON object per line). The value model is deliberately
/// tiny: null, bool, int64, double, string, array, object — enough to
/// parse request envelopes and option bags, not a general-purpose
/// serialization framework. Writers in this codebase build their JSON
/// text directly (see DiagRenderer, BatchReport::json, Wire) and escape
/// every string through jsonEscape, the one escaper JsonValue::str()
/// uses too.
///
/// Numbers that look integral (no '.', 'e', or overflow) parse as int64 so
/// option fields like "deadline_ms" round-trip exactly; everything else
/// parses as double.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_SUPPORT_JSON_H
#define CSDF_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace csdf {

/// One parsed JSON value. Objects keep their members in a sorted map —
/// request envelopes are small and key order never matters to the
/// protocol.
class JsonValue {
public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default; // null
  JsonValue(bool B) : V(B) {}
  JsonValue(std::int64_t I) : V(I) {}
  JsonValue(double D) : V(D) {}
  JsonValue(std::string S) : V(std::move(S)) {}
  JsonValue(Array A) : V(std::move(A)) {}
  JsonValue(Object O) : V(std::move(O)) {}

  bool isNull() const { return std::holds_alternative<std::monostate>(V); }
  bool isBool() const { return std::holds_alternative<bool>(V); }
  bool isInt() const { return std::holds_alternative<std::int64_t>(V); }
  bool isDouble() const { return std::holds_alternative<double>(V); }
  bool isNumber() const { return isInt() || isDouble(); }
  bool isString() const { return std::holds_alternative<std::string>(V); }
  bool isArray() const { return std::holds_alternative<Array>(V); }
  bool isObject() const { return std::holds_alternative<Object>(V); }

  bool asBool() const { return std::get<bool>(V); }
  /// Integral value; a double is truncated toward zero.
  std::int64_t asInt() const {
    return isDouble() ? static_cast<std::int64_t>(std::get<double>(V))
                      : std::get<std::int64_t>(V);
  }
  double asDouble() const {
    return isInt() ? static_cast<double>(std::get<std::int64_t>(V))
                   : std::get<double>(V);
  }
  const std::string &asString() const { return std::get<std::string>(V); }
  const Array &asArray() const { return std::get<Array>(V); }
  const Object &asObject() const { return std::get<Object>(V); }

  /// Object member access; returns nullptr when this is not an object or
  /// has no such member. The pointer is valid as long as this value is.
  const JsonValue *get(const std::string &Key) const {
    if (!isObject())
      return nullptr;
    auto It = asObject().find(Key);
    return It == asObject().end() ? nullptr : &It->second;
  }

  /// Re-serializes the value as compact JSON (stable: object keys come
  /// out in sorted order). Used to echo request ids back verbatim.
  std::string str() const;

private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               Array, Object>
      V;
};

/// Escapes \p S for embedding in a JSON string literal (quotes, backslashes,
/// control characters); the surrounding quotes are not added.
std::string jsonEscape(const std::string &S);

/// Parses \p Text as one JSON value. Returns false with \p Error set (one
/// line, with a character offset) on malformed input or trailing garbage.
bool parseJson(const std::string &Text, JsonValue &Out, std::string &Error);

} // namespace csdf

#endif // CSDF_SUPPORT_JSON_H
