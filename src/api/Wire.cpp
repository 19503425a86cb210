//===- api/Wire.cpp -------------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "api/Wire.h"

#include "analysis/Lint.h"
#include "support/Json.h"
#include "support/Version.h"

using namespace csdf;
using namespace csdf::api;

std::string csdf::api::wireResponseHead(const std::string &IdJson) {
  return "{\"id\":" + IdJson +
         ",\"proto\":" + std::to_string(WireProtoVersion) +
         ",\"tool_version\":\"" + toolVersion() + "\"";
}

std::string csdf::api::wireError(const std::string &IdJson, const char *Code,
                                 const std::string &Message, bool Retryable,
                                 int RetryAfterMs) {
  std::string S = wireResponseHead(IdJson) + ",\"ok\":false,\"code\":\"" +
                  Code + "\",\"error\":\"" + jsonEscape(Message) +
                  "\",\"retryable\":" + (Retryable ? "true" : "false");
  if (RetryAfterMs >= 0)
    S += ",\"retry_after_ms\":" + std::to_string(RetryAfterMs);
  S += "}";
  return S;
}

std::string csdf::api::wireOverloaded(unsigned RetryAfterMs) {
  return wireError("null", "overloaded", "server overloaded, retry later",
                   /*Retryable=*/true, static_cast<int>(RetryAfterMs));
}

bool csdf::api::parseWireRequest(const std::string &Line,
                                 std::size_t MaxBytes,
                                 const RequestOptions &Defaults,
                                 WireRequest &Req, std::string &ErrorLine) {
  auto Fail = [&](const std::string &IdJson, const char *Code,
                  const std::string &Msg) {
    ErrorLine = wireError(IdJson, Code, Msg, /*Retryable=*/false);
    return false;
  };

  // The size cap is checked before the parser ever sees the bytes: an
  // oversized request is a protocol violation answered structurally, not
  // an invitation to buffer without bound.
  if (Line.size() > MaxBytes)
    return Fail("null", "parse-error",
                "request exceeds " + std::to_string(MaxBytes) + " bytes");

  JsonValue Json;
  std::string Error;
  if (!parseJson(Line, Json, Error))
    return Fail("null", "parse-error", "malformed request: " + Error);
  if (!Json.isObject())
    return Fail("null", "parse-error", "request must be a JSON object");

  Req = WireRequest();
  if (const JsonValue *Id = Json.get("id"))
    Req.IdJson = Id->str();
  Req.Options = Defaults;

  // Version first: a peer speaking a different protocol gets exactly one
  // answer — a structured, non-retryable mismatch — before any other
  // member is interpreted under possibly-wrong rules.
  if (const JsonValue *Proto = Json.get("proto")) {
    if (!Proto->isInt())
      return Fail(Req.IdJson, "invalid-request", "proto must be an integer");
    Req.Proto = static_cast<int>(Proto->asInt());
    if (Req.Proto != WireProtoVersion)
      return Fail(Req.IdJson, "proto-mismatch",
                  "request speaks wire protocol " +
                      std::to_string(Req.Proto) + ", this server speaks " +
                      std::to_string(WireProtoVersion));
  }

  for (const auto &[Key, Value] : Json.asObject()) {
    if (Key == "id" || Key == "proto") {
      // id is echoed verbatim; proto was validated above.
    } else if (Key == "type") {
      if (!Value.isString())
        return Fail(Req.IdJson, "invalid-request", "type must be a string");
      Req.Type = Value.asString();
    } else if (Key == "path") {
      if (!Value.isString())
        return Fail(Req.IdJson, "invalid-request", "path must be a string");
      Req.Path = Value.asString();
    } else if (Key == "source") {
      if (!Value.isString())
        return Fail(Req.IdJson, "invalid-request",
                    "source must be a string");
      Req.Source = Value.asString();
    } else if (Key == "tenant") {
      if (!Value.isString())
        return Fail(Req.IdJson, "invalid-request",
                    "tenant must be a string");
      Req.Tenant = Value.asString();
    } else if (Key == "options") {
      if (!optionsFromJson(Value, Req.Options, Error))
        return Fail(Req.IdJson, "invalid-request", Error);
    } else if (Key == "disable") {
      if (!Value.isArray())
        return Fail(Req.IdJson, "invalid-request",
                    "disable must be an array of pass names");
      for (const JsonValue &Pass : Value.asArray()) {
        if (!Pass.isString() || !isKnownLintPass(Pass.asString()))
          return Fail(Req.IdJson, "invalid-request",
                      "disable names an unknown lint pass");
        Req.Disabled.insert(Pass.asString());
      }
    } else if (Key == "werror") {
      if (!Value.isBool())
        return Fail(Req.IdJson, "invalid-request",
                    "werror must be a boolean");
      Req.Werror = Value.asBool();
    } else if (Key == "min_severity") {
      const std::string &S = Value.isString() ? Value.asString() : "";
      if (S == "note")
        Req.MinSeverity = DiagSeverity::Note;
      else if (S == "warning")
        Req.MinSeverity = DiagSeverity::Warning;
      else if (S == "error")
        Req.MinSeverity = DiagSeverity::Error;
      else
        return Fail(Req.IdJson, "invalid-request",
                    "min_severity must be note, warning, or error");
    } else {
      return Fail(Req.IdJson, "invalid-request",
                  "unknown request field '" + Key + "'");
    }
  }
  return true;
}

std::string csdf::api::wireRequestJson(const WireRequest &Req,
                                       bool IncludeOptions) {
  std::string J = "{\"id\":" + Req.IdJson +
                  ",\"proto\":" + std::to_string(WireProtoVersion) +
                  ",\"type\":\"" + jsonEscape(Req.Type) + "\"";
  if (Req.Type == "analyze" || Req.Type == "lint") {
    J += ",\"path\":\"" + jsonEscape(Req.Path) + "\"";
    if (Req.Source)
      J += ",\"source\":\"" + jsonEscape(*Req.Source) + "\"";
  }
  if (IncludeOptions)
    J += ",\"options\":" + optionsToJson(Req.Options);
  if (!Req.Tenant.empty())
    J += ",\"tenant\":\"" + jsonEscape(Req.Tenant) + "\"";
  if (Req.Type == "lint") {
    if (Req.Werror)
      J += ",\"werror\":true";
    if (Req.MinSeverity != DiagSeverity::Note)
      J += std::string(",\"min_severity\":\"") +
           (Req.MinSeverity == DiagSeverity::Error ? "error" : "warning") +
           "\"";
    if (!Req.Disabled.empty()) {
      J += ",\"disable\":[";
      bool First = true;
      for (const std::string &Pass : Req.Disabled) {
        if (!First)
          J += ',';
        First = false;
        J += "\"" + jsonEscape(Pass) + "\"";
      }
      J += "]";
    }
  }
  J += "}";
  return J;
}

std::string csdf::api::wireRoutingKey(const WireRequest &Req) {
  // Mirrors the head of the shard's cache key (type, canonical option
  // fingerprint, path, source bytes): a request and its exact repeat hash
  // to the same ring position, so repeats land on the shard that already
  // holds the cached result.
  return Req.Type + "\n" + Req.Options.fingerprint() + "\n" + Req.Path +
         "\n" + (Req.Source ? *Req.Source : std::string());
}
