//===- tests/api/WireTest.cpp ---------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The shared wire codec: envelope shape, protocol versioning, structured
// errors, request round-trips, and the randomized canonicalization
// property — optionsToJson -> optionsFromJson -> fingerprint() is the
// identity for arbitrary RequestOptions, which is what makes a forwarded
// request hit the exact cache entry a direct one would.
//
//===----------------------------------------------------------------------===//

#include "api/Wire.h"

#include "support/Json.h"
#include "support/Version.h"

#include "gtest/gtest.h"

#include <random>

using namespace csdf;
using namespace csdf::api;

namespace {

WireRequest parseOk(const std::string &Line) {
  WireRequest Req;
  std::string ErrorLine;
  EXPECT_TRUE(parseWireRequest(Line, 1 << 20, RequestOptions(), Req,
                               ErrorLine))
      << ErrorLine;
  return Req;
}

/// The error line parsed back, so assertions read its structured fields
/// instead of substring-matching.
JsonValue parseFail(const std::string &Line) {
  WireRequest Req;
  std::string ErrorLine;
  EXPECT_FALSE(
      parseWireRequest(Line, 1 << 20, RequestOptions(), Req, ErrorLine));
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson(ErrorLine, V, Error)) << ErrorLine;
  return V;
}

TEST(WireTest, ResponseHeadCarriesIdentityMembersFirst) {
  std::string Head = wireResponseHead("7");
  EXPECT_EQ(Head, "{\"id\":7,\"proto\":" + std::to_string(WireProtoVersion) +
                      ",\"tool_version\":\"" + toolVersion() + "\"");
}

TEST(WireTest, ErrorEnvelopeIsStructured) {
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(
      wireError("3", "io-error", "no such file", /*Retryable=*/false), V,
      Error));
  EXPECT_EQ(V.get("id")->asInt(), 3);
  EXPECT_EQ(V.get("proto")->asInt(), WireProtoVersion);
  EXPECT_EQ(V.get("tool_version")->asString(), toolVersion());
  EXPECT_FALSE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("code")->asString(), "io-error");
  EXPECT_FALSE(V.get("retryable")->asBool());
  EXPECT_EQ(V.get("retry_after_ms"), nullptr);
}

TEST(WireTest, OverloadedIsRetryableWithHint) {
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(wireOverloaded(75), V, Error));
  EXPECT_EQ(V.get("code")->asString(), "overloaded");
  EXPECT_TRUE(V.get("retryable")->asBool());
  EXPECT_EQ(V.get("retry_after_ms")->asInt(), 75);
}

TEST(WireTest, ParsesFullEnvelope) {
  WireRequest Req = parseOk(
      "{\"id\":9,\"proto\":1,\"type\":\"analyze\",\"path\":\"a.mpl\","
      "\"source\":\"proc p in 0..np-1 { }\",\"tenant\":\"ci\"}");
  EXPECT_EQ(Req.IdJson, "9");
  EXPECT_EQ(Req.Proto, WireProtoVersion);
  EXPECT_EQ(Req.Type, "analyze");
  EXPECT_EQ(Req.Path, "a.mpl");
  ASSERT_TRUE(Req.Source.has_value());
  EXPECT_EQ(Req.Tenant, "ci");
}

TEST(WireTest, AbsentProtoMeansCurrent) {
  WireRequest Req = parseOk("{\"type\":\"stats\"}");
  EXPECT_EQ(Req.Proto, WireProtoVersion);
}

TEST(WireTest, ProtoMismatchIsStructuredAndNotRetryable) {
  JsonValue V = parseFail("{\"id\":4,\"proto\":99,\"type\":\"stats\"}");
  EXPECT_EQ(V.get("code")->asString(), "proto-mismatch");
  EXPECT_FALSE(V.get("retryable")->asBool());
  EXPECT_EQ(V.get("id")->asInt(), 4); // validated after id, so it echoes
}

TEST(WireTest, ProtoMustBeAnInteger) {
  JsonValue V = parseFail("{\"proto\":\"one\",\"type\":\"stats\"}");
  EXPECT_EQ(V.get("code")->asString(), "invalid-request");
}

TEST(WireTest, OversizedLineIsParseError) {
  WireRequest Req;
  std::string ErrorLine;
  std::string Big(2048, 'x');
  EXPECT_FALSE(
      parseWireRequest(Big, 1024, RequestOptions(), Req, ErrorLine));
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(ErrorLine, V, Error));
  EXPECT_EQ(V.get("code")->asString(), "parse-error");
}

TEST(WireTest, UnknownMemberRejected) {
  JsonValue V = parseFail("{\"type\":\"stats\",\"shard\":\"x\"}");
  EXPECT_EQ(V.get("code")->asString(), "invalid-request");
}

TEST(WireTest, ThreadsOptionIsRefused) {
  // The engine has no worker-count option; a request still sending one
  // fails loudly instead of being analyzed as if it had been honored.
  JsonValue V = parseFail("{\"type\":\"analyze\",\"path\":\"a.mpl\","
                          "\"options\":{\"threads\":4}}");
  EXPECT_EQ(V.get("code")->asString(), "invalid-request");
  EXPECT_NE(V.get("error")->asString().find("unknown option 'threads'"),
            std::string::npos);
}

TEST(WireTest, TenantMustBeString) {
  JsonValue V = parseFail("{\"type\":\"stats\",\"tenant\":3}");
  EXPECT_EQ(V.get("code")->asString(), "invalid-request");
}

TEST(WireTest, RequestJsonRoundTrips) {
  WireRequest Req;
  Req.IdJson = "42";
  Req.Type = "lint";
  Req.Path = "dir/x.mpl";
  Req.Source = "proc p in 0..np-1 { }";
  Req.Tenant = "editor";
  Req.Werror = true;
  Req.MinSeverity = DiagSeverity::Warning;
  Req.Disabled = {"dead-store"};
  Req.Options.Client = "linear";
  Req.Options.DeadlineMs = 250;

  WireRequest Back = parseOk(wireRequestJson(Req, /*IncludeOptions=*/true));
  EXPECT_EQ(Back.IdJson, "42");
  EXPECT_EQ(Back.Type, "lint");
  EXPECT_EQ(Back.Path, "dir/x.mpl");
  EXPECT_EQ(Back.Source, Req.Source);
  EXPECT_EQ(Back.Tenant, "editor");
  EXPECT_TRUE(Back.Werror);
  EXPECT_EQ(Back.MinSeverity, DiagSeverity::Warning);
  EXPECT_EQ(Back.Disabled, Req.Disabled);
  EXPECT_EQ(Back.Options.fingerprint(), Req.Options.fingerprint());
}

TEST(WireTest, RoutingKeyTracksShardCacheKey) {
  WireRequest A = parseOk(
      "{\"type\":\"analyze\",\"path\":\"a.mpl\",\"source\":\"proc p in "
      "0..np-1 { }\"}");
  WireRequest B = A;
  EXPECT_EQ(wireRoutingKey(A), wireRoutingKey(B));
  B.Source = "proc p in 0..np-1 { barrier; }";
  EXPECT_NE(wireRoutingKey(A), wireRoutingKey(B));
  B = A;
  B.Options.FixedNp = 4;
  EXPECT_NE(wireRoutingKey(A), wireRoutingKey(B));
  // Tenant is an admission concern, not a placement one: the same work
  // from two tenants must share one shard cache entry.
  B = A;
  B.Tenant = "other";
  EXPECT_EQ(wireRoutingKey(A), wireRoutingKey(B));
}

/// Every field randomized, including the budget knobs and
/// check_match_nondet — the canonicalization property that keeps client,
/// router, and shard agreeing on cache identity.
TEST(WireTest, RandomizedOptionsRoundTripFingerprintIdentity) {
  std::mt19937_64 Rng(20260809);
  const char *Clients[] = {"linear", "cartesian", "sectionx"};
  for (int Iter = 0; Iter < 500; ++Iter) {
    RequestOptions O;
    O.Client = Clients[Rng() % 3];
    O.FixedNp = static_cast<std::int64_t>(Rng() % 64);
    O.MaxStates = static_cast<unsigned>(Rng() % 100000);
    O.DeadlineMs = Rng() % 5000;
    O.MaxMemoryMb = Rng() % 4096;
    O.ProverSteps = Rng() % 100000;
    O.CheckMatchNondet = (Rng() & 1) != 0;
    O.TestHooks = (Rng() & 1) != 0;
    unsigned NParams = static_cast<unsigned>(Rng() % 4);
    for (unsigned P = 0; P < NParams; ++P) {
      std::string Name = "p";
      Name += std::to_string(Rng() % 10);
      O.Params[Name] = static_cast<std::int64_t>(Rng() % 1000) - 500;
    }

    std::string Json = optionsToJson(O);
    RequestOptions Back;
    JsonValue V;
    std::string Error;
    ASSERT_TRUE(parseJson(Json, V, Error)) << Json;
    ASSERT_TRUE(optionsFromJson(V, Back, Error)) << Json << ": " << Error;
    EXPECT_EQ(Back.fingerprint(), O.fingerprint()) << Json;

    // And through the full request envelope, as the client sends it.
    WireRequest Req;
    Req.Type = "analyze";
    Req.Path = "r.mpl";
    Req.Source = "proc p in 0..np-1 { }";
    Req.Options = O;
    WireRequest Parsed =
        parseOk(wireRequestJson(Req, /*IncludeOptions=*/true));
    EXPECT_EQ(Parsed.Options.fingerprint(), O.fingerprint());
    EXPECT_EQ(wireRoutingKey(Parsed), wireRoutingKey(Req));
  }
}

/// Param names with JSON metacharacters survive the round trip (this
/// was a real bug: optionsToJson emitted names unescaped).
TEST(WireTest, ParamNamesAreEscaped) {
  RequestOptions O;
  O.Params["we\"ird\\name"] = 7;
  std::string Json = optionsToJson(O);
  RequestOptions Back;
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(Json, V, Error)) << Json;
  ASSERT_TRUE(optionsFromJson(V, Back, Error)) << Error;
  EXPECT_EQ(Back.fingerprint(), O.fingerprint());
  EXPECT_EQ(Back.Params, O.Params);
}

} // namespace
