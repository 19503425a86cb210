//===- tests/driver/LspTest.cpp - LSP server message-level tests -----------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Drives LspServer::handleMessage directly — the transport-agnostic seam
// runLsp() wires to framed stdio — through the full editor lifecycle:
// initialize, didOpen/didChange publishing diagnostics, didClose clearing
// them, shutdown/exit. The diagnostics the server publishes must agree
// with what api::Analyzer::lint reports for the same text (the CI
// lsp-smoke job re-checks this against the installed `csdf lint` binary).
//
//===----------------------------------------------------------------------===//

#include "api/Csdf.h"
#include "driver/Lsp.h"
#include "support/Json.h"
#include "support/Version.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

/// One JSON-RPC message body (strings pre-escaped by the caller).
std::string msg(const std::string &Inner) {
  return "{\"jsonrpc\":\"2.0\"," + Inner + "}";
}

std::string didOpen(const std::string &Uri, const std::string &Text) {
  return msg("\"method\":\"textDocument/didOpen\",\"params\":{"
             "\"textDocument\":{\"uri\":\"" +
             Uri + "\",\"text\":\"" + jsonEscape(Text) + "\"}}");
}

std::string didChange(const std::string &Uri, const std::string &Text) {
  return msg("\"method\":\"textDocument/didChange\",\"params\":{"
             "\"textDocument\":{\"uri\":\"" +
             Uri + "\"},\"contentChanges\":[{\"text\":\"" + jsonEscape(Text) +
             "\"}]}");
}

JsonValue parsed(const std::string &Body) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson(Body, V, Error)) << Error << "\n" << Body;
  return V;
}

/// The publishDiagnostics params for \p Uri, failing the test when the
/// message is missing or malformed.
JsonValue publishedParams(const std::vector<std::string> &Out,
                          const std::string &Uri) {
  for (const std::string &Body : Out) {
    JsonValue V = parsed(Body);
    const JsonValue *Method = V.get("method");
    if (!Method || !Method->isString() ||
        Method->asString() != "textDocument/publishDiagnostics")
      continue;
    const JsonValue *Params = V.get("params");
    EXPECT_TRUE(Params && Params->get("uri") &&
                Params->get("uri")->asString() == Uri);
    return *Params;
  }
  ADD_FAILURE() << "no publishDiagnostics for " << Uri;
  return JsonValue();
}

const char *DeadStore = "x = 1;\nx = 2;\nprint x;\n";

TEST(LspTest, InitializeAdvertisesFullSync) {
  LspServer Server((LspOptions()));
  std::vector<std::string> Out;
  ASSERT_TRUE(Server.handleMessage(
      msg("\"id\":1,\"method\":\"initialize\",\"params\":{}"), Out));
  ASSERT_EQ(Out.size(), 1u);

  JsonValue V = parsed(Out[0]);
  ASSERT_TRUE(V.get("id") && V.get("id")->asInt() == 1);
  const JsonValue *Result = V.get("result");
  ASSERT_TRUE(Result);
  const JsonValue *Sync = Result->get("capabilities")
                              ? Result->get("capabilities")->get("textDocumentSync")
                              : nullptr;
  ASSERT_TRUE(Sync);
  EXPECT_EQ(Sync->asInt(), 1); // full-document sync
  const JsonValue *Info = Result->get("serverInfo");
  ASSERT_TRUE(Info);
  EXPECT_EQ(Info->get("name")->asString(), "csdf");
  EXPECT_EQ(Info->get("version")->asString(), toolVersion());
}

TEST(LspTest, DidOpenPublishesLintDiagnostics) {
  LspServer Server((LspOptions()));
  std::vector<std::string> Out;
  ASSERT_TRUE(Server.handleMessage(didOpen("file:///tmp/ds.mpl", DeadStore),
                                   Out));

  JsonValue Params = publishedParams(Out, "file:///tmp/ds.mpl");
  const JsonValue *Diags = Params.get("diagnostics");
  ASSERT_TRUE(Diags && Diags->isArray());

  // The published set must agree with a direct lint of the same text.
  api::Analyzer Cold;
  api::LintRequest Req;
  Req.Path = "/tmp/ds.mpl";
  Req.Source = std::string(DeadStore);
  api::LintResponse Expect = Cold.lint(Req);
  ASSERT_EQ(Diags->asArray().size(), Expect.Diagnostics.size());
  ASSERT_FALSE(Expect.Diagnostics.empty()) << "dead store not reported?";

  for (std::size_t I = 0; I < Expect.Diagnostics.size(); ++I) {
    const JsonValue &D = Diags->asArray()[I];
    const Diagnostic &E = Expect.Diagnostics[I];
    EXPECT_EQ(D.get("code")->asString(), E.Id);
    EXPECT_EQ(D.get("source")->asString(), "csdf");
    // 1-based SourceLoc to 0-based LSP line.
    const JsonValue *Start = D.get("range")->get("start");
    EXPECT_EQ(Start->get("line")->asInt(),
              static_cast<std::int64_t>(E.Loc.Line) - 1);
    EXPECT_EQ(D.get("message")->asString().rfind(E.Message, 0), 0u)
        << D.get("message")->asString();
  }
}

TEST(LspTest, DidChangeRepublishesAndCaches) {
  LspServer Server((LspOptions()));
  std::vector<std::string> Out;
  Server.handleMessage(didOpen("file:///a.mpl", DeadStore), Out);

  // Clean revision: diagnostics go away.
  Out.clear();
  ASSERT_TRUE(Server.handleMessage(
      didChange("file:///a.mpl", "x = 1;\nprint x;\n"), Out));
  JsonValue Params = publishedParams(Out, "file:///a.mpl");
  EXPECT_TRUE(Params.get("diagnostics")->asArray().empty());

  // Unchanged revision: answered from the incremental cache.
  std::uint64_t HitsBefore = Server.analyzer().incrementalStats().CacheHits;
  Out.clear();
  ASSERT_TRUE(Server.handleMessage(
      didChange("file:///a.mpl", "x = 1;\nprint x;\n"), Out));
  publishedParams(Out, "file:///a.mpl");
  EXPECT_EQ(Server.analyzer().incrementalStats().CacheHits, HitsBefore + 1);
}

TEST(LspTest, DidCloseClearsDiagnostics) {
  LspServer Server((LspOptions()));
  std::vector<std::string> Out;
  Server.handleMessage(didOpen("file:///b.mpl", DeadStore), Out);

  Out.clear();
  ASSERT_TRUE(Server.handleMessage(
      msg("\"method\":\"textDocument/didClose\",\"params\":{"
          "\"textDocument\":{\"uri\":\"file:///b.mpl\"}}"),
      Out));
  JsonValue Params = publishedParams(Out, "file:///b.mpl");
  EXPECT_TRUE(Params.get("diagnostics")->asArray().empty());
}

TEST(LspTest, UnknownRequestIsMethodNotFound) {
  LspServer Server((LspOptions()));
  std::vector<std::string> Out;
  ASSERT_TRUE(Server.handleMessage(
      msg("\"id\":7,\"method\":\"workspace/symbol\",\"params\":{}"), Out));
  ASSERT_EQ(Out.size(), 1u);
  JsonValue V = parsed(Out[0]);
  EXPECT_EQ(V.get("id")->asInt(), 7);
  ASSERT_TRUE(V.get("error"));
  EXPECT_EQ(V.get("error")->get("code")->asInt(), -32601);

  // Unknown notifications (no id) are ignored, per the spec.
  Out.clear();
  ASSERT_TRUE(Server.handleMessage(
      msg("\"method\":\"$/setTrace\",\"params\":{}"), Out));
  EXPECT_TRUE(Out.empty());
}

TEST(LspTest, ShutdownThenExitIsClean) {
  LspServer Server((LspOptions()));
  std::vector<std::string> Out;
  ASSERT_TRUE(Server.handleMessage(
      msg("\"id\":2,\"method\":\"shutdown\""), Out));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(parsed(Out[0]).get("result")->isNull());

  Out.clear();
  EXPECT_FALSE(Server.handleMessage(msg("\"method\":\"exit\""), Out));
  EXPECT_EQ(Server.exitCode(), 0);
}

TEST(LspTest, ExitWithoutShutdownIsError) {
  LspServer Server((LspOptions()));
  std::vector<std::string> Out;
  EXPECT_FALSE(Server.handleMessage(msg("\"method\":\"exit\""), Out));
  EXPECT_EQ(Server.exitCode(), 1);
}

} // namespace
