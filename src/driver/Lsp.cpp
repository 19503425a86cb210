//===- driver/Lsp.cpp -----------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/Lsp.h"

#include "support/Json.h"
#include "support/Version.h"

#include <cstdio>
#include <iostream>
#include <string>

using namespace csdf;

namespace {

/// file:// URI to a filesystem path (the pipeline cache key). Non-file
/// URIs are used verbatim — the path is a cache key and a message label,
/// never opened (document text always arrives in the message).
std::string uriToPath(const std::string &Uri) {
  const std::string Scheme = "file://";
  if (Uri.compare(0, Scheme.size(), Scheme) == 0)
    return Uri.substr(Scheme.size());
  return Uri;
}

int lspSeverity(DiagSeverity Sev) {
  switch (Sev) {
  case DiagSeverity::Error:
    return 1;
  case DiagSeverity::Warning:
    return 2;
  case DiagSeverity::Note:
    return 3; // Information.
  }
  return 3;
}

/// One LSP position object, converting csdf's 1-based locations to the
/// protocol's 0-based ones; invalid locations anchor at 0:0.
std::string lspPosition(SourceLoc Loc) {
  unsigned Line = Loc.Line > 0 ? Loc.Line - 1 : 0;
  unsigned Col = Loc.Col > 0 ? Loc.Col - 1 : 0;
  return "{\"line\":" + std::to_string(Line) +
         ",\"character\":" + std::to_string(Col) + "}";
}

std::string lspDiagnostic(const Diagnostic &D) {
  std::string Pos = lspPosition(D.Loc);
  std::string Message = D.Message;
  if (!D.Note.empty())
    Message += "\n" + D.Note;
  return "{\"range\":{\"start\":" + Pos + ",\"end\":" + Pos +
         "},\"severity\":" + std::to_string(lspSeverity(D.Sev)) +
         ",\"code\":\"" + jsonEscape(D.Id) + "\",\"source\":\"csdf\"" +
         ",\"message\":\"" + jsonEscape(Message) + "\"}";
}

std::string responseEnvelope(const std::string &Id, const std::string &Result) {
  return "{\"jsonrpc\":\"2.0\",\"id\":" + Id + ",\"result\":" + Result + "}";
}

std::string errorEnvelope(const std::string &Id, int Code,
                          const std::string &Message) {
  return "{\"jsonrpc\":\"2.0\",\"id\":" + Id +
         ",\"error\":{\"code\":" + std::to_string(Code) + ",\"message\":\"" +
         jsonEscape(Message) + "\"}}";
}

} // namespace

LspServer::LspServer(const LspOptions &Opts) : Opts(Opts) {}

void LspServer::publishDiagnostics(const std::string &Uri,
                                   const std::string &Text,
                                   std::vector<std::string> &Out) {
  api::LintRequest Req;
  Req.Path = uriToPath(Uri);
  Req.Source = Text;
  Req.Options = Opts.Defaults;
  api::LintResponse Resp = An.lintIncremental(Req);

  std::string Body = "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/"
                     "publishDiagnostics\",\"params\":{\"uri\":\"" +
                     jsonEscape(Uri) + "\",\"diagnostics\":[";
  for (size_t I = 0; I < Resp.Diagnostics.size(); ++I) {
    if (I)
      Body += ",";
    Body += lspDiagnostic(Resp.Diagnostics[I]);
  }
  Body += "]}}";
  Out.push_back(std::move(Body));
}

bool LspServer::handleMessage(const std::string &Body,
                              std::vector<std::string> &Out) {
  JsonValue Msg;
  std::string Error;
  if (!parseJson(Body, Msg, Error) || !Msg.isObject()) {
    Out.push_back(errorEnvelope("null", -32700, "parse error: " + Error));
    return true;
  }

  const JsonValue *Method = Msg.get("method");
  const JsonValue *Id = Msg.get("id");
  // Ids are echoed back verbatim (the spec allows numbers and strings).
  std::string IdStr = Id ? Id->str() : "null";
  if (!Method || !Method->isString()) {
    if (Id)
      Out.push_back(errorEnvelope(IdStr, -32600, "request without method"));
    return true;
  }
  const std::string &Name = Method->asString();
  const JsonValue *Params = Msg.get("params");

  if (Name == "initialize") {
    Out.push_back(responseEnvelope(
        IdStr, std::string("{\"capabilities\":{\"textDocumentSync\":1},"
                           "\"serverInfo\":{\"name\":\"csdf\",\"version\":\"") +
                   toolVersion() + "\"}}"));
    return true;
  }
  if (Name == "shutdown") {
    SawShutdown = true;
    Out.push_back(responseEnvelope(IdStr, "null"));
    return true;
  }
  if (Name == "exit")
    return false;

  if (Name == "textDocument/didOpen") {
    const JsonValue *Doc = Params ? Params->get("textDocument") : nullptr;
    const JsonValue *Uri = Doc ? Doc->get("uri") : nullptr;
    const JsonValue *Text = Doc ? Doc->get("text") : nullptr;
    if (Uri && Uri->isString() && Text && Text->isString())
      publishDiagnostics(Uri->asString(), Text->asString(), Out);
    return true;
  }
  if (Name == "textDocument/didChange") {
    const JsonValue *Doc = Params ? Params->get("textDocument") : nullptr;
    const JsonValue *Uri = Doc ? Doc->get("uri") : nullptr;
    const JsonValue *Changes = Params ? Params->get("contentChanges") : nullptr;
    // Full-document sync: the last change carries the whole new text.
    if (Uri && Uri->isString() && Changes && Changes->isArray() &&
        !Changes->asArray().empty()) {
      const JsonValue *Text = Changes->asArray().back().get("text");
      if (Text && Text->isString())
        publishDiagnostics(Uri->asString(), Text->asString(), Out);
    }
    return true;
  }
  if (Name == "textDocument/didClose") {
    const JsonValue *Doc = Params ? Params->get("textDocument") : nullptr;
    const JsonValue *Uri = Doc ? Doc->get("uri") : nullptr;
    if (Uri && Uri->isString())
      // Clear the document's diagnostics in the editor.
      Out.push_back("{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/"
                    "publishDiagnostics\",\"params\":{\"uri\":\"" +
                    jsonEscape(Uri->asString()) + "\",\"diagnostics\":[]}}");
    return true;
  }

  // Unknown requests get MethodNotFound; unknown notifications (no id,
  // e.g. "initialized", "$/cancelRequest") are ignored per the spec.
  if (Id)
    Out.push_back(errorEnvelope(IdStr, -32601, "method not found: " + Name));
  return true;
}

int csdf::runLsp(const LspOptions &Opts) {
  LspServer Server(Opts);
  std::string Line;
  bool Running = true;
  while (Running) {
    // Read the header block (Content-Length is the only header we need).
    std::size_t ContentLength = 0;
    bool SawHeader = false;
    while (std::getline(std::cin, Line)) {
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty()) {
        SawHeader = true;
        break;
      }
      const std::string Key = "Content-Length:";
      if (Line.compare(0, Key.size(), Key) == 0)
        ContentLength = std::stoul(Line.substr(Key.size()));
    }
    if (!SawHeader || !std::cin)
      break; // EOF between messages: clean transport end.
    if (ContentLength == 0)
      continue;

    std::string Body(ContentLength, '\0');
    std::cin.read(Body.data(), static_cast<std::streamsize>(ContentLength));
    if (std::cin.gcount() != static_cast<std::streamsize>(ContentLength))
      break;

    std::vector<std::string> Out;
    Running = Server.handleMessage(Body, Out);
    for (const std::string &Msg : Out)
      std::cout << "Content-Length: " << Msg.size() << "\r\n\r\n" << Msg;
    std::cout.flush();
  }
  return Server.exitCode();
}
