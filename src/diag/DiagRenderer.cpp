//===- diag/DiagRenderer.cpp -----------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "diag/DiagRenderer.h"

#include "support/Json.h"

#include <sstream>

using namespace csdf;

//===----------------------------------------------------------------------===//
// Text with caret snippets
//===----------------------------------------------------------------------===//

namespace {

/// Splits \p Source into lines (without terminators), 1-based access.
std::vector<std::string> splitLines(const std::string &Source) {
  std::vector<std::string> Lines;
  std::string Cur;
  for (char C : Source) {
    if (C == '\n') {
      Lines.push_back(std::move(Cur));
      Cur.clear();
    } else if (C != '\r') {
      Cur += C;
    }
  }
  Lines.push_back(std::move(Cur));
  return Lines;
}

void appendSnippet(std::ostringstream &OS, const std::vector<std::string> &Lines,
                   SourceLoc Loc) {
  if (!Loc.isValid() || Loc.Line > Lines.size())
    return;
  const std::string &Line = Lines[Loc.Line - 1];
  OS << "  " << Line << "\n  ";
  // The caret column is clamped to just past the end of the line; tabs in
  // the prefix are preserved so the caret stays visually aligned.
  unsigned Col = Loc.Col ? Loc.Col : 1;
  if (Col > Line.size() + 1)
    Col = static_cast<unsigned>(Line.size()) + 1;
  for (unsigned I = 0; I + 1 < Col; ++I)
    OS << (Line[I] == '\t' ? '\t' : ' ');
  OS << "^\n";
}

void appendLocPrefix(std::ostringstream &OS, const std::string &FileName,
                     SourceLoc Loc) {
  OS << FileName;
  if (Loc.isValid())
    OS << ":" << Loc.Line << ":" << Loc.Col;
  OS << ": ";
}

} // namespace

std::string csdf::renderDiagsText(const std::vector<Diagnostic> &Diags,
                                  const std::string &FileName,
                                  const std::string &Source) {
  std::vector<std::string> Lines = splitLines(Source);
  std::ostringstream OS;
  for (const Diagnostic &D : Diags) {
    appendLocPrefix(OS, FileName, D.Loc);
    OS << diagSeverityName(D.Sev) << ": " << D.Message << " [" << D.Pass
       << "]\n";
    appendSnippet(OS, Lines, D.Loc);
    for (const DiagRelatedLoc &R : D.Related) {
      appendLocPrefix(OS, FileName, R.Loc);
      OS << "note: " << R.Message << "\n";
      appendSnippet(OS, Lines, R.Loc);
    }
    if (!D.Note.empty())
      OS << "  note: " << D.Note << "\n";
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// JSON lines
//===----------------------------------------------------------------------===//

std::string csdf::renderDiagsJson(const std::vector<Diagnostic> &Diags,
                                  const std::string &FileName) {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags) {
    OS << "{\"file\":\"" << jsonEscape(FileName) << "\",\"line\":" << D.Loc.Line
       << ",\"col\":" << D.Loc.Col << ",\"severity\":\""
       << diagSeverityName(D.Sev) << "\",\"rule\":\"" << jsonEscape(D.Id)
       << "\",\"pass\":\"" << jsonEscape(D.Pass) << "\",\"message\":\""
       << jsonEscape(D.Message) << "\"";
    if (!D.Note.empty())
      OS << ",\"note\":\"" << jsonEscape(D.Note) << "\"";
    if (!D.Related.empty()) {
      OS << ",\"related\":[";
      for (size_t I = 0; I < D.Related.size(); ++I) {
        if (I)
          OS << ",";
        OS << "{\"line\":" << D.Related[I].Loc.Line
           << ",\"col\":" << D.Related[I].Loc.Col << ",\"message\":\""
           << jsonEscape(D.Related[I].Message) << "\"}";
      }
      OS << "]";
    }
    OS << "}\n";
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// SARIF 2.1.0
//===----------------------------------------------------------------------===//

namespace {

/// SARIF levels: note / warning / error match our severities.
const char *sarifLevel(DiagSeverity Sev) {
  return diagSeverityName(Sev);
}

void appendSarifLocation(std::ostringstream &OS, const std::string &Uri,
                         SourceLoc Loc) {
  OS << "{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\""
     << jsonEscape(Uri) << "\"},\"region\":{\"startLine\":"
     << (Loc.isValid() ? Loc.Line : 1)
     << ",\"startColumn\":" << (Loc.Col ? Loc.Col : 1) << "}}}";
}

} // namespace

std::string csdf::renderDiagsSarif(
    const std::vector<Diagnostic> &Diags, const std::string &FileName,
    const std::map<std::string, std::string> &RuleDescriptions) {
  std::map<std::string, SarifRuleDoc> Docs;
  for (const auto &[Id, Desc] : RuleDescriptions)
    Docs[Id] = {Desc, "", ""};
  return renderDiagsSarif(Diags, FileName, Docs);
}

std::string csdf::renderDiagsSarif(
    const std::vector<Diagnostic> &Diags, const std::string &FileName,
    const std::map<std::string, SarifRuleDoc> &RuleDocs) {
  // The full catalog plus an ID-only stub for any rule a diagnostic names
  // that the caller did not document. Sorted map order keeps the document
  // deterministic.
  std::map<std::string, SarifRuleDoc> Rules = RuleDocs;
  for (const Diagnostic &D : Diags)
    if (!Rules.count(D.Id))
      Rules[D.Id] = {D.Id, "", ""};

  std::ostringstream OS;
  OS << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
     << "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
     << "\"name\":\"csdf-lint\","
     << "\"informationUri\":\"https://example.org/csdf\",\"rules\":[";
  bool First = true;
  for (const auto &[Id, Doc] : Rules) {
    if (!First)
      OS << ",";
    First = false;
    OS << "{\"id\":\"" << jsonEscape(Id) << "\",\"shortDescription\":{"
       << "\"text\":\"" << jsonEscape(Doc.ShortDescription) << "\"}";
    if (!Doc.FullDescription.empty())
      OS << ",\"fullDescription\":{\"text\":\""
         << jsonEscape(Doc.FullDescription) << "\"}";
    if (!Doc.HelpUri.empty())
      OS << ",\"helpUri\":\"" << jsonEscape(Doc.HelpUri) << "\"";
    OS << "}";
  }
  OS << "]}},\"results\":[";
  First = true;
  for (const Diagnostic &D : Diags) {
    if (!First)
      OS << ",";
    First = false;
    std::string Text = D.Message;
    if (!D.Note.empty())
      Text += " (" + D.Note + ")";
    OS << "{\"ruleId\":\"" << jsonEscape(D.Id) << "\",\"level\":\""
       << sarifLevel(D.Sev) << "\",\"message\":{\"text\":\""
       << jsonEscape(Text) << "\"},\"locations\":[";
    appendSarifLocation(OS, FileName, D.Loc);
    OS << "]";
    if (!D.Related.empty()) {
      OS << ",\"relatedLocations\":[";
      for (size_t I = 0; I < D.Related.size(); ++I) {
        if (I)
          OS << ",";
        appendSarifLocation(OS, FileName, D.Related[I].Loc);
      }
      OS << "]";
    }
    OS << "}";
  }
  OS << "]}]}\n";
  return OS.str();
}
