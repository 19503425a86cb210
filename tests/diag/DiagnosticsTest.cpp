//===- tests/diag/DiagnosticsTest.cpp - DiagnosticEngine + renderers -------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "diag/DiagRenderer.h"
#include "diag/DiagnosticEngine.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

Diagnostic diag(const char *Pass, DiagSeverity Sev, unsigned Line,
                unsigned Col, const char *Message) {
  return makeDiag(Pass, Sev, SourceLoc{Line, Col}, Message);
}

//===----------------------------------------------------------------------===//
// Engine: dedup, sort, severity policy, exit codes
//===----------------------------------------------------------------------===//

TEST(DiagnosticEngine, DeduplicatesIdenticalFindings) {
  DiagnosticEngine E;
  EXPECT_TRUE(E.report(diag("dead-store", DiagSeverity::Warning, 3, 1, "x")));
  EXPECT_FALSE(E.report(diag("dead-store", DiagSeverity::Warning, 3, 1, "x")));
  // Different message, rule or location is a distinct finding.
  EXPECT_TRUE(E.report(diag("dead-store", DiagSeverity::Warning, 3, 1, "y")));
  EXPECT_TRUE(E.report(diag("sema", DiagSeverity::Warning, 3, 1, "x")));
  EXPECT_TRUE(E.report(diag("dead-store", DiagSeverity::Warning, 4, 1, "x")));
  EXPECT_EQ(E.size(), 4u);
}

TEST(DiagnosticEngine, SortsByLocationThenRule) {
  DiagnosticEngine E;
  E.report(diag("zz", DiagSeverity::Warning, 9, 1, "late"));
  E.report(diag("bb", DiagSeverity::Warning, 2, 5, "mid"));
  E.report(diag("aa", DiagSeverity::Warning, 2, 5, "mid"));
  E.report(diag("cc", DiagSeverity::Warning, 2, 4, "early"));
  const std::vector<Diagnostic> &D = E.diagnostics();
  ASSERT_EQ(D.size(), 4u);
  EXPECT_EQ(D[0].Pass, "cc");
  EXPECT_EQ(D[1].Pass, "aa");
  EXPECT_EQ(D[2].Pass, "bb");
  EXPECT_EQ(D[3].Pass, "zz");
}

TEST(DiagnosticEngine, SeverityFilterDropsBelowMinimum) {
  DiagnosticEngine E;
  E.report(diag("a", DiagSeverity::Note, 1, 1, "n"));
  E.report(diag("b", DiagSeverity::Warning, 2, 1, "w"));
  E.report(diag("c", DiagSeverity::Error, 3, 1, "e"));
  E.filterBelow(DiagSeverity::Warning);
  EXPECT_EQ(E.size(), 2u);
  E.filterBelow(DiagSeverity::Error);
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E.diagnostics()[0].Pass, "c");
}

TEST(DiagnosticEngine, ExitCodesAndWerror) {
  DiagnosticEngine Clean;
  EXPECT_EQ(Clean.exitCode(), 0);

  // Notes alone never fail a run.
  DiagnosticEngine Notes;
  Notes.report(diag("a", DiagSeverity::Note, 1, 1, "n"));
  EXPECT_EQ(Notes.exitCode(), 0);

  // Warnings are findings (exit 1) even without Werror.
  DiagnosticEngine Warn;
  Warn.report(diag("a", DiagSeverity::Warning, 1, 1, "w"));
  EXPECT_EQ(Warn.exitCode(), 1);
  EXPECT_FALSE(Warn.hasErrors());

  // --min-severity error filters warnings out: exit 0...
  DiagnosticEngine Filtered;
  Filtered.report(diag("a", DiagSeverity::Warning, 1, 1, "w"));
  Filtered.filterBelow(DiagSeverity::Error);
  EXPECT_EQ(Filtered.exitCode(), 0);

  // ...unless --Werror promoted them to errors first.
  DiagnosticEngine Promoted;
  Promoted.report(diag("a", DiagSeverity::Warning, 1, 1, "w"));
  Promoted.promoteWarningsToErrors();
  EXPECT_TRUE(Promoted.hasErrors());
  Promoted.filterBelow(DiagSeverity::Error);
  EXPECT_EQ(Promoted.exitCode(), 1);
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

TEST(DiagRenderer, TextCaretPointsAtColumn) {
  DiagnosticEngine E;
  E.report(diag("dead-store", DiagSeverity::Warning, 2, 3, "value assigned "
                                                           "to 'x' is never "
                                                           "read"));
  std::string Out = renderDiagsText(E.diagnostics(), "t.mpl",
                                    "skip;\n  x = 1;\n");
  EXPECT_NE(Out.find("t.mpl:2:3: warning: value assigned to 'x' is never "
                     "read [dead-store]"),
            std::string::npos);
  EXPECT_NE(Out.find("  x = 1;"), std::string::npos);
  // Caret line: two leading spaces from the renderer + two columns = 4.
  EXPECT_NE(Out.find("\n    ^\n"), std::string::npos);
}

TEST(DiagRenderer, JsonEscapesAndRoundTrips) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  DiagnosticEngine E;
  E.report(diag("sema", DiagSeverity::Error, 1, 2, "bad \"name\""));
  std::string Out = renderDiagsJson(E.diagnostics(), "t.mpl");
  EXPECT_NE(Out.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(Out.find("\"rule\":\"csdf.sema\""), std::string::npos);
  EXPECT_NE(Out.find("\"message\":\"bad \\\"name\\\"\""), std::string::npos);
  EXPECT_NE(Out.find("\"line\":1,\"col\":2"), std::string::npos);
}

TEST(DiagRenderer, SarifHasRequiredShape) {
  DiagnosticEngine E;
  Diagnostic D = diag("partner-bounds", DiagSeverity::Error, 6, 3,
                      "partner out of range");
  D.Related.push_back({SourceLoc{7, 1}, "receive is here"});
  E.report(D);
  E.report(diag("dead-store", DiagSeverity::Warning, 4, 1, "dead"));

  std::string Out = renderDiagsSarif(
      E.diagnostics(), "t.mpl",
      {{"csdf.partner-bounds", "rank out of range"}});

  // SARIF 2.1.0 envelope.
  EXPECT_NE(Out.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(Out.find("sarif-2.1.0.json"), std::string::npos);
  // Driver and rule metadata.
  EXPECT_NE(Out.find("\"name\":\"csdf-lint\""), std::string::npos);
  EXPECT_NE(Out.find("{\"id\":\"csdf.partner-bounds\",\"shortDescription\":"
                     "{\"text\":\"rank out of range\"}}"),
            std::string::npos);
  // Results: ruleId, level, message, physicalLocation with line/column.
  EXPECT_NE(Out.find("\"ruleId\":\"csdf.partner-bounds\""), std::string::npos);
  EXPECT_NE(Out.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(Out.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_NE(
      Out.find("\"physicalLocation\":{\"artifactLocation\":{\"uri\":"
               "\"t.mpl\"},\"region\":{\"startLine\":6,\"startColumn\":3}}"),
      std::string::npos);
  EXPECT_NE(Out.find("\"relatedLocations\""), std::string::npos);
}

} // namespace
