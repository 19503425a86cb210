//===- diag/DiagRenderer.h - Text / JSON / SARIF diagnostic output ---------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three output formats of `csdf lint`:
///
///   * text  — clang-style `file:line:col: severity: message [rule]` with a
///     caret/snippet rendered from the original source buffer;
///   * json  — one JSON object per line (easy to grep and to diff in golden
///     tests);
///   * sarif — a SARIF 2.1.0 document for CI upload (GitHub code scanning
///     et al.): tool.driver.rules plus results with ruleId, level and
///     physicalLocation.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_DIAG_DIAGRENDERER_H
#define CSDF_DIAG_DIAGRENDERER_H

#include "diag/Diagnostic.h"

#include <map>
#include <string>
#include <vector>

namespace csdf {

/// Renders \p Diags as human-readable text with caret snippets cut from
/// \p Source. \p FileName is used as the location prefix.
std::string renderDiagsText(const std::vector<Diagnostic> &Diags,
                            const std::string &FileName,
                            const std::string &Source);

/// Renders \p Diags as JSON lines (one object per diagnostic).
std::string renderDiagsJson(const std::vector<Diagnostic> &Diags,
                            const std::string &FileName);

/// Documentation for one SARIF rule, rendered into tool.driver.rules.
/// Empty FullDescription/HelpUri fields are omitted from the document.
struct SarifRuleDoc {
  std::string ShortDescription;
  std::string FullDescription;
  std::string HelpUri;
};

/// Renders \p Diags as a SARIF 2.1.0 document. Every rule in \p RuleDocs is
/// emitted into tool.driver.rules — including rules with no result in this
/// run, so code-scanning consumers see the full rule catalog — plus an
/// ID-only stub for any rule appearing in \p Diags but missing from the map.
std::string
renderDiagsSarif(const std::vector<Diagnostic> &Diags,
                 const std::string &FileName,
                 const std::map<std::string, SarifRuleDoc> &RuleDocs);

/// Convenience overload taking only short descriptions.
std::string
renderDiagsSarif(const std::vector<Diagnostic> &Diags,
                 const std::string &FileName,
                 const std::map<std::string, std::string> &RuleDescriptions =
                     {});

} // namespace csdf

#endif // CSDF_DIAG_DIAGRENDERER_H
