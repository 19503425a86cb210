//===- api/Options.h - One option set for every csdf front end ------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RequestOptions is the value-typed option bag every consumer of the
/// library shares: the `csdf` CLI subcommands (analyze, lint, batch,
/// serve), the `csdf serve` request protocol, and embedders going through
/// api::Analyzer. It captures the *request-level* knobs — client preset,
/// engine overrides, and the session budget — and materializes them into
/// the lower layers' AnalysisOptions / SessionOptions on demand, so there
/// is exactly one mapping from user-visible options to engine
/// configuration.
///
/// The same struct has exactly one command-line spelling
/// (parseSharedOption), one JSON spelling (optionsFromJson), and one
/// canonical cache-key encoding (fingerprint), so the three front ends
/// cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_API_OPTIONS_H
#define CSDF_API_OPTIONS_H

#include "driver/Session.h"
#include "pcfg/AnalysisOptions.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <string>

namespace csdf::api {

/// Everything a single analyze/lint request can configure, in preset +
/// overrides form. The client preset is applied first and the overrides
/// last, so the result does not depend on flag order.
struct RequestOptions {
  /// Client analysis preset: "linear" (Section VII), "cartesian"
  /// (Section VIII, the default), or "sectionx" (every extension on).
  std::string Client = "cartesian";

  /// Engine overrides on top of the preset (0 = preset default).
  std::int64_t FixedNp = 0;
  std::map<std::string, std::int64_t> Params;
  unsigned MaxStates = 0;

  /// Session budget limits (0 = unlimited).
  std::uint64_t DeadlineMs = 0;
  std::uint64_t MaxMemoryMb = 0;
  std::uint64_t ProverSteps = 0;

  /// Report match-nondeterminism bugs at wildcard receives with two or
  /// more statically eligible senders (`--no-match-nondet` disables the
  /// report; the precision degradation at such receives is unconditional).
  bool CheckMatchNondet = true;

  /// Honor `# csdf-test:` failure-injection directives (batch corpora and
  /// robustness tests only).
  bool TestHooks = false;

  /// True if \p Name is a known client preset.
  static bool isKnownClient(const std::string &Name);

  /// The engine options this request resolves to (preset, then
  /// overrides). Budget/shared-state wiring is attached by the Analyzer,
  /// not here.
  AnalysisOptions analysis() const;

  /// The full session configuration (analysis + budget + hooks).
  SessionOptions session() const;

  /// Canonical encoding of every semantically relevant field — combined
  /// with the source text it forms the content-addressed cache key of
  /// `csdf serve`. Budget limits are included: a run bounded by a 50 ms
  /// deadline is a different request than an unbounded one (its verdict
  /// may legitimately be degraded-to-top).
  std::string fingerprint() const;
};

/// Outcome of offering one argv element to the shared-flag parser.
enum class ArgStatus {
  Consumed, ///< The flag (and its value, if any) was recognized and applied.
  NotMine,  ///< Not a shared flag; the caller should try its own table.
  Error,    ///< A shared flag with a bad/missing value; Error text is set.
};

/// Tries to consume Argv[I] as one of the shared request flags —
/// `--client`, `--fixed-np`, `--param`, `--max-states`,
/// `--deadline-ms`, `--max-memory-mb`, `--prover-steps`,
/// `--no-match-nondet`, `--test-hooks` —
/// advancing \p I past the flag's value when one is taken. Every csdf
/// front end funnels through this, so a flag spelled once works (and
/// validates identically) everywhere.
ArgStatus parseSharedOption(int Argc, const char *const *Argv, int &I,
                            RequestOptions &Opts, std::string &Error);

/// Applies a `csdf serve` request's "options" object on top of \p Opts
/// (fields not present keep their current — typically daemon-default —
/// values). Accepted members: client, fixed_np, params (object of
/// name -> integer), max_states, deadline_ms, max_memory_mb,
/// prover_steps, check_match_nondet, test_hooks. Returns false with \p
/// Error set on an unknown member or a type mismatch: requests with typos
/// fail loudly instead of analyzing with silently-default options.
bool optionsFromJson(const JsonValue &Json, RequestOptions &Opts,
                     std::string &Error);

/// The inverse spelling: \p Opts as a serve-protocol "options" object
/// (sorted keys, compact). Round-trips through optionsFromJson to an
/// options value with the identical fingerprint(), so `csdf client` can
/// forward its command-line flags to a daemon without a third spelling.
/// Fields whose zero value optionsFromJson rejects (fixed_np, max_states)
/// are omitted when unset, as is an empty params object.
std::string optionsToJson(const RequestOptions &Opts);

} // namespace csdf::api

#endif // CSDF_API_OPTIONS_H
