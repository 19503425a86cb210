//===- api/Options.cpp ----------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "api/Options.h"

#include "support/Json.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

using namespace csdf;
using namespace csdf::api;

bool RequestOptions::isKnownClient(const std::string &Name) {
  return Name == "linear" || Name == "cartesian" || Name == "sectionx";
}

AnalysisOptions RequestOptions::analysis() const {
  AnalysisOptions Opts;
  if (Client == "linear")
    Opts = AnalysisOptions::simpleSymbolic();
  else if (Client == "sectionx")
    Opts = AnalysisOptions::sectionX();
  else
    Opts = AnalysisOptions::cartesian();
  if (FixedNp > 0)
    Opts.FixedNp = FixedNp;
  for (const auto &[Name, Value] : Params)
    Opts.Params[Name] = Value;
  if (MaxStates > 0)
    Opts.MaxStates = MaxStates;
  Opts.CheckMatchNondet = CheckMatchNondet;
  return Opts;
}

SessionOptions RequestOptions::session() const {
  SessionOptions Opts;
  Opts.Analysis = analysis();
  Opts.DeadlineMs = DeadlineMs;
  Opts.MaxMemoryMb = MaxMemoryMb;
  Opts.MaxProverSteps = ProverSteps;
  Opts.EnableTestHooks = TestHooks;
  return Opts;
}

std::string RequestOptions::fingerprint() const {
  std::string F = "client=" + Client + ";";
  F += analysis().fingerprint();
  F += ";deadline=" + std::to_string(DeadlineMs);
  F += ";mem=" + std::to_string(MaxMemoryMb);
  F += ";steps=" + std::to_string(ProverSteps);
  F += ";hooks=" + std::to_string(TestHooks);
  return F;
}

namespace {

/// Parses a full decimal signed integer, rejecting partial and
/// out-of-range input.
bool parseInt(const char *Text, std::int64_t &Out) {
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text, &End, 10);
  if (errno == ERANGE || End == Text || *End != '\0')
    return false;
  Out = V;
  return true;
}

/// Non-negative integer with an upper bound (the shared flags are all
/// counts or limits; negative or absurd values are user error).
bool parseLimit(const char *Text, std::int64_t Max, std::int64_t &Out) {
  return parseInt(Text, Out) && Out >= 0 && Out <= Max;
}

} // namespace

ArgStatus csdf::api::parseSharedOption(int Argc, const char *const *Argv,
                                       int &I, RequestOptions &Opts,
                                       std::string &Error) {
  const std::string Arg = Argv[I];

  // Flags with a required value. `Value` points at Argv[I+1] when present.
  auto takeValue = [&](const char *&Value) {
    if (I + 1 >= Argc) {
      Error = Arg + " requires a value";
      return false;
    }
    Value = Argv[++I];
    return true;
  };

  if (Arg == "--client") {
    const char *Value;
    if (!takeValue(Value))
      return ArgStatus::Error;
    if (!RequestOptions::isKnownClient(Value)) {
      Error = std::string("unknown client '") + Value +
              "' (expected linear, cartesian, or sectionx)";
      return ArgStatus::Error;
    }
    Opts.Client = Value;
    return ArgStatus::Consumed;
  }

  if (Arg == "--fixed-np") {
    const char *Value;
    std::int64_t N;
    if (!takeValue(Value))
      return ArgStatus::Error;
    if (!parseInt(Value, N) || N <= 0) {
      Error = "--fixed-np requires a positive integer";
      return ArgStatus::Error;
    }
    Opts.FixedNp = N;
    return ArgStatus::Consumed;
  }

  if (Arg == "--param") {
    const char *Value;
    if (!takeValue(Value))
      return ArgStatus::Error;
    const char *Eq = std::strchr(Value, '=');
    std::int64_t N;
    if (!Eq || Eq == Value || !parseInt(Eq + 1, N)) {
      Error = "--param requires name=integer";
      return ArgStatus::Error;
    }
    Opts.Params[std::string(Value, Eq)] = N;
    return ArgStatus::Consumed;
  }

  if (Arg == "--max-states") {
    const char *Value;
    std::int64_t N;
    if (!takeValue(Value))
      return ArgStatus::Error;
    if (!parseLimit(Value, 1000000000, N) || N == 0) {
      Error = "--max-states requires a positive integer";
      return ArgStatus::Error;
    }
    Opts.MaxStates = static_cast<unsigned>(N);
    return ArgStatus::Consumed;
  }

  if (Arg == "--deadline-ms" || Arg == "--max-memory-mb" ||
      Arg == "--prover-steps") {
    const char *Value;
    std::int64_t N;
    if (!takeValue(Value))
      return ArgStatus::Error;
    if (!parseLimit(Value, 1000000000000LL, N)) {
      Error = Arg + " requires a non-negative integer";
      return ArgStatus::Error;
    }
    if (Arg == "--deadline-ms")
      Opts.DeadlineMs = static_cast<std::uint64_t>(N);
    else if (Arg == "--max-memory-mb")
      Opts.MaxMemoryMb = static_cast<std::uint64_t>(N);
    else
      Opts.ProverSteps = static_cast<std::uint64_t>(N);
    return ArgStatus::Consumed;
  }

  if (Arg == "--no-match-nondet") {
    Opts.CheckMatchNondet = false;
    return ArgStatus::Consumed;
  }

  if (Arg == "--test-hooks") {
    Opts.TestHooks = true;
    return ArgStatus::Consumed;
  }

  return ArgStatus::NotMine;
}

bool csdf::api::optionsFromJson(const JsonValue &Json, RequestOptions &Opts,
                                std::string &Error) {
  if (!Json.isObject()) {
    Error = "options must be an object";
    return false;
  }
  for (const auto &[Key, Value] : Json.asObject()) {
    if (Key == "client") {
      if (!Value.isString() ||
          !RequestOptions::isKnownClient(Value.asString())) {
        Error = "options.client must be \"linear\", \"cartesian\", or "
                "\"sectionx\"";
        return false;
      }
      Opts.Client = Value.asString();
    } else if (Key == "fixed_np") {
      if (!Value.isInt() || Value.asInt() <= 0) {
        Error = "options.fixed_np must be a positive integer";
        return false;
      }
      Opts.FixedNp = Value.asInt();
    } else if (Key == "params") {
      if (!Value.isObject()) {
        Error = "options.params must be an object of name -> integer";
        return false;
      }
      for (const auto &[Name, Param] : Value.asObject()) {
        if (!Param.isInt()) {
          Error = "options.params." + Name + " must be an integer";
          return false;
        }
        Opts.Params[Name] = Param.asInt();
      }
    } else if (Key == "max_states") {
      if (!Value.isInt() || Value.asInt() < 1 ||
          Value.asInt() > 1000000000) {
        Error = "options.max_states must be a positive integer";
        return false;
      }
      Opts.MaxStates = static_cast<unsigned>(Value.asInt());
    } else if (Key == "deadline_ms" || Key == "max_memory_mb" ||
               Key == "prover_steps") {
      if (!Value.isInt() || Value.asInt() < 0) {
        Error = "options." + Key + " must be a non-negative integer";
        return false;
      }
      auto N = static_cast<std::uint64_t>(Value.asInt());
      if (Key == "deadline_ms")
        Opts.DeadlineMs = N;
      else if (Key == "max_memory_mb")
        Opts.MaxMemoryMb = N;
      else
        Opts.ProverSteps = N;
    } else if (Key == "check_match_nondet") {
      if (!Value.isBool()) {
        Error = "options.check_match_nondet must be a boolean";
        return false;
      }
      Opts.CheckMatchNondet = Value.asBool();
    } else if (Key == "test_hooks") {
      if (!Value.isBool()) {
        Error = "options.test_hooks must be a boolean";
        return false;
      }
      Opts.TestHooks = Value.asBool();
    } else {
      Error = "unknown option '" + Key + "'";
      return false;
    }
  }
  return true;
}

std::string csdf::api::optionsToJson(const RequestOptions &Opts) {
  std::string J = "{";
  J += "\"check_match_nondet\":";
  J += Opts.CheckMatchNondet ? "true" : "false";
  J += ",\"client\":\"" + Opts.Client + "\"";
  J += ",\"deadline_ms\":" + std::to_string(Opts.DeadlineMs);
  if (Opts.FixedNp > 0)
    J += ",\"fixed_np\":" + std::to_string(Opts.FixedNp);
  J += ",\"max_memory_mb\":" + std::to_string(Opts.MaxMemoryMb);
  if (Opts.MaxStates > 0)
    J += ",\"max_states\":" + std::to_string(Opts.MaxStates);
  if (!Opts.Params.empty()) {
    J += ",\"params\":{";
    bool First = true;
    for (const auto &[Name, Value] : Opts.Params) {
      if (!First)
        J += ',';
      First = false;
      J += "\"" + jsonEscape(Name) + "\":" + std::to_string(Value);
    }
    J += "}";
  }
  J += ",\"prover_steps\":" + std::to_string(Opts.ProverSteps);
  J += ",\"test_hooks\":";
  J += Opts.TestHooks ? "true" : "false";
  J += "}";
  return J;
}
