//===- driver/Client.cpp --------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/Client.h"

#include "api/Wire.h"
#include "driver/Session.h"
#include "support/Json.h"
#include "support/Socket.h"

#include <chrono>
#include <cstdio>
#include <random>
#include <thread>
#include <unistd.h>

using namespace csdf;

namespace {

std::string buildRequest(const ClientOptions &Opts, std::string &Error) {
  api::WireRequest Req;
  Req.IdJson = "1";
  Req.Type = Opts.Type;
  Req.Tenant = Opts.Tenant;
  if (Opts.Type == "analyze" || Opts.Type == "lint") {
    Req.Path = Opts.Path;
    if (Opts.SendSource) {
      std::string Source;
      if (!readSessionFile(Opts.Path, Source, Error))
        return "";
      Req.Source = std::move(Source);
    }
  }
  if (Opts.HasOptions)
    Req.Options = Opts.Options;
  Req.Werror = Opts.Werror;
  if (Opts.MinSeverity == "warning")
    Req.MinSeverity = DiagSeverity::Warning;
  else if (Opts.MinSeverity == "error")
    Req.MinSeverity = DiagSeverity::Error;
  Req.Disabled = Opts.Disabled;
  return api::wireRequestJson(Req, Opts.HasOptions);
}

/// The router stamps `"shard":"<backend socket>"` into forwarded
/// responses; surface it so a human can see which shard answered.
void narrateShard(const ClientOptions &Opts, const std::string &Response) {
  if (!Opts.Verbose)
    return;
  JsonValue V;
  std::string ParseError;
  if (parseJson(Response, V, ParseError)) {
    const JsonValue *Shard = V.get("shard");
    if (Shard && Shard->isString()) {
      std::fprintf(stderr, "csdf client: answered by shard '%s'\n",
                   Shard->asString().c_str());
      return;
    }
  }
  std::fprintf(stderr, "csdf client: answered directly (no shard member)\n");
}

} // namespace

int csdf::runClient(const ClientOptions &Opts) {
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "csdf: error: client requires --socket PATH\n");
    return 2;
  }
  if ((Opts.Type == "analyze" || Opts.Type == "lint") && Opts.Path.empty()) {
    std::fprintf(stderr, "csdf: error: client %s requires an input file\n",
                 Opts.Type.c_str());
    return 2;
  }

  std::string Error;
  std::string RequestLine = buildRequest(Opts, Error);
  if (RequestLine.empty()) {
    std::fprintf(stderr, "csdf: error: %s\n", Error.c_str());
    return 2;
  }

  // Jitter decorrelates a fleet of retrying clients; determinism is not a
  // goal here (this is wall-clock scheduling, not analysis).
  std::mt19937_64 Rng(static_cast<std::uint64_t>(::getpid()) ^
                      static_cast<std::uint64_t>(
                          std::chrono::steady_clock::now()
                              .time_since_epoch()
                              .count()));

  // The two failure classes back off independently: `overloaded` is a
  // live server asking for patience (exponential, honors its hint), a
  // transport drop is a shard dying or restarting (short linear track —
  // behind a router the next attempt lands on a healthy shard, so long
  // sleeps would serialize a failover the fleet already absorbed).
  unsigned OverloadRetries = 0, TransportRetries = 0;
  bool LastWasOverload = false;
  std::string Response;
  bool SawResponse = false;
  for (unsigned Attempt = 0; Attempt <= Opts.Retries; ++Attempt) {
    if (Attempt > 0) {
      std::uint64_t Delay;
      if (LastWasOverload) {
        Delay = std::min<std::uint64_t>(
            Opts.RetryCapMs,
            static_cast<std::uint64_t>(Opts.RetryBaseMs)
                << std::min(OverloadRetries - 1, 20u));
        // Honor the server's hint when it asks for more patience.
        if (SawResponse) {
          JsonValue V;
          std::string ParseError;
          if (parseJson(Response, V, ParseError) &&
              V.get("retry_after_ms"))
            Delay = std::max<std::uint64_t>(
                Delay, static_cast<std::uint64_t>(
                           V.get("retry_after_ms")->asInt()));
        }
      } else {
        Delay = std::min<std::uint64_t>(
            Opts.RetryCapMs,
            static_cast<std::uint64_t>(Opts.RetryBaseMs) * TransportRetries);
      }
      // +-50% jitter.
      std::uniform_int_distribution<std::uint64_t> Dist(Delay / 2, Delay +
                                                                       1);
      std::this_thread::sleep_for(std::chrono::milliseconds(Dist(Rng)));
    }

    // A transport failure (connect refused, EOF before a full line) is
    // retryable: the daemon may be restarting or crashed mid-write.
    std::string Line;
    if (!exchangeLine(Opts.SocketPath, RequestLine, Line)) {
      SawResponse = false;
      ++TransportRetries;
      LastWasOverload = false;
      if (Opts.Verbose)
        std::fprintf(stderr,
                     "csdf client: attempt %u: transport drop, retrying\n",
                     Attempt + 1);
      continue;
    }
    Response = Line;
    SawResponse = true;

    JsonValue V;
    std::string ParseError;
    if (!parseJson(Line, V, ParseError)) {
      // A daemon speaking garbage is not retryable — surface it.
      std::fprintf(stderr, "csdf: error: unparseable response: %s\n",
                   ParseError.c_str());
      std::printf("%s\n", Line.c_str());
      return 1;
    }
    const JsonValue *Ok = V.get("ok");
    if (Ok && Ok->isBool() && Ok->asBool()) {
      narrateShard(Opts, Line);
      std::printf("%s\n", Line.c_str());
      return 0;
    }
    const JsonValue *Retryable = V.get("retryable");
    if (Retryable && Retryable->isBool() && Retryable->asBool()) {
      ++OverloadRetries;
      LastWasOverload = true;
      if (Opts.Verbose) {
        const JsonValue *Code = V.get("code");
        std::fprintf(stderr,
                     "csdf client: attempt %u: retryable '%s', backing off\n",
                     Attempt + 1,
                     Code && Code->isString() ? Code->asString().c_str()
                                              : "?");
      }
      continue;
    }
    narrateShard(Opts, Line);
    std::printf("%s\n", Line.c_str());
    return 1;
  }

  if (SawResponse) {
    std::printf("%s\n", Response.c_str());
    std::fprintf(stderr, "csdf: error: retries exhausted\n");
    return 1;
  }
  std::fprintf(stderr, "csdf: error: cannot reach daemon at '%s'\n",
               Opts.SocketPath.c_str());
  return 2;
}
