//===- driver/Router.cpp --------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/Router.h"

#include "driver/Connection.h"
#include "support/Json.h"
#include "support/Socket.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace csdf;

std::string RouterStats::json(std::size_t Backends,
                              std::size_t Healthy) const {
  std::string S = "{";
  S += "\"backends\":" + std::to_string(Backends);
  S += ",\"backends_healthy\":" + std::to_string(Healthy);
  S += ",\"errors\":" + std::to_string(Errors);
  S += ",\"failovers\":" + std::to_string(Failovers);
  S += ",\"forwarded\":" + std::to_string(Forwarded);
  S += ",\"proto\":" + std::to_string(api::WireProtoVersion);
  S += ",\"requests\":" + std::to_string(Requests);
  S += ",\"tenant_sheds\":" + std::to_string(TenantSheds);
  S += ",\"unavailable\":" + std::to_string(Unavailable);
  S += "}";
  return S;
}

RouterServer::RouterServer(const RouterOptions &Opts)
    : Opts(Opts), Ring(Opts.Replicas) {
  for (const std::string &B : Opts.Backends) {
    Ring.addNode(B);
    Healthy[B] = true; // optimistic until a probe or a forward says no
  }
}

void RouterServer::setHealthy(const std::string &Backend, bool IsHealthy) {
  std::lock_guard<std::mutex> L(HealthMu);
  auto It = Healthy.find(Backend);
  if (It != Healthy.end())
    It->second = IsHealthy;
}

std::size_t RouterServer::healthyCount() const {
  std::lock_guard<std::mutex> L(HealthMu);
  std::size_t N = 0;
  for (const auto &[_, H] : Healthy)
    N += H ? 1 : 0;
  return N;
}

RouterStats RouterServer::statsSnapshot() const {
  std::lock_guard<std::mutex> L(StatsMu);
  return Stats;
}

void RouterServer::releaseWaiters() {
  {
    std::lock_guard<std::mutex> L(AdmitMu);
    Draining = true;
  }
  AdmitCv.notify_all();
}

bool RouterServer::admitAcquire(const std::string &Tenant) {
  std::unique_lock<std::mutex> L(AdmitMu);
  TenantState &T = Tenants[Tenant];
  if (T.Active < Opts.TenantMaxInflight) {
    ++T.Active;
    return true;
  }
  if (T.Waiting >= Opts.TenantQueueDepth)
    return false; // over quota *and* the queue is full: shed
  ++T.Waiting;
  AdmitCv.wait(L, [&] {
    return Draining || T.Active < Opts.TenantMaxInflight;
  });
  --T.Waiting;
  if (Draining)
    return false;
  ++T.Active;
  return true;
}

void RouterServer::admitRelease(const std::string &Tenant) {
  {
    std::lock_guard<std::mutex> L(AdmitMu);
    auto It = Tenants.find(Tenant);
    if (It != Tenants.end() && It->second.Active > 0)
      --It->second.Active;
  }
  AdmitCv.notify_all();
}

std::vector<std::string> RouterServer::candidates(
    const std::string &Key) const {
  std::vector<std::string> Order = Ring.successors(Key);
  // Healthy shards first, ring order preserved within each class; the
  // unhealthy tail stays as a last resort because a probe can be stale
  // in either direction.
  std::vector<std::string> Out;
  Out.reserve(Order.size());
  std::lock_guard<std::mutex> L(HealthMu);
  for (const std::string &B : Order) {
    auto It = Healthy.find(B);
    if (It == Healthy.end() || It->second)
      Out.push_back(B);
  }
  for (const std::string &B : Order) {
    auto It = Healthy.find(B);
    if (It != Healthy.end() && !It->second)
      Out.push_back(B);
  }
  return Out;
}

std::string RouterServer::handleLine(const std::string &Line,
                                     bool &Shutdown) {
  {
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.Requests;
  }

  auto CountError = [&] {
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.Errors;
  };

  // Same codec as the shards: garbage is rejected with byte-identical
  // structured errors whether it hits the router or a shard directly.
  api::WireRequest Req;
  std::string ErrorLine;
  if (!api::parseWireRequest(Line, Opts.MaxRequestBytes,
                             api::RequestOptions(), Req, ErrorLine)) {
    CountError();
    return ErrorLine;
  }

  if (Req.Type == "stats") {
    return api::wireResponseHead(Req.IdJson) + ",\"ok\":true,\"stats\":" +
           statsSnapshot().json(Opts.Backends.size(), healthyCount()) + "}";
  }
  if (Req.Type == "shutdown") {
    Shutdown = true;
    releaseWaiters();
    return api::wireResponseHead(Req.IdJson) +
           ",\"ok\":true,\"shutting_down\":true}";
  }
  if (Req.Type.empty()) {
    CountError();
    return api::wireError(Req.IdJson, "invalid-request",
                          "request has no type", /*Retryable=*/false);
  }
  if (Req.Type != "analyze" && Req.Type != "lint") {
    CountError();
    return api::wireError(Req.IdJson, "invalid-request",
                          "unknown request type '" + Req.Type + "'",
                          /*Retryable=*/false);
  }
  if (!Req.Source && Req.Path == "<request>") {
    CountError();
    return api::wireError(Req.IdJson, "invalid-request",
                          Req.Type + " needs a path or a source",
                          /*Retryable=*/false);
  }

  if (!admitAcquire(Req.Tenant)) {
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Stats.TenantSheds;
    }
    return api::wireError(
        Req.IdJson, "overloaded",
        "tenant '" + (Req.Tenant.empty() ? "default" : Req.Tenant) +
            "' is over its admission quota",
        /*Retryable=*/true, static_cast<int>(Opts.RetryAfterMs));
  }

  // The original line is forwarded byte-verbatim: the shard computes the
  // exact cache key a direct request would, so routing adds placement,
  // never a second spelling of the request.
  std::string Key = api::wireRoutingKey(Req);
  std::string Resp;
  std::string AnsweredBy;
  for (const std::string &Backend : candidates(Key)) {
    if (!exchangeLine(Backend, Line, Resp)) {
      // Demote immediately — the probe will promote it back when it
      // accepts connections again.
      setHealthy(Backend, false);
      continue;
    }
    // A shard shedding load is a failover signal too: the successor may
    // have capacity right now, and the client need never know.
    JsonValue V;
    std::string ParseError;
    if (parseJson(Resp, V, ParseError)) {
      const JsonValue *Code = V.get("code");
      if (Code && Code->isString() && Code->asString() == "overloaded")
        continue;
    }
    setHealthy(Backend, true);
    if (!Resp.empty() && Resp.back() == '}')
      Resp.insert(Resp.size() - 1,
                  ",\"shard\":\"" + jsonEscape(Backend) + "\"");
    AnsweredBy = Backend;
    break;
  }
  admitRelease(Req.Tenant);

  if (!AnsweredBy.empty()) {
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.Forwarded;
    // Counted by who answered, not by failed attempts: a primary the
    // health probe already demoted is routed around without one.
    if (AnsweredBy != Ring.owner(Key))
      ++Stats.Failovers;
    return Resp;
  }
  {
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.Unavailable;
  }
  return api::wireError(Req.IdJson, "unavailable",
                        "no shard could answer (fleet down or saturated)",
                        /*Retryable=*/true,
                        static_cast<int>(Opts.RetryAfterMs));
}

int csdf::runRouter(const RouterOptions &Opts) {
  if (Opts.Backends.empty()) {
    std::fprintf(stderr,
                 "csdf: error: router requires at least one --backend\n");
    return 2;
  }
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "csdf: error: router requires --socket PATH\n");
    return 2;
  }

  std::string ListenError;
  int Fd = listenUnix(Opts.SocketPath, ListenError);
  if (Fd < 0) {
    std::fprintf(stderr, "csdf: error: %s\n", ListenError.c_str());
    return 2;
  }

  RouterServer Server(Opts);
  std::atomic<bool> Shutdown{false};

  // The probe is one connect per backend per period: cheap enough to run
  // constantly, honest enough to catch a kill -9 within one period.
  std::thread Prober([&Server, &Shutdown, &Opts]() {
    if (Opts.HealthIntervalMs == 0)
      return;
    while (!Shutdown.load()) {
      for (const std::string &B : Opts.Backends) {
        int Pfd = connectUnix(B);
        Server.setHealthy(B, Pfd >= 0);
        if (Pfd >= 0)
          ::close(Pfd);
      }
      for (unsigned Slept = 0;
           Slept < Opts.HealthIntervalMs && !Shutdown.load(); Slept += 20)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // handleLine is thread-safe, so connection threads call straight in:
  // concurrent forwarding to different shards is the point of a fleet.
  ConnectionThreads Threads;
  while (!Shutdown.load()) {
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0)
      continue;
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Threads.spawn([&Server, &Shutdown, &Opts, Conn]() {
      serveLines(Conn, Opts.MaxRequestBytes, Shutdown,
                 [&Server](const std::string &Line, bool &Stop) {
                   return Server.handleLine(Line, Stop);
                 });
      ::close(Conn);
    });
  }
  Server.releaseWaiters();
  Threads.joinAll();
  Prober.join();
  ::close(Fd);
  ::unlink(Opts.SocketPath.c_str());
  return 0;
}
