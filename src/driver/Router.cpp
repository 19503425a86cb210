//===- driver/Router.cpp --------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/Router.h"

#include "diag/DiagRenderer.h"
#include "support/Json.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace csdf;

namespace {

int connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool writeAllFd(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Reads one newline-terminated line; false on EOF or error before it.
bool readLineFd(int Fd, std::string &Line) {
  std::string Buf;
  char Chunk[4096];
  size_t Nl;
  while ((Nl = Buf.find('\n')) == std::string::npos) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
  Line = Buf.substr(0, Nl);
  return true;
}

} // namespace

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

bool RouterServer::forwardOnce(const std::string &Backend,
                               const std::string &Line,
                               std::string &Response) {
  int Fd = connectUnix(Backend);
  if (Fd < 0)
    return false;
  bool Ok = writeAllFd(Fd, Line + "\n") && readLineFd(Fd, Response);
  ::close(Fd);
  return Ok;
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
    if (!forwardOnce(Backend, Line, Resp)) {
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

namespace {

/// Serves one accepted router connection; handleLine is thread-safe, so
/// connection threads call straight in — concurrent forwarding to
/// different shards is the point of a fleet front end.
void routeConnection(RouterServer &Server, int Fd,
                     std::atomic<bool> &Shutdown,
                     const RouterOptions &Opts) {
  timeval Tv{0, 200000};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));

  std::string Buf;
  char Chunk[4096];
  while (!Shutdown.load()) {
    size_t Nl = Buf.find('\n');
    if (Nl == std::string::npos) {
      if (Buf.size() > Opts.MaxRequestBytes + 4096) {
        writeAllFd(Fd, api::wireError(
                           "null", "parse-error",
                           "request exceeds " +
                               std::to_string(Opts.MaxRequestBytes) +
                               " bytes",
                           /*Retryable=*/false) +
                           "\n");
        return;
      }
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N == 0)
        return;
      if (N < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          continue;
        return;
      }
      Buf.append(Chunk, static_cast<size_t>(N));
      continue;
    }
    std::string Line = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    bool WantShutdown = false;
    std::string Resp = Server.handleLine(Line, WantShutdown);
    bool Wrote = writeAllFd(Fd, Resp + "\n");
    if (WantShutdown) {
      Shutdown.store(true);
      return;
    }
    if (!Wrote)
      return;
  }
}

} // namespace

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

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "csdf: error: socket path too long: '%s'\n",
                 Opts.SocketPath.c_str());
    return 2;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size());

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::fprintf(stderr, "csdf: error: socket: %s\n", std::strerror(errno));
    return 2;
  }
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    std::fprintf(stderr, "csdf: error: cannot listen on '%s': %s\n",
                 Opts.SocketPath.c_str(), std::strerror(errno));
    ::close(Fd);
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

  std::vector<std::thread> Threads;
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
    Threads.emplace_back([&Server, &Shutdown, &Opts, Conn]() {
      routeConnection(Server, Conn, Shutdown, Opts);
      ::close(Conn);
    });
  }
  Server.releaseWaiters();
  for (std::thread &T : Threads)
    T.join();
  Prober.join();
  ::close(Fd);
  ::unlink(Opts.SocketPath.c_str());
  return 0;
}
