//===- driver/Serve.cpp ---------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/Serve.h"

#include "diag/DiagRenderer.h"
#include "driver/Session.h"
#include "numeric/MemoSnapshot.h"
#include "support/Fault.h"
#include "support/Stats.h"
#include "support/Version.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace csdf;

namespace {

std::uint64_t nowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One-line diagnostics (renderDiagsJson emits one object per line)
/// re-shaped into a JSON array fragment.
std::string diagsJsonArray(const std::vector<Diagnostic> &Diags,
                           const std::string &Path) {
  std::string Lines = renderDiagsJson(Diags, Path);
  std::string Out = "[";
  size_t Pos = 0;
  bool First = true;
  while (Pos < Lines.size()) {
    size_t Nl = Lines.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Lines.size();
    if (Nl > Pos) {
      if (!First)
        Out += ',';
      First = false;
      Out.append(Lines, Pos, Nl - Pos);
    }
    Pos = Nl + 1;
  }
  Out += ']';
  return Out;
}

} // namespace

std::string csdf::overloadedResponse(unsigned RetryAfterMs) {
  return api::wireOverloaded(RetryAfterMs);
}

std::string ServeStats::json(std::size_t CacheEntries,
                             std::size_t CacheCapacity) const {
  char Rate[32];
  std::snprintf(Rate, sizeof(Rate), "%.4f", hitRate());
  std::string S = "{";
  S += "\"adopted_steps\":" + std::to_string(AdoptedSteps);
  S += ",\"analyze_requests\":" + std::to_string(AnalyzeRequests);
  S += ",\"budget_trips\":" + std::to_string(BudgetTrips);
  S += ",\"cache_capacity\":" + std::to_string(CacheCapacity);
  S += ",\"cache_entries\":" + std::to_string(CacheEntries);
  S += ",\"closure_full_calls\":" + std::to_string(ClosureFullCalls);
  S += ",\"closure_memo_hits\":" + std::to_string(ClosureMemoHits);
  S += ",\"cold_runs\":" + std::to_string(ColdRuns);
  S += ",\"disk_evictions\":" + std::to_string(DiskEvictions);
  S += ",\"disk_hits\":" + std::to_string(DiskHits);
  S += ",\"disk_misses\":" + std::to_string(DiskMisses);
  S += ",\"disk_quarantined\":" + std::to_string(DiskQuarantined);
  S += ",\"disk_read_failures\":" + std::to_string(DiskReadFailures);
  S += ",\"disk_write_failures\":" + std::to_string(DiskWriteFailures);
  S += ",\"disk_writes\":" + std::to_string(DiskWrites);
  S += ",\"errors\":" + std::to_string(Errors);
  S += ",\"evictions\":" + std::to_string(Evictions);
  S += ",\"hit_rate\":" + std::string(Rate);
  S += ",\"hits\":" + std::to_string(Hits);
  S += ",\"incremental_cache_hits\":" + std::to_string(IncrementalCacheHits);
  S += ",\"incremental_requests\":" + std::to_string(IncrementalRequests);
  S += ",\"last_seed_reject\":\"" + jsonEscape(LastSeedReject) + "\"";
  S += ",\"lint_requests\":" + std::to_string(LintRequests);
  S += ",\"live_steps\":" + std::to_string(LiveSteps);
  S += ",\"memo_adopted\":" + std::to_string(MemoAdopted);
  S += ",\"memo_entries\":" + std::to_string(MemoEntries);
  S += ",\"memo_quarantined\":" + std::to_string(MemoQuarantined);
  S += ",\"memo_snapshot_rejected\":" + std::to_string(MemoSnapshotRejected);
  S += ",\"memo_snapshot_saves\":" + std::to_string(MemoSnapshotSaves);
  S += ",\"misses\":" + std::to_string(Misses);
  S += ",\"proto\":" + std::to_string(api::WireProtoVersion);
  S += ",\"requests\":" + std::to_string(Requests);
  S += ",\"seeded_runs\":" + std::to_string(SeededRuns);
  S += ",\"shed_connections\":" + std::to_string(ShedConnections);
  S += ",\"store_enabled\":" + std::string(StoreEnabled ? "true" : "false");
  S += ",\"store_entries\":" + std::to_string(StoreEntries);
  S += ",\"store_live_bytes\":" + std::to_string(StoreLiveBytes);
  S += ",\"store_temps_cleaned\":" + std::to_string(StoreTempsCleaned);
  S += ",\"wall_us_avg\":" +
       std::to_string(Requests ? WallUsTotal / Requests : 0);
  S += ",\"wall_us_total\":" + std::to_string(WallUsTotal);
  S += "}";
  return S;
}

ServeServer::ServeServer(const ServeOptions &Opts)
    : Opts(Opts), Analyzer(api::AnalyzerConfig::warm()) {
  if (!Opts.MemoDir.empty()) {
    // Adopt the prior process's closure memo before the first request, so
    // a restarted daemon is warm on near-miss workloads too. Rejection is
    // non-fatal: the snapshot is a cache, and the daemon just runs cold.
    MemoSnapshotStats MStats;
    loadMemoSnapshot(Opts.MemoDir, toolVersion(), *Analyzer.closureMemo(),
                     MStats);
    Stats.MemoAdopted = MStats.Adopted;
    Stats.MemoSnapshotRejected = MStats.Rejected;
    Stats.MemoQuarantined = MStats.Quarantined;
  }
  if (Opts.StoreDir.empty())
    return;
  DiskStoreOptions SOpts;
  SOpts.Dir = Opts.StoreDir;
  SOpts.MaxBytes = Opts.StoreMaxBytes;
  // Version-salted keys: a store written by one build never answers for
  // another whose verdict bytes may legitimately differ.
  SOpts.Namespace = toolVersion();
  Store = std::make_unique<DiskStore>(std::move(SOpts));
  if (!Store->open(StoreError))
    Store.reset();
}

const ServeStats &ServeServer::stats() {
  const api::IncrementalStats &I = Analyzer.incrementalStats();
  Stats.IncrementalRequests = I.Requests;
  Stats.IncrementalCacheHits = I.CacheHits;
  Stats.SeededRuns = I.SeededRuns;
  Stats.ColdRuns = I.ColdRuns;
  Stats.AdoptedSteps = I.AdoptedSteps;
  Stats.LiveSteps = I.LiveSteps;
  Stats.LastSeedReject = I.LastSeedRejectReason;
  Stats.MemoEntries = Analyzer.closureMemo()->size();
  // The closure counters accumulate in the process-global registry (every
  // engine run records there); mirroring them here is what lets the fleet
  // smoke test assert a warm restart did measurably less closure work.
  Stats.ClosureFullCalls = static_cast<std::uint64_t>(
      StatsRegistry::global().counter("cg.closure.full.calls"));
  Stats.ClosureMemoHits = static_cast<std::uint64_t>(
      StatsRegistry::global().counter("cg.closure.memo.hits"));
  Stats.StoreEnabled = Store != nullptr;
  if (Store) {
    const DiskStoreStats &D = Store->stats();
    Stats.DiskHits = D.Hits;
    Stats.DiskMisses = D.Misses;
    Stats.DiskWrites = D.Writes;
    Stats.DiskWriteFailures = D.WriteFailures;
    Stats.DiskReadFailures = D.ReadFailures;
    Stats.DiskQuarantined = D.Quarantined;
    Stats.DiskEvictions = D.Evictions;
    Stats.StoreEntries = Store->entryCount();
    Stats.StoreLiveBytes = Store->liveBytes();
    Stats.StoreTempsCleaned = D.TempsCleaned;
  }
  return Stats;
}

std::optional<std::string> ServeServer::cacheGet(const std::string &Key,
                                                const char *&Tier) {
  auto It = CacheMap.find(Key);
  if (It != CacheMap.end()) {
    CacheList.splice(CacheList.begin(), CacheList, It->second);
    Tier = "memory";
    return It->second->second;
  }
  if (Store) {
    if (std::optional<std::string> Payload = Store->get(Key)) {
      // Backfill the memory tier so the next repeat is a memory hit.
      cachePut(Key, *Payload, /*WriteDisk=*/false);
      Tier = "disk";
      return Payload;
    }
  }
  return std::nullopt;
}

void ServeServer::cachePut(const std::string &Key, std::string Payload,
                           bool WriteDisk) {
  if (WriteDisk && Store)
    Store->put(Key, Payload);
  if (Opts.CacheCapacity == 0)
    return;
  auto It = CacheMap.find(Key);
  if (It != CacheMap.end()) {
    It->second->second = std::move(Payload);
    CacheList.splice(CacheList.begin(), CacheList, It->second);
    return;
  }
  CacheList.emplace_front(Key, std::move(Payload));
  CacheMap[Key] = CacheList.begin();
  if (CacheMap.size() > Opts.CacheCapacity) {
    CacheMap.erase(CacheList.back().first);
    CacheList.pop_back();
    ++Stats.Evictions;
  }
}

void ServeServer::flushStore() {
  if (Store)
    Store->sync();
  maybeFlushMemo(/*Force=*/true);
}

void ServeServer::maybeFlushMemo(bool Force) {
  if (Opts.MemoDir.empty())
    return;
  if (!Force && ColdSinceMemoFlush < Opts.MemoFlushEvery)
    return;
  ColdSinceMemoFlush = 0;
  MemoSnapshotStats MStats;
  std::string Error;
  // A failed flush is logged in the counters only (the daemon keeps the
  // previous good snapshot on disk); durability here is best-effort by
  // design — the memo is a cache.
  if (saveMemoSnapshot(Opts.MemoDir, toolVersion(), *Analyzer.closureMemo(),
                       MStats, Error))
    ++Stats.MemoSnapshotSaves;
}

std::string ServeServer::handleAnalyze(const api::WireRequest &Req) {
  ++Stats.AnalyzeRequests;

  std::string Source;
  if (Req.Source) {
    Source = *Req.Source;
  } else {
    std::string Error;
    if (!readSessionFile(Req.Path, Source, Error)) {
      // Not cached: the same request may succeed once the file exists.
      api::AnalyzeResponse R;
      R.Session.ExitCode = SessionExitUsage;
      R.Session.Error = Error;
      return api::wireResponseHead(Req.IdJson) +
             ",\"ok\":true,\"cached\":false,\"result\":" +
             api::verdictJson(Req.Path, R) + "}";
    }
  }

  // The full key string is stored, so a hit is exact string equality —
  // same source bytes, same path, same effective options.
  std::string Key =
      "analyze\n" + Req.Options.fingerprint() + "\n" + Req.Path + "\n" +
      Source;
  const char *Tier = "memory";
  if (std::optional<std::string> Payload = cacheGet(Key, Tier)) {
    if (Tier[0] == 'm') // disk hits are counted by the store's own stats
      ++Stats.Hits;
    return api::wireResponseHead(Req.IdJson) + ",\"ok\":true,\"cached\":true," +
           "\"tier\":\"" + Tier + "\",\"result\":" + *Payload + "}";
  }
  ++Stats.Misses;

  api::AnalyzeRequest AReq;
  AReq.Path = Req.Path;
  AReq.Source = std::move(Source);
  AReq.Options = Req.Options;
  // Through the incremental pipeline: after this daemon-level cache
  // missed (edited source), the prior revision's engine trace seeds the
  // re-analysis. The verdict is bit-identical to a cold run either way.
  api::AnalyzeResponse R = Analyzer.analyzeIncremental(AReq);
  if (!R.Session.Outcome.complete() && !R.Session.Outcome.internalError())
    ++Stats.BudgetTrips;

  std::string Payload = api::verdictJson(Req.Path, R);
  // Internal errors are not cached either: they are recovered invariant
  // violations, not a property of the input worth replaying.
  if (!R.Session.Outcome.internalError())
    cachePut(Key, Payload);
  ++ColdSinceMemoFlush;
  maybeFlushMemo(/*Force=*/false);
  return api::wireResponseHead(Req.IdJson) +
         ",\"ok\":true,\"cached\":false,\"result\":" + Payload + "}";
}

std::string ServeServer::handleLint(const api::WireRequest &Req) {
  ++Stats.LintRequests;

  std::string Source;
  if (Req.Source) {
    Source = *Req.Source;
  } else {
    std::string Error;
    if (!readSessionFile(Req.Path, Source, Error)) {
      ++Stats.Errors;
      return api::wireError(Req.IdJson, "io-error", Error,
                            /*Retryable=*/false);
    }
  }

  std::string Key = "lint\n" + Req.Options.fingerprint() + "\n" + Req.Path +
                    "\nwerror=" + std::to_string(Req.Werror) + ";minsev=" +
                    std::to_string(static_cast<int>(Req.MinSeverity)) +
                    ";disabled=";
  for (const std::string &Pass : Req.Disabled)
    Key += Pass + ",";
  Key += "\n" + Source;
  const char *Tier = "memory";
  if (std::optional<std::string> Payload = cacheGet(Key, Tier)) {
    if (Tier[0] == 'm')
      ++Stats.Hits;
    return api::wireResponseHead(Req.IdJson) + ",\"ok\":true,\"cached\":true," +
           "\"tier\":\"" + Tier + "\",\"result\":" + *Payload + "}";
  }
  ++Stats.Misses;

  api::LintRequest LReq;
  LReq.Path = Req.Path;
  LReq.Source = std::move(Source);
  LReq.Options = Req.Options;
  LReq.Disabled = Req.Disabled;
  LReq.Werror = Req.Werror;
  LReq.MinSeverity = Req.MinSeverity;
  api::LintResponse R = Analyzer.lintIncremental(LReq);

  std::string Payload =
      "{\"diagnostics\":" + diagsJsonArray(R.Diagnostics, Req.Path) +
      ",\"exit_code\":" + std::to_string(R.ExitCode) + "}";
  if (R.ExitCode != SessionExitInternal)
    cachePut(Key, Payload);
  ++ColdSinceMemoFlush;
  maybeFlushMemo(/*Force=*/false);
  return api::wireResponseHead(Req.IdJson) +
         ",\"ok\":true,\"cached\":false,\"result\":" + Payload + "}";
}

std::string ServeServer::handleLine(const std::string &Line, bool &Shutdown) {
  std::uint64_t Start = nowUs();
  ++Stats.Requests;

  auto Fail = [&](const std::string &IdJson, const char *Code,
                  const std::string &Msg) {
    ++Stats.Errors;
    Stats.WallUsTotal += nowUs() - Start;
    return api::wireError(IdJson, Code, Msg, /*Retryable=*/false);
  };

  // The envelope — size cap, JSON shape, member types, protocol version —
  // is enforced by the shared codec, so serve, router, and client agree
  // byte-for-byte on what a malformed request is answered with.
  api::WireRequest Req;
  std::string ErrorLine;
  if (!api::parseWireRequest(Line, Opts.MaxRequestBytes, Opts.Defaults, Req,
                             ErrorLine)) {
    ++Stats.Errors;
    Stats.WallUsTotal += nowUs() - Start;
    return ErrorLine;
  }

  std::string Resp;
  if (Req.Type == "analyze") {
    if (!Req.Source && Req.Path == "<request>")
      return Fail(Req.IdJson, "invalid-request",
                  "analyze needs a path or a source");
    Resp = handleAnalyze(Req);
  } else if (Req.Type == "lint") {
    if (!Req.Source && Req.Path == "<request>")
      return Fail(Req.IdJson, "invalid-request",
                  "lint needs a path or a source");
    Resp = handleLint(Req);
  } else if (Req.Type == "stats") {
    Stats.WallUsTotal += nowUs() - Start;
    return api::wireResponseHead(Req.IdJson) + ",\"ok\":true,\"stats\":" +
           stats().json(cacheEntries(), Opts.CacheCapacity) + "}";
  } else if (Req.Type == "shutdown") {
    Shutdown = true;
    // Graceful drain: pending store writes and the memo snapshot are
    // flushed before the response goes out, so an acknowledged shutdown
    // is a durable one.
    flushStore();
    Stats.WallUsTotal += nowUs() - Start;
    return api::wireResponseHead(Req.IdJson) +
           ",\"ok\":true,\"shutting_down\":true}";
  } else if (Req.Type.empty()) {
    return Fail(Req.IdJson, "invalid-request", "request has no type");
  } else {
    return Fail(Req.IdJson, "invalid-request",
                "unknown request type '" + Req.Type + "'");
  }

  // Deliberate mid-response crash site: the request was handled but the
  // response never leaves. Clients must treat the dropped connection as
  // retryable.
  if (FaultInjector::global().armed() &&
      FaultInjector::global().shouldFail("serve-crash-response"))
    ::_exit(141);

  std::uint64_t Wall = nowUs() - Start;
  Stats.WallUsTotal += Wall;
  // wall_us rides outside the cached payload: it is per-request, while
  // "result" must stay byte-stable between a miss and its later hits.
  Resp.insert(Resp.size() - 1, ",\"wall_us\":" + std::to_string(Wall));
  return Resp;
}

void csdf::runServeLoop(ServeServer &Server, std::istream &In,
                        std::ostream &Out) {
  std::string Line;
  bool Shutdown = false;
  while (!Shutdown && std::getline(In, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    Out << Server.handleLine(Line, Shutdown) << "\n" << std::flush;
  }
}

namespace {

bool writeAllFd(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Serves one accepted socket connection with the line protocol.
/// handleLine calls are serialized through \p Mu; reads poll with a short
/// timeout so the thread notices a daemon-wide shutdown promptly.
void serveConnection(ServeServer &Server, std::mutex &Mu, int Fd,
                     std::atomic<bool> &Shutdown, const ServeOptions &Opts) {
  timeval Tv{0, 200000};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));

  std::string Buf;
  char Chunk[4096];
  while (!Shutdown.load()) {
    size_t Nl = Buf.find('\n');
    if (Nl == std::string::npos) {
      // A runaway line (no newline past the cap) is answered and the
      // connection dropped — the daemon never buffers without bound.
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
        return; // client EOF
      if (N < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          continue; // timeout: re-check Shutdown
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
    std::string Resp;
    bool WantShutdown = false;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Resp = Server.handleLine(Line, WantShutdown);
    }
    bool Wrote = writeAllFd(Fd, Resp + "\n");
    if (WantShutdown) {
      Shutdown.store(true);
      return;
    }
    if (!Wrote)
      return;
  }
}

/// A shed connection that has its `overloaded` line and a half-closed
/// write side, waiting for the client to finish with it.
struct ShedPeer {
  int Fd;
  std::chrono::steady_clock::time_point Deadline;
};

/// How long the accept loop keeps draining a shed connection's unread
/// request before it closes the connection anyway.
constexpr std::chrono::milliseconds ShedDrainTime{100};

/// At most this many shed connections are held open for draining; past
/// it the oldest is closed at once, so a flood cannot exhaust descriptors.
constexpr std::size_t MaxShedPeers = 256;

/// Answers an unadmitted connection with a retryable `overloaded` line and
/// half-closes its write side; it returns at once and never reads. Closing
/// a Unix socket whose receive queue still holds the client's unread
/// request raises ECONNRESET at the client, which can then lose the
/// buffered response line. So the accept loop keeps the connection open
/// and drains the request (drainShed) until the client closes or
/// ShedDrainTime passes, alongside accepting — an idle shed client delays
/// nobody.
void shedConnection(int Conn) {
  writeAllFd(Conn, overloadedResponse(/*RetryAfterMs=*/50) + "\n");
  ::shutdown(Conn, SHUT_WR);
}

/// Reads what a readable shed connection holds without blocking. True once
/// the connection is finished with: EOF (the client closed) or an error.
bool drainShed(int Conn) {
  char Buf[4096];
  ssize_t N = ::recv(Conn, Buf, sizeof(Buf), MSG_DONTWAIT);
  if (N < 0)
    return errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK;
  return N == 0;
}

} // namespace

int csdf::runServe(const ServeOptions &Opts) {
  ServeServer Server(Opts);
  if (!Server.storeError().empty()) {
    std::fprintf(stderr, "csdf: error: %s\n", Server.storeError().c_str());
    return 2;
  }
  if (Opts.SocketPath.empty()) {
    runServeLoop(Server, std::cin, std::cout);
    Server.flushStore();
    return 0;
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

  // Each connection gets its own thread; request handling is serialized
  // through Mu (one warm analyzer). The admission gate sheds connections
  // beyond MaxInflight + QueueDepth with a structured `overloaded`
  // response instead of queueing unboundedly.
  std::atomic<bool> Shutdown{false};
  std::atomic<unsigned> Inflight{0};
  std::mutex Mu;
  std::vector<std::thread> Threads;
  const unsigned AdmitLimit = Opts.MaxInflight + Opts.QueueDepth;

  // Shed connections being drained share the accept loop's poll: Polled[0]
  // is the listening socket, Polled[1 + K] is Shed[K].
  using Clock = std::chrono::steady_clock;
  std::vector<ShedPeer> Shed;
  std::vector<pollfd> Polled;

  while (!Shutdown.load()) {
    int TimeoutMs = 200; // re-check Shutdown at least this often
    Polled.assign(1, pollfd{Fd, POLLIN, 0});
    const Clock::time_point Now = Clock::now();
    for (const ShedPeer &S : Shed) {
      Polled.push_back(pollfd{S.Fd, POLLIN, 0});
      auto Left = std::chrono::ceil<std::chrono::milliseconds>(S.Deadline -
                                                               Now)
                      .count();
      TimeoutMs = static_cast<int>(
          std::clamp<decltype(Left)>(Left, 0, TimeoutMs));
    }
    int R = ::poll(Polled.data(), Polled.size(), TimeoutMs);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    // Close the shed connections whose clients are done or out of time.
    const Clock::time_point After = Clock::now();
    std::size_t Kept = 0;
    for (std::size_t K = 0; K < Shed.size(); ++K) {
      bool Done = Shed[K].Deadline <= After ||
                  (Polled[1 + K].revents != 0 && drainShed(Shed[K].Fd));
      if (Done)
        ::close(Shed[K].Fd);
      else
        Shed[Kept++] = Shed[K];
    }
    Shed.resize(Kept);
    if (Polled[0].revents == 0)
      continue;
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Inflight.load() >= AdmitLimit) {
      shedConnection(Conn);
      if (Shed.size() >= MaxShedPeers) {
        ::close(Shed.front().Fd);
        Shed.erase(Shed.begin());
      }
      Shed.push_back(ShedPeer{Conn, Clock::now() + ShedDrainTime});
      std::lock_guard<std::mutex> Lock(Mu);
      Server.countShed();
      continue;
    }
    ++Inflight;
    Threads.emplace_back([&Server, &Mu, &Shutdown, &Inflight, &Opts,
                          Conn]() {
      serveConnection(Server, Mu, Conn, Shutdown, Opts);
      ::close(Conn);
      --Inflight;
    });
  }
  // Drain: every admitted connection finishes its in-flight request and
  // gets its response before the process exits.
  for (std::thread &T : Threads)
    T.join();
  for (const ShedPeer &S : Shed)
    ::close(S.Fd);
  ::close(Fd);
  ::unlink(Opts.SocketPath.c_str());
  Server.flushStore();
  return 0;
}
