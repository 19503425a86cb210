//===- tests/driver/RouterTest.cpp ----------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// RouterServer against stub unix-socket shards: deterministic placement,
// verbatim forwarding with the shard member appended, failover past dead
// and overloaded shards, the retryable "unavailable" terminal error,
// per-tenant admission shedding, and locally answered stats/shutdown.
//
//===----------------------------------------------------------------------===//

#include "driver/Router.h"

#include "support/Json.h"
#include "support/Socket.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace csdf;

namespace {

/// A stub shard: accepts connections on a unix socket and answers each
/// request line per its mode, recording every line it received. Stands in
/// for a serve daemon so the router's placement/failover logic is tested
/// without booting real analyzers.
class StubShard {
public:
  enum class Mode {
    Ok,         ///< well-formed success response
    Overloaded, ///< structured retryable shed
    Drop,       ///< read the line, close without answering (transport
                ///< failure from the router's side)
  };

  StubShard(std::string Path, Mode M, unsigned DelayMs = 0)
      : Path(std::move(Path)), M(M), DelayMs(DelayMs) {}

  ~StubShard() { stop(); }

  bool start() {
    std::string Error;
    ListenFd = listenUnix(Path, Error);
    if (ListenFd < 0)
      return false;
    Running.store(true);
    Acceptor = std::thread([this] { acceptLoop(); });
    return true;
  }

  void stop() {
    if (!Running.exchange(false))
      return;
    if (Acceptor.joinable())
      Acceptor.join();
    if (ListenFd >= 0)
      ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Path.c_str());
  }

  std::vector<std::string> received() const {
    std::lock_guard<std::mutex> L(Mu);
    return Received;
  }

  const std::string Path;

private:
  void acceptLoop() {
    while (Running.load()) {
      pollfd P{ListenFd, POLLIN, 0};
      int R = ::poll(&P, 1, 50);
      if (R <= 0)
        continue;
      int Conn = ::accept(ListenFd, nullptr, nullptr);
      if (Conn < 0)
        continue;
      serveOne(Conn);
      ::close(Conn);
    }
  }

  void serveOne(int Fd) {
    std::string Line;
    if (!readLine(Fd, Line))
      return; // probe connect (no bytes) or peer gave up
    {
      std::lock_guard<std::mutex> L(Mu);
      Received.push_back(Line);
    }
    if (DelayMs)
      std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    std::string Resp;
    switch (M) {
    case Mode::Ok:
      Resp = "{\"id\":1,\"proto\":1,\"tool_version\":\"test\",\"ok\":true,"
             "\"result\":{\"verdict\":\"no-mismatch\"},\"wall_us\":7}";
      break;
    case Mode::Overloaded:
      Resp = api::wireOverloaded(25);
      break;
    case Mode::Drop:
      return;
    }
    sendAll(Fd, Resp + "\n");
  }

  const Mode M;
  const unsigned DelayMs;
  int ListenFd = -1;
  std::atomic<bool> Running{false};
  std::thread Acceptor;
  mutable std::mutex Mu;
  std::vector<std::string> Received;
};

std::string shardPath(const char *Tag) {
  return "/tmp/csdf-rt-" + std::to_string(::getpid()) + "-" + Tag +
         ".sock";
}

/// A request line whose routing key the ring maps to \p WantOwner (found
/// by varying the source), so tests can aim requests at a chosen shard.
std::string requestOwnedBy(const RouterOptions &Opts,
                           const std::string &WantOwner,
                           const std::string &Tenant = "") {
  HashRing Ring(Opts.Replicas);
  for (const std::string &B : Opts.Backends)
    Ring.addNode(B);
  for (int I = 0;; ++I) {
    api::WireRequest Req;
    Req.IdJson = "1";
    Req.Type = "analyze";
    Req.Path = "t.mpl";
    Req.Source = "proc p in 0..np-1 { } # v" + std::to_string(I);
    Req.Tenant = Tenant;
    if (Ring.owner(api::wireRoutingKey(Req)) == WantOwner)
      return api::wireRequestJson(Req, /*IncludeOptions=*/false);
  }
}

JsonValue parsed(const std::string &Line) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson(Line, V, Error)) << Line;
  return V;
}

RouterOptions optionsFor(const std::vector<std::string> &Backends) {
  RouterOptions Opts;
  Opts.Backends = Backends;
  Opts.SocketPath = shardPath("router"); // unused: handleLine is direct
  Opts.HealthIntervalMs = 0;
  return Opts;
}

TEST(RouterTest, ForwardsVerbatimAndAppendsShard) {
  StubShard Shard(shardPath("fwd"), StubShard::Mode::Ok);
  ASSERT_TRUE(Shard.start());
  RouterOptions Opts = optionsFor({Shard.Path});
  RouterServer Router(Opts);

  std::string Line = requestOwnedBy(Opts, Shard.Path);
  bool Shutdown = false;
  std::string Resp = Router.handleLine(Line, Shutdown);
  EXPECT_FALSE(Shutdown);

  // The shard saw the exact request bytes — placement adds routing, never
  // a second spelling of the request.
  std::vector<std::string> Got = Shard.received();
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0], Line);

  JsonValue V = parsed(Resp);
  EXPECT_TRUE(V.get("ok")->asBool());
  ASSERT_NE(V.get("shard"), nullptr);
  EXPECT_EQ(V.get("shard")->asString(), Shard.Path);
  // The shard's own members survive the append untouched.
  EXPECT_EQ(V.get("wall_us")->asInt(), 7);

  RouterStats Stats = Router.statsSnapshot();
  EXPECT_EQ(Stats.Requests, 1u);
  EXPECT_EQ(Stats.Forwarded, 1u);
  EXPECT_EQ(Stats.Failovers, 0u);
}

TEST(RouterTest, PlacementIsDeterministicAcrossRepeats) {
  StubShard A(shardPath("da"), StubShard::Mode::Ok);
  StubShard B(shardPath("db"), StubShard::Mode::Ok);
  StubShard C(shardPath("dc"), StubShard::Mode::Ok);
  ASSERT_TRUE(A.start() && B.start() && C.start());
  RouterOptions Opts = optionsFor({A.Path, B.Path, C.Path});
  RouterServer Router(Opts);

  std::string Line = requestOwnedBy(Opts, B.Path);
  bool Shutdown = false;
  for (int I = 0; I < 5; ++I) {
    JsonValue V = parsed(Router.handleLine(Line, Shutdown));
    EXPECT_EQ(V.get("shard")->asString(), B.Path);
  }
  // Every repeat hit the same shard: the one whose cache is warm.
  EXPECT_EQ(B.received().size(), 5u);
  EXPECT_TRUE(A.received().empty());
  EXPECT_TRUE(C.received().empty());
}

TEST(RouterTest, FailsOverPastADeadShard) {
  StubShard Alive(shardPath("fa"), StubShard::Mode::Ok);
  ASSERT_TRUE(Alive.start());
  std::string DeadPath = shardPath("fdead"); // no listener: kill -9'd
  RouterOptions Opts = optionsFor({Alive.Path, DeadPath});
  RouterServer Router(Opts);

  std::string Line = requestOwnedBy(Opts, DeadPath);
  bool Shutdown = false;
  JsonValue V = parsed(Router.handleLine(Line, Shutdown));

  EXPECT_TRUE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("shard")->asString(), Alive.Path);
  RouterStats Stats = Router.statsSnapshot();
  EXPECT_EQ(Stats.Forwarded, 1u);
  EXPECT_EQ(Stats.Failovers, 1u);
  // The dead shard was demoted on the failed connect, so the next request
  // owned by it goes straight to the successor — no repeat connect cost.
  EXPECT_EQ(Router.healthyCount(), 1u);
}

TEST(RouterTest, FailsOverPastAConnectionDrop) {
  StubShard Dropper(shardPath("ga"), StubShard::Mode::Drop);
  StubShard Alive(shardPath("gb"), StubShard::Mode::Ok);
  ASSERT_TRUE(Dropper.start() && Alive.start());
  RouterOptions Opts = optionsFor({Dropper.Path, Alive.Path});
  RouterServer Router(Opts);

  std::string Line = requestOwnedBy(Opts, Dropper.Path);
  bool Shutdown = false;
  JsonValue V = parsed(Router.handleLine(Line, Shutdown));
  EXPECT_TRUE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("shard")->asString(), Alive.Path);
  EXPECT_EQ(Router.statsSnapshot().Failovers, 1u);
}

TEST(RouterTest, FailsOverPastAnOverloadedShard) {
  StubShard Shedding(shardPath("oa"), StubShard::Mode::Overloaded);
  StubShard Alive(shardPath("ob"), StubShard::Mode::Ok);
  ASSERT_TRUE(Shedding.start() && Alive.start());
  RouterOptions Opts = optionsFor({Shedding.Path, Alive.Path});
  RouterServer Router(Opts);

  std::string Line = requestOwnedBy(Opts, Shedding.Path);
  bool Shutdown = false;
  JsonValue V = parsed(Router.handleLine(Line, Shutdown));

  // The client never saw the shed: the successor had capacity.
  EXPECT_TRUE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("shard")->asString(), Alive.Path);
  EXPECT_EQ(Shedding.received().size(), 1u);
  EXPECT_EQ(Router.statsSnapshot().Failovers, 1u);
  // An overload is load, not death: the shard stays routable.
  EXPECT_EQ(Router.healthyCount(), 2u);
}

TEST(RouterTest, ProbeDemotedPrimaryStillCountsAsFailover) {
  // The health probe demotes the primary before any request reaches it,
  // so no forward ever fails; the reroute to the successor is still a
  // failover.
  StubShard Primary(shardPath("pa"), StubShard::Mode::Ok);
  StubShard Successor(shardPath("pb"), StubShard::Mode::Ok);
  ASSERT_TRUE(Primary.start() && Successor.start());
  RouterOptions Opts = optionsFor({Primary.Path, Successor.Path});
  RouterServer Router(Opts);
  Router.setHealthy(Primary.Path, false); // what a failed probe does

  std::string Line = requestOwnedBy(Opts, Primary.Path);
  bool Shutdown = false;
  JsonValue V = parsed(Router.handleLine(Line, Shutdown));

  EXPECT_TRUE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("shard")->asString(), Successor.Path);
  EXPECT_TRUE(Primary.received().empty());
  RouterStats Stats = Router.statsSnapshot();
  EXPECT_EQ(Stats.Forwarded, 1u);
  EXPECT_EQ(Stats.Failovers, 1u);

  // A request the successor owns is no failover.
  JsonValue Own =
      parsed(Router.handleLine(requestOwnedBy(Opts, Successor.Path), Shutdown));
  EXPECT_EQ(Own.get("shard")->asString(), Successor.Path);
  EXPECT_EQ(Router.statsSnapshot().Failovers, 1u);
}

TEST(RouterTest, AllShardsDownIsRetryableUnavailable) {
  RouterOptions Opts =
      optionsFor({shardPath("na"), shardPath("nb")}); // no listeners
  RouterServer Router(Opts);

  std::string Line = requestOwnedBy(Opts, Opts.Backends[0]);
  bool Shutdown = false;
  JsonValue V = parsed(Router.handleLine(Line, Shutdown));

  EXPECT_FALSE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("code")->asString(), "unavailable");
  // Retryable with a hint: the fleet may just be restarting.
  EXPECT_TRUE(V.get("retryable")->asBool());
  EXPECT_GT(V.get("retry_after_ms")->asInt(), 0);
  EXPECT_EQ(V.get("id")->asInt(), 1); // id echoed even on total failure
  EXPECT_EQ(Router.statsSnapshot().Unavailable, 1u);
}

TEST(RouterTest, TenantOverQuotaIsShedWhileOthersProceed) {
  StubShard Slow(shardPath("ta"), StubShard::Mode::Ok, /*DelayMs=*/400);
  ASSERT_TRUE(Slow.start());
  RouterOptions Opts = optionsFor({Slow.Path});
  Opts.TenantMaxInflight = 1;
  Opts.TenantQueueDepth = 0;
  RouterServer Router(Opts);

  std::string Noisy = requestOwnedBy(Opts, Slow.Path, "ci");

  // Occupy tenant ci's only slot with a slow request...
  std::thread First([&Router, &Noisy] {
    bool Shutdown = false;
    JsonValue V = parsed(Router.handleLine(Noisy, Shutdown));
    EXPECT_TRUE(V.get("ok")->asBool());
  });
  // ...give it time to be admitted and block in the stub...
  while (Slow.received().empty())
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // ...then the same tenant is shed with a structured overload naming it,
  bool Shutdown = false;
  JsonValue Shed = parsed(Router.handleLine(Noisy, Shutdown));
  EXPECT_FALSE(Shed.get("ok")->asBool());
  EXPECT_EQ(Shed.get("code")->asString(), "overloaded");
  EXPECT_TRUE(Shed.get("retryable")->asBool());
  EXPECT_NE(Shed.get("error")->asString().find("'ci'"), std::string::npos);

  // ...while a different tenant's identical work proceeds (it waits only
  // on the stub, which serves connections sequentially).
  std::string Quiet = requestOwnedBy(Opts, Slow.Path, "editor");
  JsonValue Ok = parsed(Router.handleLine(Quiet, Shutdown));
  EXPECT_TRUE(Ok.get("ok")->asBool());

  First.join();
  EXPECT_EQ(Router.statsSnapshot().TenantSheds, 1u);
}

TEST(RouterTest, StatsAnsweredLocally) {
  RouterOptions Opts = optionsFor({shardPath("sa"), shardPath("sb")});
  RouterServer Router(Opts);
  Router.setHealthy(Opts.Backends[1], false);

  bool Shutdown = false;
  JsonValue V =
      parsed(Router.handleLine("{\"id\":3,\"type\":\"stats\"}", Shutdown));
  EXPECT_FALSE(Shutdown);
  EXPECT_TRUE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("id")->asInt(), 3);
  const JsonValue *Stats = V.get("stats");
  ASSERT_NE(Stats, nullptr);
  EXPECT_EQ(Stats->get("backends")->asInt(), 2);
  EXPECT_EQ(Stats->get("backends_healthy")->asInt(), 1);
  EXPECT_EQ(Stats->get("proto")->asInt(), api::WireProtoVersion);
}

TEST(RouterTest, ShutdownAnsweredLocally) {
  RouterOptions Opts = optionsFor({shardPath("za")});
  RouterServer Router(Opts);
  bool Shutdown = false;
  JsonValue V =
      parsed(Router.handleLine("{\"type\":\"shutdown\"}", Shutdown));
  EXPECT_TRUE(Shutdown);
  EXPECT_TRUE(V.get("ok")->asBool());
  EXPECT_TRUE(V.get("shutting_down")->asBool());
}

TEST(RouterTest, RejectsGarbageAndUnknownTypesLikeAShard) {
  RouterOptions Opts = optionsFor({shardPath("ea")});
  RouterServer Router(Opts);
  bool Shutdown = false;

  JsonValue Garbage = parsed(Router.handleLine("not json", Shutdown));
  EXPECT_EQ(Garbage.get("code")->asString(), "parse-error");
  EXPECT_FALSE(Garbage.get("retryable")->asBool());

  JsonValue Unknown = parsed(
      Router.handleLine("{\"type\":\"frobnicate\"}", Shutdown));
  EXPECT_EQ(Unknown.get("code")->asString(), "invalid-request");

  JsonValue Mismatch = parsed(
      Router.handleLine("{\"proto\":9,\"type\":\"analyze\"}", Shutdown));
  EXPECT_EQ(Mismatch.get("code")->asString(), "proto-mismatch");

  EXPECT_EQ(Router.statsSnapshot().Errors, 3u);
}

} // namespace
