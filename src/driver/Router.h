//===- driver/Router.h - Consistent-hash fleet front end ------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `csdf router` turns N independent serve daemons into one fleet behind
/// one unix socket. It speaks the same wire protocol as the shards
/// (api/Wire.h) and owns exactly the three concerns a shard cannot:
///
///  - **Placement.** Each request's wireRoutingKey (type, canonical
///    option fingerprint, path, source bytes) is hashed onto a
///    consistent-hash ring (support/HashRing.h) over the backend socket
///    paths, so an exact repeat always lands on the shard that already
///    cached it, and adding or removing one shard remaps only ~1/N of the
///    key space — the rest of the fleet's warm caches survive a resize.
///
///  - **Failover.** The request line is forwarded to the owner shard
///    *byte-verbatim* (the shard computes the same cache key a direct
///    request would). On a transport failure or an `overloaded` answer
///    the router walks the key's ring successors; a shard kill -9 costs
///    the client nothing but latency. Only when every backend has refused
///    does the client see an error — a structured, *retryable*
///    "unavailable", because the fleet may be restarting.
///
///  - **Tenant admission.** Requests carry a `tenant` name; the router
///    grants each tenant at most TenantMaxInflight concurrently forwarded
///    requests plus TenantQueueDepth waiters. A tenant past both gets a
///    structured `overloaded` shed while other tenants proceed — one
///    noisy CI fleet cannot starve interactive editors.
///
/// Forwarded responses gain a `"shard":"<backend socket>"` member so
/// clients (and the fleet smoke test) can see which shard answered.
/// `stats` and `shutdown` are answered by the router itself; shards keep
/// their own lifecycles.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_DRIVER_ROUTER_H
#define CSDF_DRIVER_ROUTER_H

#include "api/Wire.h"
#include "support/HashRing.h"

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace csdf {

struct RouterOptions {
  /// Backend shard sockets (unix paths); at least one is required.
  std::vector<std::string> Backends;

  /// The router's own listening socket (required).
  std::string SocketPath;

  /// Virtual nodes per backend on the consistent-hash ring.
  unsigned Replicas = 64;

  /// Per-tenant admission: concurrently forwarded requests, then
  /// waiters; past both the tenant is shed with `overloaded`.
  unsigned TenantMaxInflight = 4;
  unsigned TenantQueueDepth = 8;

  /// Health-probe period (a probe is one connect; a shard that refuses
  /// is routed around until it accepts again). 0 disables probing.
  unsigned HealthIntervalMs = 200;

  /// Envelope size cap, mirrored from the shards' contract.
  std::size_t MaxRequestBytes = 8ull << 20;

  /// The retry_after_ms hint stamped into shed/unavailable responses.
  unsigned RetryAfterMs = 50;
};

/// Router lifetime counters (reported by its own "stats" answer).
struct RouterStats {
  std::uint64_t Requests = 0;
  /// Requests answered by a shard (possibly after failover).
  std::uint64_t Forwarded = 0;
  /// Requests answered by a shard other than their ring primary (the
  /// primary was dead, overloaded, or demoted by the health probe).
  std::uint64_t Failovers = 0;
  /// Requests shed by per-tenant admission control.
  std::uint64_t TenantSheds = 0;
  /// Requests answered "unavailable" because every backend refused.
  std::uint64_t Unavailable = 0;
  /// Malformed or rejected request lines.
  std::uint64_t Errors = 0;

  /// Stable JSON object (sorted keys, no trailing newline).
  std::string json(std::size_t Backends, std::size_t Healthy) const;
};

/// The router's request processor, transport-agnostic like ServeServer —
/// but unlike it, handleLine is fully thread-safe: concurrent forwarding
/// is the whole point of a fleet, so connection threads call straight in.
class RouterServer {
public:
  explicit RouterServer(const RouterOptions &Opts);

  /// Handles one request line and returns the response line (no trailing
  /// newline). Never throws. Sets \p Shutdown on a shutdown request.
  std::string handleLine(const std::string &Line, bool &Shutdown);

  /// Marks one backend (un)healthy; the probe thread calls this, and
  /// forwarding demotes a backend itself when a connect fails.
  void setHealthy(const std::string &Backend, bool Healthy);
  std::size_t healthyCount() const;

  /// Snapshot of the counters (thread-safe copy).
  RouterStats statsSnapshot() const;

  /// Wakes every admission waiter (shutdown path).
  void releaseWaiters();

private:
  /// Blocks until \p Tenant has an inflight slot, or sheds. True =
  /// admitted (caller must call admitRelease).
  bool admitAcquire(const std::string &Tenant);
  void admitRelease(const std::string &Tenant);

  /// The candidate shards for \p Key: ring successors, healthy first
  /// (unhealthy ones are kept as a last resort — a probe may be stale).
  std::vector<std::string> candidates(const std::string &Key) const;

  RouterOptions Opts;
  HashRing Ring;

  mutable std::mutex HealthMu;
  std::map<std::string, bool> Healthy;

  mutable std::mutex StatsMu;
  RouterStats Stats;

  struct TenantState {
    unsigned Active = 0;
    unsigned Waiting = 0;
  };
  std::mutex AdmitMu;
  std::condition_variable AdmitCv;
  std::map<std::string, TenantState> Tenants;
  bool Draining = false;
};

/// Runs the router per \p Opts: AF_UNIX listener, one thread per
/// connection (forwarding runs concurrently), plus a health-probe thread.
/// Returns a process exit code (0 on clean shutdown, 2 on setup failure).
int runRouter(const RouterOptions &Opts);

} // namespace csdf

#endif // CSDF_DRIVER_ROUTER_H
