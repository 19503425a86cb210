#!/usr/bin/env python3
"""Fleet smoke: three shards behind the consistent-hash router (real
binaries, real unix sockets).

Phases:
  1. Golden run: one plain daemon analyzes the corpus; its normalized
     results are the byte-identity reference for everything the fleet
     answers.
  2. Fleet run: 3 shards (each with --memo-dir) + router. The corpus goes
     through the router; every answer must be byte-identical to the
     golden run, carry a "shard" member, and spread over >1 shard.
  3. kill -9 one shard mid-run, replay the whole corpus through the
     router: zero non-retryable client-visible errors (failover absorbs
     the loss), results still byte-identical.
  4. Restart the killed shard on its memo dir: it must adopt a nonzero
     snapshot, and replaying the corpus against it directly must cost
     fewer full closure calls than the same corpus against a cold shard.
  5. `csdf client` end to end through the router (--tenant, --verbose
     narrating the answering shard).
  6. A client that leaves before the router's reply does not kill the
     router, and 200 sequential connections leave its mappings flat
     (finished connection threads are reaped).

Usage: fleet_smoke.py <csdf-binary> [stats-dir]

With a stats-dir, the final router and per-shard stats are dumped there
as JSON (the CI job uploads them as artifacts).
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from csdf_serve_util import (
    check_abandoned_request,
    check_threads_reaped,
    fail,
    get_stats,
    log,
    normalize_wall,
    program,
    raw_result,
    request_json,
    shutdown_daemon,
    start_daemon,
)

N = 24  # corpus size; distinct cache keys spread over the ring


def start_router(csdf, sock_path, backends):
    proc = subprocess.Popen(
        [csdf, "router", "--socket", sock_path, "--health-interval-ms", "50"]
        + [arg for b in backends for arg in ("--backend", b)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.time() + 10.0
    while time.time() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            fail("router exited rc=%d before accepting: %s %s"
                 % (proc.returncode, out.decode(), err.decode()))
        import socket as socketmod
        try:
            with socketmod.socket(socketmod.AF_UNIX,
                                  socketmod.SOCK_STREAM) as s:
                s.connect(sock_path)
            return proc
        except OSError:
            time.sleep(0.02)
    proc.kill()
    fail("router socket %s never came up" % sock_path)


def fleet_request(sock, i, nonretryable):
    """One corpus request through the router, honoring retryable errors.
    Any non-retryable error is the failure the fleet contract forbids."""
    obj = {"id": i, "type": "analyze", "path": "p%d.mpl" % i,
           "source": program(i), "tenant": "smoke",
           "options": {"fixed_np": 4 + (i % 8)}}
    for _ in range(10):
        raw, resp = request_json(sock, obj)
        if resp is None:
            time.sleep(0.05)
            continue
        if resp.get("ok"):
            return raw, resp
        if not resp.get("retryable"):
            nonretryable.append(raw)
            return raw, resp
        time.sleep((resp.get("retry_after_ms") or 50) / 1000.0)
    fail("request %d never succeeded through the router" % i)


def run_corpus_direct(sock):
    """The corpus straight at one shard (no router)."""
    for i in range(N):
        raw, resp = request_json(
            sock,
            {"id": i, "type": "analyze", "path": "p%d.mpl" % i,
             "source": program(i),
             "options": {"fixed_np": 4 + (i % 8)}},
        )
        if resp is None or not resp.get("ok"):
            fail("direct request %d failed: %r" % (i, raw))


def dump_stats(stats_dir, name, stats):
    if not stats_dir:
        return
    os.makedirs(stats_dir, exist_ok=True)
    with open(os.path.join(stats_dir, name + ".json"), "w") as f:
        json.dump(stats, f, indent=2, sort_keys=True)


def main():
    csdf = sys.argv[1]
    stats_dir = sys.argv[2] if len(sys.argv) > 2 else None
    work = tempfile.mkdtemp(prefix="csdf-fleet-")
    try:
        run(csdf, work, stats_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log("PASS: fleet smoke")


def run(csdf, work, stats_dir=None):
    # --- Phase 1: golden single-daemon results. ----------------------------
    solo_sock = os.path.join(work, "solo.sock")
    solo = start_daemon(csdf, solo_sock)
    golden = {}
    for i in range(N):
        raw, resp = request_json(
            solo_sock,
            {"id": i, "type": "analyze", "path": "p%d.mpl" % i,
             "source": program(i),
             "options": {"fixed_np": 4 + (i % 8)}},
        )
        if resp is None or not resp.get("ok"):
            fail("golden request %d failed: %r" % (i, raw))
        golden[i] = normalize_wall(raw_result(raw))
    shutdown_daemon(solo, solo_sock)
    log("phase 1: %d golden results from a single daemon" % N)

    # --- Phase 2: the fleet answers byte-identically. ----------------------
    shard_socks = [os.path.join(work, "shard%d.sock" % s) for s in range(3)]
    memo_dirs = [os.path.join(work, "memo%d" % s) for s in range(3)]
    shards = [
        start_daemon(csdf, shard_socks[s],
                     ["--memo-dir", memo_dirs[s], "--memo-flush-every", "1"])
        for s in range(3)
    ]
    router_sock = os.path.join(work, "router.sock")
    router = start_router(csdf, router_sock, shard_socks)

    nonretryable = []
    answered_by = {}
    for i in range(N):
        raw, resp = fleet_request(router_sock, i, nonretryable)
        if normalize_wall(raw_result(raw)) != golden[i]:
            fail("request %d differs from the single-daemon result" % i)
        shard = resp.get("shard")
        if not shard:
            fail("response %d lacks the shard member: %r" % (i, raw))
        answered_by[i] = shard
    if nonretryable:
        fail("non-retryable errors on a healthy fleet: %r" % nonretryable[0])
    used = set(answered_by.values())
    if len(used) < 2:
        fail("corpus landed on %d shard(s); ring is not spreading" % len(used))
    log("phase 2: %d results byte-identical, spread over %d shards"
        % (N, len(used)))

    # --- Phase 3: kill -9 the busiest shard, replay everything. ------------
    counts = {s: 0 for s in shard_socks}
    for s in answered_by.values():
        counts[s] += 1
    victim_sock = max(counts, key=counts.get)
    victim_idx = shard_socks.index(victim_sock)
    shards[victim_idx].send_signal(signal.SIGKILL)
    shards[victim_idx].wait(timeout=10)
    log("phase 3: killed shard %d (answered %d/%d requests)"
        % (victim_idx, counts[victim_sock], N))

    for i in range(N):
        raw, resp = fleet_request(router_sock, i, nonretryable)
        if normalize_wall(raw_result(raw)) != golden[i]:
            fail("request %d differs after the shard kill" % i)
        if resp.get("shard") == victim_sock:
            fail("request %d claims the dead shard answered it" % i)
    if nonretryable:
        fail("kill -9 leaked a non-retryable error: %r" % nonretryable[0])

    raw, resp = request_json(router_sock, {"type": "stats"})
    rstats = resp["stats"]
    if rstats["failovers"] < 1:
        fail("router reports no failovers after a shard kill: %r" % rstats)
    log("phase 3: replay clean (0 non-retryable), %d failovers"
        % rstats["failovers"])

    # --- Phase 4: the restarted shard is warm from its memo snapshot. ------
    shards[victim_idx] = start_daemon(
        csdf, victim_sock,
        ["--memo-dir", memo_dirs[victim_idx], "--memo-flush-every", "1"])
    warm_stats = get_stats(victim_sock)
    if warm_stats["memo_adopted"] < 1:
        fail("restarted shard adopted no memo entries: %r" % warm_stats)
    run_corpus_direct(victim_sock)
    warm_after = get_stats(victim_sock)
    warm_closures = (warm_after["closure_full_calls"]
                     - warm_stats["closure_full_calls"])

    cold_sock = os.path.join(work, "cold.sock")
    cold = start_daemon(csdf, cold_sock)
    cold_before = get_stats(cold_sock)
    run_corpus_direct(cold_sock)
    cold_after = get_stats(cold_sock)
    cold_closures = (cold_after["closure_full_calls"]
                     - cold_before["closure_full_calls"])
    shutdown_daemon(cold, cold_sock)

    if cold_closures < 1:
        fail("corpus triggered no full closures; the comparison is vacuous")
    if warm_closures >= cold_closures:
        fail("adopted memo saved nothing: warm %d vs cold %d full closures"
             % (warm_closures, cold_closures))
    log("phase 4: adopted %d entries; %d full closures warm vs %d cold"
        % (warm_stats["memo_adopted"], warm_closures, cold_closures))

    # --- Phase 5: csdf client through the router. --------------------------
    mpl = os.path.join(work, "client.mpl")
    with open(mpl, "w") as f:
        f.write(program(0))
    cp = subprocess.run(
        [csdf, "client", "analyze", mpl, "--socket", router_sock,
         "--send-source", "--tenant", "smoke", "--verbose"],
        capture_output=True, timeout=60)
    if cp.returncode not in (0, 1):
        fail("csdf client rc=%d through the router: %s"
             % (cp.returncode, cp.stderr.decode()))
    if "shard" not in cp.stderr.decode():
        fail("client --verbose did not narrate the answering shard: %r"
             % cp.stderr.decode())
    log("phase 5: csdf client rc=%d via router, shard narrated"
        % cp.returncode)

    # --- Phase 6: clients that leave, and connection-thread reaping. -------
    check_abandoned_request(router, router_sock, "csdf router",
                            {"tenant": "smoke"})
    check_threads_reaped(router, router_sock, "csdf router")

    # --- Final stats (CI artifacts), then clean shutdown. ------------------
    raw, resp = request_json(router_sock, {"type": "stats"})
    dump_stats(stats_dir, "router", resp["stats"])
    for s in range(3):
        dump_stats(stats_dir, "shard%d" % s, get_stats(shard_socks[s]))
    shutdown_daemon(router, router_sock)
    for s, proc in enumerate(shards):
        shutdown_daemon(proc, shard_socks[s])


if __name__ == "__main__":
    main()
