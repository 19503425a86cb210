#!/usr/bin/env python3
"""Overload shedding + client retry smoke (real binary).

1. Saturate a daemon's admission gate (--max-inflight + --queue-depth)
   with idle connections; the next connection must be shed immediately
   with a structured, retryable `overloaded` error.
2. Run `csdf client` against the saturated daemon while the idle
   connections drain shortly after: the client's capped-backoff retry
   must recover and exit 0.
3. Shed clients that stay connected without sending anything do not
   hold up the daemon: each gets its `overloaded` line at once, and a
   request admitted right behind them is answered promptly.
4. `csdf client` retry also recovers from a daemon that comes up late
   (connect refused is retryable).
5. A client that sends a request and leaves before the reply does not
   kill the daemon, and finished connection threads are reaped: 200
   sequential connections leave the daemon's mappings flat.

Usage: serve_overload.py <csdf-binary>
"""

import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from csdf_serve_util import (
    check_abandoned_request,
    check_threads_reaped,
    fail,
    get_stats,
    log,
    program,
    request_json,
    shutdown_daemon,
    start_daemon,
)

MAX_INFLIGHT = 2
QUEUE_DEPTH = 2
# Silent shed clients opened at once. The daemon may keep draining each
# for 100 ms; drained one after another on the accept loop, the last of
# them would get its line, and the next request be admitted, only after
# LINGERING * 0.1 s = 4 s, far past LINGER_BUDGET_S.
LINGERING = 40
LINGER_BUDGET_S = 2.0


def main():
    csdf = sys.argv[1]
    work = tempfile.mkdtemp(prefix="csdf-overload-")
    sock = os.path.join(work, "serve.sock")
    mpl = os.path.join(work, "probe.mpl")
    with open(mpl, "w") as f:
        f.write(program(0))
    try:
        run(csdf, sock, mpl)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log("PASS: serve overload + client retry")


def saturate(sock, n):
    idle = []
    for _ in range(n):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(sock)
        idle.append(s)
    for _ in range(50):
        time.sleep(0.1)
        readable, _, _ = select.select(idle, [], [], 0)
        if not readable:
            return idle  # all n admitted and silently held
        for s in readable:
            idle.remove(s)
            s.close()
            ns = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            ns.connect(sock)
            idle.append(ns)
    fail("could not hold %d idle connections open" % n)


def read_line(s):
    buf = b""
    while b"\n" not in buf:
        chunk = s.recv(4096)
        if not chunk:
            break
        buf += chunk
    return buf.split(b"\n", 1)[0].decode()


def check_lingering_shed_clients(sock, mpl):
    idle = saturate(sock, MAX_INFLIGHT + QUEUE_DEPTH)
    start = time.time()
    lingering = []
    for _ in range(LINGERING):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(10.0)
        s.connect(sock)
        lingering.append(s)
    # Every silent client must be shed (not admitted into a slot it would
    # never free) before the admission slots are released.
    for s in lingering:
        try:
            line = read_line(s)
        except OSError as e:
            fail("lingering shed client lost its response: %s" % e)
        if json.loads(line).get("code") != "overloaded":
            fail("lingering shed client got %r, not overloaded" % line)
    for s in idle:
        s.close()
    while True:
        raw, resp = request_json(
            sock, {"type": "analyze", "path": mpl}, timeout=10.0
        )
        if resp is None:
            fail("request behind lingering shed clients got no response")
        if resp.get("ok"):
            break
        if resp.get("code") != "overloaded":
            fail("unexpected response behind lingering shed clients: %r"
                 % raw)
        if time.time() - start > 10.0:
            fail("slots never freed after the idle connections closed")
        time.sleep(0.02)  # a freed slot not yet released: retry
    elapsed = time.time() - start
    for s in lingering:
        s.close()
    if elapsed > LINGER_BUDGET_S:
        fail("%d silent shed clients delayed the next admitted request "
             "by %.2f s" % (LINGERING, elapsed))
    log("%d silent shed clients did not hold up the next request "
        "(%.2f s)" % (LINGERING, elapsed))


def run(csdf, sock, mpl):
    proc = start_daemon(
        csdf, sock,
        ["--max-inflight", str(MAX_INFLIGHT),
         "--queue-depth", str(QUEUE_DEPTH)],
    )

    # --- Saturate: idle admitted connections hold inflight slots. ----------
    # An idle connection can itself be shed at admission if it races a
    # just-closing connection's slot release (e.g. start_daemon's health
    # probe), so hold-and-replace until all N are silently admitted: a
    # held connection never becomes readable, a shed one does (it got
    # the overloaded line and a close).
    idle = saturate(sock, MAX_INFLIGHT + QUEUE_DEPTH)

    raw, resp = request_json(
        sock, {"type": "analyze", "path": mpl}, timeout=5.0
    )
    if resp is None:
        fail("shed connection got no response line at all")
    if resp.get("ok") or resp.get("code") != "overloaded":
        fail("expected structured overloaded error, got %r" % raw)
    if not resp.get("retryable") or "retry_after_ms" not in resp:
        fail("overloaded error is not marked retryable: %r" % raw)
    log("saturated daemon shed the probe with a structured error")

    # --- csdf client retries through the overload. -------------------------
    def drain_later():
        time.sleep(0.5)
        for s in idle:
            s.close()

    t = threading.Thread(target=drain_later)
    t.start()
    client = subprocess.run(
        [csdf, "client", "analyze", mpl, "--socket", sock,
         "--retries", "8", "--retry-base-ms", "50"],
        capture_output=True, text=True, timeout=30,
    )
    t.join()
    if client.returncode != 0:
        fail("csdf client did not recover from overload: rc=%d stderr=%s"
             % (client.returncode, client.stderr))
    line = client.stdout.strip().splitlines()[-1]
    if not json.loads(line).get("ok"):
        fail("client's final response is not ok: %r" % line)
    log("csdf client recovered once the overload drained")

    check_lingering_shed_clients(sock, mpl)

    stats = get_stats(sock)
    if stats["shed_connections"] < 1:
        fail("shed_connections counter not bumped: %s"
             % stats["shed_connections"])
    shutdown_daemon(proc, sock, expect_rc=0)

    # --- Late daemon: connect-refused is retryable too. --------------------
    late = {}

    def start_later():
        time.sleep(0.5)
        late["proc"] = start_daemon(csdf, sock)

    t = threading.Thread(target=start_later)
    t.start()
    client = subprocess.run(
        [csdf, "client", "stats", "--socket", sock,
         "--retries", "10", "--retry-base-ms", "50"],
        capture_output=True, text=True, timeout=30,
    )
    t.join()
    if client.returncode != 0:
        fail("csdf client did not recover from late daemon: rc=%d stderr=%s"
             % (client.returncode, client.stderr))
    shutdown_daemon(late["proc"], sock, expect_rc=0)
    log("csdf client recovered from connect-refused")

    # --- Clients that leave, and connection-thread reaping. ----------------
    proc = start_daemon(csdf, sock)
    check_abandoned_request(proc, sock, "csdf serve")
    check_threads_reaped(proc, sock, "csdf serve")
    shutdown_daemon(proc, sock, expect_rc=0)


if __name__ == "__main__":
    main()
