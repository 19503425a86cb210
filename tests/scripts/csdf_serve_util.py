"""Shared helpers for the csdf serve end-to-end scripts.

These scripts drive the real `csdf` binary over its unix-socket
transport with raw JSON lines, so they exercise exactly what a client
process sees: framing, structured errors, crash/restart behavior.
"""

import json
import os
import re
import socket
import subprocess
import sys
import time


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print("FAIL: " + msg, flush=True)
    sys.exit(1)


def start_daemon(csdf, sock_path, extra_args=(), env_extra=None):
    """Starts `csdf serve --socket` and waits for the socket to accept."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [csdf, "serve", "--socket", sock_path, *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    deadline = time.time() + 10.0
    while time.time() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            fail(
                "daemon exited rc=%d before accepting: %s %s"
                % (proc.returncode, out.decode(), err.decode())
            )
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(sock_path)
            return proc
        except OSError:
            time.sleep(0.02)
    proc.kill()
    fail("daemon socket %s never came up" % sock_path)


def request_line(sock_path, line, timeout=10.0):
    """One request, one response line. Returns the raw line, or None on
    any transport failure (connect refused, EOF mid-line)."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(timeout)
            s.connect(sock_path)
            s.sendall(line.encode() + b"\n")
            buf = b""
            while b"\n" not in buf:
                chunk = s.recv(65536)
                if not chunk:
                    return None
                buf += chunk
            return buf.split(b"\n", 1)[0].decode()
    except OSError:
        return None


def request_json(sock_path, obj, timeout=10.0):
    """Sends one JSON request; returns (raw_line, parsed) or (None, None)
    on transport failure. A non-JSON response is a hard failure: the
    daemon's contract is structured output, always."""
    raw = request_line(sock_path, json.dumps(obj), timeout)
    if raw is None:
        return None, None
    try:
        return raw, json.loads(raw)
    except ValueError:
        fail("non-JSON response from daemon: %r" % raw[:200])


def raw_result(line):
    """The "result" member exactly as the daemon sent it (byte-level),
    mirroring ServeTest's extraction: up to the trailing ,"wall_us":N}."""
    start = line.find('"result":')
    if start < 0:
        fail('no "result" in response: %r' % line[:200])
    start += len('"result":')
    end = line.rfind(',"wall_us":')
    if end < 0 or end < start:
        end = len(line) - 1
    return line[start:end]


def normalize_wall(result_bytes):
    """Zeroes the wall_ms measurement inside a "result" payload, the one
    member that legitimately differs between two analyses of the same
    input (mirrors ServeTest's normalizeWallMs)."""
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', result_bytes)


def shutdown_daemon(proc, sock_path, expect_rc=0):
    """Sends shutdown, asserts acknowledgment and the pinned exit code."""
    raw, resp = request_json(sock_path, {"type": "shutdown"})
    if resp is None or not resp.get("ok"):
        fail("shutdown not acknowledged: %r" % (raw,))
    try:
        rc = proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not exit after shutdown")
    if rc != expect_rc:
        fail("daemon exit code %d after shutdown, want %d" % (rc, expect_rc))


def get_stats(sock_path):
    raw, resp = request_json(sock_path, {"type": "stats"})
    if resp is None or not resp.get("ok"):
        fail("stats request failed: %r" % (raw,))
    return resp["stats"]


EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "examples", "mpl")


def check_abandoned_request(proc, sock_path, what, extra=None):
    """A client sends an `analyze` line for an example and closes before
    reading the reply, so the reply goes to a closed socket. The process
    must survive that write (a SIGPIPE would kill it) and keep answering
    on new connections."""
    obj = {"type": "analyze",
           "path": os.path.abspath(os.path.join(EXAMPLES_DIR,
                                                "broadcast.mpl"))}
    obj.update(extra or {})
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.sendall(json.dumps(obj).encode() + b"\n")
    time.sleep(0.5)  # the analysis finishes and its reply is written
    if proc.poll() is not None:
        fail("%s exited rc=%d after a client left before its reply"
             % (what, proc.returncode))
    raw, resp = request_json(sock_path, {"type": "stats"})
    if resp is None or not resp.get("ok"):
        fail("%s did not answer stats after a client left before its "
             "reply: %r" % (what, raw))
    log("%s survived a client that left before its reply" % what)


def maps_lines(pid):
    with open("/proc/%d/maps" % pid) as f:
        return sum(1 for _ in f)


def check_threads_reaped(proc, sock_path, what, warmup=10, more=200,
                         slack=20):
    """Sequential connections must not grow the process's mappings: each
    finished connection thread is joined, so its stack is reused or
    unmapped rather than kept for the process's lifetime."""
    for _ in range(warmup):
        get_stats(sock_path)
    before = maps_lines(proc.pid)
    for _ in range(more):
        get_stats(sock_path)
    after = maps_lines(proc.pid)
    if after > before + slack:
        fail("%s mappings grew from %d to %d lines over %d connections; "
             "finished connection threads are not reaped"
             % (what, before, after, more))
    log("%s mappings %d -> %d lines over %d connections"
        % (what, before, after, more))


def program(i):
    """A tiny distinct-but-deterministic analysis input per index: a
    nearest-neighbor shift with a per-index payload, so every index has
    its own cache key but a stable verdict."""
    return (
        "x = id + %d;\n"
        "if id == 0 then\n"
        "  send x -> id + 1;\n"
        "elif id == np - 1 then\n"
        "  recv y <- id - 1;\n"
        "else\n"
        "  recv y <- id - 1;\n"
        "  send x -> id + 1;\n"
        "end\n" % i
    )
