"""A minimal HTTP client and the ``repro serve --workers 2`` lifecycle.

The service answers one request per connection (``Connection: close``),
so each request opens, writes, reads to EOF and closes: at most one open
connection per client thread.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from common import ROOT, WORK, proc_peak_rss_mb, program_env

HOST = "127.0.0.1"
#: a request slower than this counts as failed (timeout); so does any
#: answer other than 200, including 422, 429, 502 and 504
REQUEST_TIMEOUT = 30.0


class Reply:
    __slots__ = ("status", "body", "size")

    def __init__(self, status: int, body: bytes, size: int) -> None:
        self.status = status
        self.body = body
        self.size = size

    def json(self) -> Any:
        return json.loads(self.body)


def request(port: int, method: str, path: str, payload: Any = None, timeout: float = REQUEST_TIMEOUT) -> Reply:
    """One request; status 0 stands for a dropped connection or timeout."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    chunks: List[bytes] = []
    try:
        with socket.create_connection((HOST, port), timeout=timeout) as sock:
            sock.sendall(head + body)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return Reply(0, b"", 0)
    raw = b"".join(chunks)
    head_end = raw.find(b"\r\n\r\n")
    if head_end < 0:
        return Reply(0, b"", len(raw))
    status_line = raw[: raw.find(b"\r\n")].split()
    try:
        status = int(status_line[1])
    except (IndexError, ValueError):
        return Reply(0, b"", len(raw))
    return Reply(status, raw[head_end + 4 :], len(raw))


class Server:
    """One ``repro serve --workers 2`` router and its two workers."""

    def __init__(self, tag: str, trace_dir: Optional[str] = None) -> None:
        self.tag = tag
        self.trace_dir = trace_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.workers: List[Dict[str, Any]] = []
        self.log_path = os.path.join(WORK, f"server-{tag}.log")

    def start(self, timeout: float = 90.0) -> None:
        os.makedirs(WORK, exist_ok=True)
        log = open(self.log_path, "wb")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0",
                 "--scale", "0", "--warm-capacity", "16"],
                cwd=ROOT,
                env=program_env(self.trace_dir),
                stdout=subprocess.PIPE,
                stderr=log,
            )
        finally:
            log.close()
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"server {self.tag} did not start; see {self.log_path}")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                byte = os.read(self.proc.stdout.fileno(), 1)
                if not byte:
                    continue
                line += byte
        match = re.search(rb"http://[\d.]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"no listening banner from server {self.tag}: {line!r}")
        self.port = int(match.group(1))
        health = request(self.port, "GET", "/healthz")
        if health.status != 200:
            raise RuntimeError(f"server {self.tag} /healthz answered {health.status}")
        self.workers = health.json()["workers"]

    @property
    def pids(self) -> List[int]:
        assert self.proc is not None
        return [self.proc.pid] + [int(w["pid"]) for w in self.workers]

    def peak_rss_mb(self) -> float:
        """Sum of peak RSS over the router and its workers."""
        return sum(proc_peak_rss_mb(pid) for pid in self.pids)

    def metrics(self) -> Dict[str, Any]:
        reply = request(self.port, "GET", "/metrics")
        if reply.status != 200:
            raise RuntimeError(f"/metrics answered {reply.status}")
        return reply.json()

    def signal_all(self, signum: int) -> None:
        for pid in self.pids:
            os.kill(pid, signum)

    def collect_traces(self, timeout: float = 20.0) -> Dict[int, Dict[str, Any]]:
        """Ask every process for its span totals and read the dumps."""
        assert self.trace_dir is not None
        paths = {pid: os.path.join(self.trace_dir, f"{pid}.json") for pid in self.pids}
        for path in paths.values():
            if os.path.exists(path):
                os.remove(path)
        self.signal_all(signal.SIGUSR2)
        deadline = time.monotonic() + timeout
        out: Dict[int, Dict[str, Any]] = {}
        while len(out) < len(paths) and time.monotonic() < deadline:
            for pid, path in paths.items():
                if pid not in out and os.path.exists(path):
                    with open(path, encoding="utf-8") as handle:
                        out[pid] = json.load(handle)
            time.sleep(0.02)
        if len(out) < len(paths):
            raise RuntimeError("trace dumps missing from some server processes")
        return out

    def stop(self, timeout: float = 30.0) -> List[str]:
        """SIGTERM, then audit the teardown; returns any violations."""
        problems: List[str] = []
        if self.proc is None:
            return problems
        router = self.proc.pid
        worker_pids = [int(w["pid"]) for w in self.workers]
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            problems.append(f"server {self.tag}: router ignored SIGTERM for {timeout:.0f}s")
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + 10.0
        alive = worker_pids
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in alive if _alive(pid)]
            time.sleep(0.05)
        if alive:
            problems.append(f"server {self.tag}: workers {alive} outlived the router")
            for pid in alive:
                os.kill(pid, signal.SIGKILL)
        from repro.engine.shm import list_segments

        leaked = list_segments(f"rp{router}_")
        if leaked:
            problems.append(f"server {self.tag}: {len(leaked)} shared-memory segments survived teardown")
        self.proc = None
        return problems


def _alive(pid: int) -> bool:
    """Whether *pid* still runs; a zombie has ended (and is reaped here
    if it was re-parented to this process, the run's subreaper)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    if stat[stat.rindex(")") + 2] != "Z":
        return True
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    return False


def run_threads(drive: Any, n: int) -> None:
    """Run ``drive(0) .. drive(n - 1)`` on *n* threads; re-raise the first
    failure once all have ended."""
    errors: List[BaseException] = []

    def guarded(c: int) -> None:
        try:
            drive(c)
        except BaseException as exc:  # re-raised below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def wait_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
