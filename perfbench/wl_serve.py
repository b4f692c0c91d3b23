"""``serve``: a real ``repro serve --workers 2`` reached over TCP.

One process drives it with at most two open connections.  A closed-loop
phase measures capacity; an open-loop phase at :data:`OPEN_RATE` times
each request from when it was due.  The mix is ~70% cache-hit solves on
stable uploaded pairs, ~20% solves that miss through a unique
``tol_scale`` nudge, ~5% two-owner ``/v1/batch`` calls and ~5% re-uploads
of "live" graph names rotating through pre-generated versions.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

import inputs
import traced
from calib import CoreSpeed, EchoProbe, KeepAwake
from client import Server, request, run_threads, wait_until
from common import WORK, Metrics, Outcome, median, now, samples_needed

#: open-loop arrival rate, requests per second over both connections:
#: about half the closed-loop capacity measured on a 2-CPU machine
OPEN_RATE = 20.0
#: share of ``--seconds`` given to the closed-loop phase
CLOSED_SHARE = 0.3
SETUPS = 3
BASE_TOL = 1e-2
CONNECTIONS = 2
HOP_PAIRS = 60


def _canonical(result: Dict[str, Any]) -> str:
    return json.dumps({k: v for k, v in result.items() if k not in ("timings", "provenance")}, sort_keys=True)


def references(graphs: Dict[str, Any]) -> Dict[Tuple[str, int, str, str], List[str]]:
    """In-process answers for every (graph, version, kind, backend)."""
    from repro.engine import SolveRequest, solve
    from repro.service.registry import GraphRegistry

    registry = GraphRegistry(capacity=64)
    versions = [(name, 0, texts) for name, texts in graphs["stable"].items()]
    versions += [(name, v, texts) for name, all_texts in graphs["live"].items() for v, texts in enumerate(all_texts)]
    out = {}
    for name, version, (g1, g2) in versions:
        prepared = registry.register_pair(name, g1, g2)
        for kind in inputs.KINDS:
            for backend in inputs.BACKENDS:
                params = {"backend": backend, "k": 1, "tol_scale": BASE_TOL}
                result = solve(SolveRequest.from_params(kind, params), prepared)
                out[(name, version, kind, backend)] = result.vertices
    return out


class Conn:
    """Per-connection state: its live graph's version and nudge counter."""

    def __init__(self, index: int, graphs: Dict[str, Any]) -> None:
        self.index = index
        self.live = sorted(graphs["live"])[index]
        self.versions = graphs["live"][self.live]
        self.version = 0
        self.nudges = 0

    def tol(self) -> float:
        self.nudges += 1
        return BASE_TOL * (1.0 + (CONNECTIONS * self.nudges + self.index) * 1e-10)


def _send(port: int, conn: Conn, op: Dict[str, Any]) -> Dict[str, Any]:
    """Send one scheduled op; returns its record (checked later)."""
    rec: Dict[str, Any] = {"op": op["op"]}
    if op["op"] in ("hit", "miss"):
        graph = op["graph"]
        payload = {"graph": graph, "kind": op["kind"], "backend": op["backend"],
                   "tol_scale": BASE_TOL if op["op"] == "hit" else conn.tol()}
        version = conn.version if graph == conn.live else 0
        rec.update(kind=op["kind"], key=(graph, version, op["kind"], op["backend"]))
        start = time.perf_counter()
        reply = request(port, "POST", "/v1/solve", payload)
    elif op["op"] == "batch":
        queries = [{"kind": k, "graph": g, "backend": "python", "tol_scale": conn.tol()} for g, k in op["queries"]]
        rec["keys"] = [(g, 0, k, "python") for g, k in op["queries"]]
        start = time.perf_counter()
        reply = request(port, "POST", "/v1/batch", {"queries": queries})
    else:
        conn.version = (conn.version + 1) % len(conn.versions)
        g1, g2 = conn.versions[conn.version]
        start = time.perf_counter()
        reply = request(port, "POST", "/v1/graphs", {"name": conn.live, "g1": g1, "g2": g2})
    rec["end"] = time.perf_counter()
    rec["start"] = start
    rec["status"] = reply.status
    rec["body"] = reply.body
    rec["size"] = reply.size
    return rec


def check(rec: Dict[str, Any], refs: Dict[Any, List[str]], primed: Dict[Any, str]) -> Optional[str]:
    """Why the op failed, or None."""
    if rec["status"] != 200:
        return f"{rec['op']}: HTTP {rec['status']}"
    body = json.loads(rec["body"])
    if rec["op"] in ("hit", "miss"):
        result = body["result"]
        if body.get("cached") != (rec["op"] == "hit"):
            return f"{rec['op']}: cached={body.get('cached')}"
        if result["vertices"] != refs[rec["key"]]:
            return f"{rec['op']} {rec['key']}: vertex set differs from the in-process reference"
        if rec["op"] == "hit":
            graph, _, kind, backend = rec["key"]
            if _canonical(result) != primed[(graph, kind, backend)]:
                return f"hit {rec['key']}: canonical bytes differ from the miss that filled the cache"
    elif rec["op"] == "batch":
        results = body["results"]
        if len(results) != len(rec["keys"]):
            return "batch: result count differs"
        for key, result in zip(rec["keys"], results):
            if result["status"] != "ok" or result["payload"]["vertices"] != refs[key]:
                return f"batch {key}: {result['status']} or vertex set differs from the reference"
    return None


def setup(tag: str, graphs: Dict[str, Any], trace_dir: Optional[str]) -> Tuple[Server, float, Dict[Any, str]]:
    """Server start to ready, uploads and cache priming (timed)."""
    start = now()
    server = Server(tag, trace_dir)
    try:
        server.start()
        uploads = [(n, t) for n, t in graphs["stable"].items()] + [(n, v[0]) for n, v in graphs["live"].items()]
        for name, (g1, g2) in uploads:
            reply = request(server.port, "POST", "/v1/graphs", {"name": name, "g1": g1, "g2": g2})
            if reply.status != 200:
                raise RuntimeError(f"setup upload {name}: HTTP {reply.status}")
        primed = {}
        for name in sorted(graphs["stable"]):
            for kind in inputs.KINDS:
                for backend in inputs.BACKENDS:
                    payload = {"graph": name, "kind": kind, "backend": backend, "tol_scale": BASE_TOL}
                    reply = request(server.port, "POST", "/v1/solve", payload)
                    if reply.status != 200:
                        raise RuntimeError(f"setup priming {name}: HTTP {reply.status}")
                    primed[(name, kind, backend)] = _canonical(reply.json()["result"])
    except BaseException:
        server.stop()
        raise
    return server, now() - start, primed


def closed_phase(port: int, conns: List[Conn], schedules: List[List[Dict[str, Any]]], seconds: float) -> Tuple[List[Dict[str, Any]], float]:
    records: List[List[Dict[str, Any]]] = [[] for _ in conns]
    t0 = time.perf_counter()
    stop_at = t0 + seconds

    def drive(c: int) -> None:
        for op in schedules[c]:
            if time.perf_counter() >= stop_at:
                return
            records[c].append(_send(port, conns[c], op))
        raise RuntimeError("closed-loop schedule exhausted")

    run_threads(drive, len(conns))
    elapsed =max((r[-1]["end"] for r in records if r), default=stop_at) - t0
    return [rec for recs in records for rec in recs], elapsed


def open_phase(port: int, conns: List[Conn], schedules: List[List[Dict[str, Any]]], seconds: float, rate: float) -> List[Dict[str, Any]]:
    """Per connection rate/2, arrivals evenly spaced; a request that is
    due while its connection is busy waits, and its latency counts from
    its due time."""
    records: List[List[Dict[str, Any]]] = [[] for _ in conns]
    interval = len(conns) / rate
    t0 = time.perf_counter() + 0.05

    def drive(c: int) -> None:
        for i, op in enumerate(schedules[c]):
            due = t0 + (i + c / len(conns)) * interval
            if due >= t0 + seconds:
                return
            wait_until(due)
            rec = _send(port, conns[c], op)
            rec["due"] = due
            records[c].append(rec)
        raise RuntimeError("open-loop schedule exhausted")

    run_threads(drive, len(conns))
    return [rec for recs in records for rec in recs]


def _counters(server: Server) -> Dict[str, float]:
    snap = server.metrics()
    agg = snap["aggregate"]
    return {
        "rejected": agg["queries"]["rejected"],
        "cache_hits": agg["cache"]["hits"],
        "cache_misses": agg["cache"]["misses"],
        "cold_builds": agg["warm"]["cold_builds"],
        "shared_attaches": agg["warm"]["shared_attaches"],
        "loop_lag_ms": 1000.0 * max(w["loop"]["lag_seconds"] for w in snap["workers"]),
    }


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in before if k != "loop_lag_ms"}


def _latencies(records: List[Dict[str, Any]], op: Optional[str] = None, kind: Optional[str] = None, origin: str = "start") -> List[float]:
    return [
        r["end"] - r[origin]
        for r in records
        if (op is None or r["op"] == op or (op == "solve" and r["op"] in ("hit", "miss")))
        and (kind is None or r.get("kind") == kind)
    ]


def _account(records: List[Dict[str, Any]], refs: Any, primed: Any, outcome: Outcome) -> None:
    for rec in records:
        why = check(rec, refs, primed)
        outcome.op(why is None, why or "")


def _hop_ms(server: Server, primed: Dict[Any, str]) -> float:
    """Median of (via router - direct to owner) for identical hits."""
    from repro.service.cluster import _shard

    diffs = []
    keys = sorted(primed)
    for i in range(HOP_PAIRS):
        graph, kind, backend = keys[i % len(keys)]
        owner = server.workers[_shard(graph, len(server.workers))]["port"]
        payload = {"graph": graph, "kind": kind, "backend": backend, "tol_scale": BASE_TOL}
        pair = []
        for port in (server.port, owner) if i % 2 == 0 else (owner, server.port):
            start = time.perf_counter()
            reply = request(port, "POST", "/v1/solve", payload)
            pair.append((port, time.perf_counter() - start, reply.status))
        via = next(t for p, t, _ in pair if p == server.port)
        direct = next(t for p, t, _ in pair if p == owner)
        if all(s == 200 for _, _, s in pair):
            diffs.append(via - direct)
    return 1000.0 * median(diffs)


def run(seed: int, seconds: float, trace: bool, outcome: Outcome, metrics: Metrics, info: Dict[str, Any]) -> None:
    graphs = inputs.serve_graphs(seed)
    refs = references(graphs)
    trace_dir = None
    if trace:
        trace_dir = os.path.join(WORK, "trace-serve")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    closed_s = seconds * CLOSED_SHARE
    open_s = seconds - closed_s
    budget = int(seconds * 400) + 100
    schedules = {
        phase: [inputs.serve_schedule(seed, phase, c, budget, graphs) for c in range(CONNECTIONS)]
        for phase in ("closed", "open", "traced")
    }

    setup_times = []
    server: Optional[Server] = None
    with CoreSpeed() as cores, EchoProbe() as echo:
        try:
            for attempt in range(SETUPS):
                if server is not None:
                    for problem in server.stop():
                        outcome.violation(problem)
                began = time.perf_counter()
                server, elapsed, primed = setup(f"serve{attempt}", graphs, trace_dir)
                setup_times.append((began, time.perf_counter(), elapsed))
            assert server is not None
            if trace:
                metrics.put("service.cluster.hop_ms", _hop_ms(server, primed), "ms", HOP_PAIRS)

            conns = [Conn(c, graphs) for c in range(CONNECTIONS)]
            before = _counters(server)
            closed_at = time.perf_counter()
            closed, closed_elapsed = closed_phase(server.port, conns, schedules["closed"], closed_s)
            if trace:
                # serve.p99_ms and bench.gen_late_p99_ms need 1000+ arrivals
                open_s = max(open_s, (samples_needed(0.99) + 50) / OPEN_RATE)
            # the closed phase keeps every CPU busy; the open phase leaves
            # them idle between arrivals unless something else runs
            with KeepAwake():
                opened_at = time.perf_counter()
                opened = open_phase(server.port, conns, schedules["open"], open_s, OPEN_RATE)
                opened_end = time.perf_counter()
            after = _counters(server)
            info["serve_metrics_delta"] = _delta(before, after)
            metrics.put("peak_rss_mb", server.peak_rss_mb(), "MB")

            if trace:
                server.signal_all(signal.SIGUSR1)
                time.sleep(0.2)
                traced_recs, _ = closed_phase(server.port, conns, schedules["traced"], closed_s)
                dumps = server.collect_traces()
                after_traced = _counters(server)
                _account(traced_recs, refs, primed, outcome)
                _serve_layers(metrics, closed, opened, traced_recs, dumps, server, _delta(after, after_traced), after_traced)
            _account(closed, refs, primed, outcome)
            _account(opened, refs, primed, outcome)

            teardown = server.stop()
            server = None
            for problem in teardown:
                outcome.violation(problem)
        finally:
            if server is not None:
                server.stop()

    # Scale each figure to the reference host, phase by phase: a cache
    # hit by the request-path reference, every other op (it computes) by
    # the core-speed reference.
    def scaled(records: List[Dict[str, Any]], start: float, end: float, origin: str) -> List[float]:
        core, path = cores.factor(start, end), echo.factor(start, end)
        return [(r["end"] - r[origin]) * (path if r["op"] == "hit" else core) for r in records]

    raw = Metrics()
    raw.put("setup_s", median([took for _, _, took in setup_times]), "s")
    metrics.put("setup_s", median([took * cores.factor(a, b) for a, b, took in setup_times]), "s", len(setup_times))
    ok_closed = sum(1 for r in closed if r["status"] == 200)
    raw.put("capacity_per_s", ok_closed / closed_elapsed, "1/s")
    busy = sum(_latencies(closed))
    busy_scaled = sum(scaled(closed, closed_at, opened_at, "start"))
    metrics.put("capacity_per_s", ok_closed / closed_elapsed * busy / busy_scaled, "1/s", len(closed))
    for kind in inputs.KINDS:
        solves = [r for r in opened if r["op"] in ("hit", "miss") and r["kind"] == kind]
        raw.latency(kind, [r["end"] - r["due"] for r in solves], (0.5, 0.9))
        metrics.latency(kind, scaled(solves, opened_at, opened_end, "due"), (0.5, 0.9))
    info["serve_ops"] = {"closed": len(closed), "open": len(opened), "open_rate": OPEN_RATE}
    info["raw_times"] = {name: entry["value"] for name, entry in raw.values.items()}


def _serve_layers(metrics: Metrics, closed: List[Dict[str, Any]], opened: List[Dict[str, Any]],
                  traced_recs: List[Dict[str, Any]], dumps: Dict[int, Any], server: Server,
                  counters: Dict[str, float], snap: Dict[str, float]) -> None:
    """Per-layer metrics of the serve workload (traced run only)."""
    from common import percentile

    metrics.latency("serve.hit", _latencies(opened, "hit", origin="due"), (0.5,))
    metrics.latency("serve.miss", _latencies(opened, "miss", origin="due"), (0.5,))
    metrics.latency("serve.upload", _latencies(opened, "upload", origin="due"), (0.5,))
    everything = _latencies(opened, origin="due")
    metrics.put("serve.p99_ms", 1000.0 * percentile(everything, 0.99), "ms", len(everything))
    late = [r["start"] - r["due"] for r in opened]
    metrics.put("bench.gen_late_p99_ms", 1000.0 * percentile(late, 0.99), "ms", len(late))
    untraced_mean = sum(_latencies(closed)) / len(closed)
    traced_mean = sum(_latencies(traced_recs)) / len(traced_recs)
    metrics.put("obs.trace_overhead_ratio", traced_mean / untraced_mean, "ratio", len(traced_recs))
    metrics.put("service.http.bytes_out", sum(r["size"] for r in traced_recs) / len(traced_recs), "bytes", len(traced_recs))
    batches = [json.loads(r["body"])["stats"] for r in traced_recs if r["op"] == "batch" and r["status"] == 200]
    built = sum(b["preps_built"] for b in batches)
    shared = sum(b["preps_shared"] for b in batches)
    metrics.put("batch.preps_shared_ratio", shared / (built + shared) if built + shared else 0.0, "ratio", len(batches))
    lookups = counters["cache_hits"] + counters["cache_misses"]
    metrics.put("batch.cache.hit_ratio", counters["cache_hits"] / lookups if lookups else 0.0, "ratio", int(lookups))
    metrics.put("service.app.rejected", counters["rejected"], "count")
    metrics.put("service.registry.cold_builds", counters["cold_builds"], "count")
    metrics.put("engine.shm.attaches", counters["shared_attaches"], "count")
    metrics.put("service.app.loop_lag_ms", snap["loop_lag_ms"], "ms")
    wall = sum(_latencies(traced_recs))
    traced.server_layers(metrics, dumps, server.proc.pid if server.proc else 0, len(traced_recs), wall)
