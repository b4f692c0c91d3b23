"""``stream``: eight live sessions on a ``repro serve --workers 2`` server.

Tenants are four seeded ``burst_event_stream`` streams x {exact, gated};
even streams use ``average_degree``, odd ones ``affinity``.  Two
connections each own four tenants (two per policy, two per measure) and
push one step per request in a closed loop — callers wait for the reply
— then poll every owned tenant's alerts with its cursor.  A tenant whose
stream is exhausted is closed and re-created, so a run lasts as long as
``--seconds`` asks.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

import inputs
import traced
from calib import CoreSpeed
from checks import check_alert_keys
from client import Server, request, run_threads
from common import WORK, Metrics, Outcome, median, now, percentile, samples_needed

SETUPS = 3
CONNECTIONS = 2
MAX_STRETCH = 3.0

AlertKey = Tuple[int, FrozenSet[str]]


def reference_keys(seed: int, index: int) -> Set[AlertKey]:
    """Alert keys of ``snapshot_recompute`` on stream *index* (run in a
    worker process: the references are not part of the timed work)."""
    from repro.stream.engine import snapshot_recompute

    stream = inputs.stream_inputs(seed)[index]
    log = snapshot_recompute(
        stream["events"], stream["universe"], n_steps=inputs.STREAM_STEPS, measure=stream["measure"]
    )
    return {(a.step, frozenset(str(v) for v in a.subset)) for a in log}


class Tenant:
    def __init__(self, stream: Dict[str, Any], policy: str) -> None:
        self.stream = stream
        self.policy = policy
        self.worker = (stream["index"] + inputs.POLICIES.index(policy)) % CONNECTIONS
        self.sid = ""
        self.step = 0
        self.cursor = 0
        self.alerts: Set[AlertKey] = set()

    @property
    def label(self) -> str:
        return f"stream{self.stream['index']}/{self.policy}"

    @property
    def kind(self) -> str:
        return "dcsad" if self.stream["measure"] == "average_degree" else "dcsga"


def _universe_texts(universe: List[str]) -> Tuple[str, str]:
    declared = "\n".join(universe) + "\n"
    return declared, declared + f"{universe[0]} {universe[1]} 1.0\n"


def _create(port: int, tenant: Tenant, graph: str) -> Tuple[bool, str]:
    body = {"graph": graph, "measure": tenant.stream["measure"], "policy": tenant.policy}
    reply = request(port, "POST", "/v1/stream/sessions", body)
    if reply.status != 200:
        return False, f"create {tenant.label}: HTTP {reply.status}"
    tenant.sid = reply.json()["session"]
    tenant.step, tenant.cursor, tenant.alerts = 0, 0, set()
    return True, ""


def setup(tag: str, streams: List[Dict[str, Any]], graphs: List[str], trace_dir: Optional[str]) -> Tuple[Server, float, List[Tenant]]:
    start = now()
    server = Server(tag, trace_dir)
    try:
        server.start()
        g1, g2 = _universe_texts(streams[0]["universe"])
        for name in graphs:
            reply = request(server.port, "POST", "/v1/graphs", {"name": name, "g1": g1, "g2": g2})
            if reply.status != 200:
                raise RuntimeError(f"setup upload {name}: HTTP {reply.status}")
        tenants = [Tenant(s, p) for s in streams for p in inputs.POLICIES]
        for tenant in tenants:
            ok, why = _create(server.port, tenant, graphs[tenant.worker])
            if not ok:
                raise RuntimeError(f"setup {why}")
    except BaseException:
        server.stop()
        raise
    return server, now() - start, tenants


class Phase:
    """What one closed-loop phase observed."""

    def __init__(self) -> None:
        self.pushes: List[Tuple[str, float]] = []
        self.polls: List[float] = []
        self.other: List[float] = []
        self.events = 0
        self.failures: List[str] = []
        self.finals: List[Tuple[str, Dict[str, Any]]] = []
        self.elapsed = 0.0

    @property
    def ops(self) -> int:
        return len(self.pushes) + len(self.polls) + len(self.other)

    def latencies(self) -> List[float]:
        return [t for _, t in self.pushes] + self.polls + self.other


def _finish_lifetime(tenant: Tenant, refs: Dict[int, Set[AlertKey]], phase: Phase) -> None:
    if tenant.policy != "exact":
        return
    want = {key for key in refs[tenant.stream["index"]] if key[0] < tenant.step}
    phase.failures += check_alert_keys(tenant.alerts, want, tenant.label)


def _recycle(port: int, tenant: Tenant, graph: str, refs: Dict[int, Set[AlertKey]], phase: Phase) -> None:
    _finish_lifetime(tenant, refs, phase)
    start = time.perf_counter()
    reply = request(port, "DELETE", f"/v1/stream/sessions/{tenant.sid}")
    if reply.status == 200:
        phase.finals.append((tenant.policy, reply.json()["final"]))
        ok, why = _create(port, tenant, graph)
        if not ok:
            phase.failures.append(why)
    else:
        phase.failures.append(f"close {tenant.label}: HTTP {reply.status}")
    phase.other.append(time.perf_counter() - start)


def closed_phase(port: int, tenants: List[Tenant], graphs: List[str], refs: Dict[int, Set[AlertKey]], seconds: float) -> Phase:
    phase = Phase()
    need = samples_needed(0.9)
    start = time.perf_counter()
    owned = [[t for t in tenants if t.worker == c] for c in range(CONNECTIONS)]

    def enough() -> bool:
        counts = {"dcsad": 0, "dcsga": 0}
        for kind, _ in list(phase.pushes):
            counts[kind] += 1
        return min(counts.values()) >= need

    def drive(c: int) -> None:
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds * MAX_STRETCH or (elapsed >= seconds and enough()):
                return
            for tenant in owned[c]:
                if tenant.step >= inputs.STREAM_STEPS:
                    _recycle(port, tenant, graphs[c], refs, phase)
                events = tenant.stream["steps"][tenant.step]
                body = {"events": events, "advance_to": tenant.step + 1}
                t0 = time.perf_counter()
                reply = request(port, "POST", f"/v1/stream/sessions/{tenant.sid}/events", body)
                phase.pushes.append((tenant.kind, time.perf_counter() - t0))
                if reply.status != 200:
                    phase.failures.append(f"push {tenant.label} step {tenant.step}: HTTP {reply.status}")
                    continue
                tenant.step += 1
                phase.events += len(events)
            for tenant in owned[c]:
                t0 = time.perf_counter()
                reply = request(port, "GET", f"/v1/stream/sessions/{tenant.sid}/alerts?cursor={tenant.cursor}")
                phase.polls.append(time.perf_counter() - t0)
                if reply.status != 200:
                    phase.failures.append(f"poll {tenant.label}: HTTP {reply.status}")
                    continue
                body = reply.json()
                tenant.cursor = body["cursor"]
                tenant.alerts.update((a["step"], frozenset(a["subset"])) for a in body["alerts"])

    run_threads(drive, CONNECTIONS)
    phase.elapsed = time.perf_counter() - start
    return phase


def _account(phase: Phase, outcome: Outcome) -> None:
    for _ in range(phase.ops - len(phase.failures)):
        outcome.op(True)
    for why in phase.failures:
        outcome.op(False, why)


def _teardown(server: Server, tenants: List[Tenant], refs: Dict[int, Set[AlertKey]], phase: Phase) -> List[str]:
    """Close every session; the registry must hold no session charge."""
    problems = []
    for tenant in tenants:
        _finish_lifetime(tenant, refs, phase)
        reply = request(server.port, "DELETE", f"/v1/stream/sessions/{tenant.sid}")
        if reply.status != 200:
            problems.append(f"close {tenant.label}: HTTP {reply.status}")
        else:
            phase.finals.append((tenant.policy, reply.json()["final"]))
    sessions = server.metrics()["aggregate"].get("sessions", {})
    if sessions.get("active", 0) or sessions.get("charged_cells", 0):
        problems.append(f"after closing every session: {sessions.get('active')} active, "
                        f"{sessions.get('charged_cells')} cells charged")
    return problems


def run(seed: int, seconds: float, trace: bool, outcome: Outcome, metrics: Metrics, info: Dict[str, Any]) -> None:
    streams = inputs.stream_inputs(seed)
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        refs = dict(enumerate(pool.map(reference_keys, [seed] * len(streams), range(len(streams)))))
    graphs = inputs.shard_names("universe", 1)
    trace_dir = None
    if trace:
        trace_dir = os.path.join(WORK, "trace-stream")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)

    setup_times = []
    server: Optional[Server] = None
    with CoreSpeed() as cores:
        try:
            for attempt in range(SETUPS):
                if server is not None:
                    for problem in server.stop():
                        outcome.violation(problem)
                began = time.perf_counter()
                server, elapsed, tenants = setup(f"stream{attempt}", streams, graphs, trace_dir)
                setup_times.append((began, time.perf_counter(), elapsed))
            assert server is not None and server.proc is not None
            router_pid = server.proc.pid

            plain_at = time.perf_counter()
            plain = closed_phase(server.port, tenants, graphs, refs, seconds)
            plain_end = time.perf_counter()
            metrics.put("peak_rss_mb", server.peak_rss_mb(), "MB")
            phases = [plain]
            if trace:
                server.signal_all(signal.SIGUSR1)
                time.sleep(0.2)
                hot = closed_phase(server.port, tenants, graphs, refs, seconds)
                dumps = server.collect_traces()
                phases.append(hot)
            final = Phase()
            for problem in _teardown(server, tenants, refs, final):
                outcome.violation(problem)
            for phase in phases + [final]:
                _account(phase, outcome)
            teardown = server.stop()
            server = None
            for problem in teardown:
                outcome.violation(problem)
        finally:
            if server is not None:
                server.stop()

    # Scale each figure by the core speed measured over its own phase.
    raw = Metrics()
    raw.put("setup_s", median([took for _, _, took in setup_times]), "s")
    metrics.put("setup_s", median([took * cores.factor(a, b) for a, b, took in setup_times]), "s", len(setup_times))
    scale = cores.factor(plain_at, plain_end)
    for kind in inputs.KINDS:
        samples = [t for k, t in plain.pushes if k == kind]
        raw.latency(kind, samples, (0.5, 0.9))
        metrics.latency(kind, [t * scale for t in samples], (0.5, 0.9))
    raw.put("capacity_per_s", len(plain.pushes) / plain.elapsed, "1/s")
    metrics.put("capacity_per_s", len(plain.pushes) / plain.elapsed / scale, "1/s", len(plain.pushes))
    info["raw_times"] = {name: entry["value"] for name, entry in raw.values.items()}
    info["stream_ops"] = {"pushes": len(plain.pushes), "polls": len(plain.polls), "recycles": len(plain.other)}
    if trace:
        _stream_layers(metrics, plain, phases[1], dumps, final, router_pid)


def _stream_layers(metrics: Metrics, plain: Phase, hot: Phase, dumps: Dict[int, Any], final: Phase, router_pid: int) -> None:
    pushes = [t for _, t in plain.pushes]
    metrics.put("stream.events_per_s", plain.events / plain.elapsed, "1/s", plain.events)
    metrics.put("stream.push_p90_ms", 1000.0 * percentile(pushes, 0.9), "ms", len(pushes))
    metrics.put("stream.poll_p50_ms", 1000.0 * percentile(plain.polls, 0.5), "ms", len(plain.polls))
    for policy in inputs.POLICIES:
        steps = sum(f["stats"]["steps"] for p, f in plain.finals + hot.finals + final.finals if p == policy)
        solves = sum(f["stats"]["full_solves"] for p, f in plain.finals + hot.finals + final.finals if p == policy)
        metrics.put(f"stream.full_solve_ratio.{policy}", solves / steps if steps else 0.0, "ratio", steps)
    untraced_mean = sum(plain.latencies()) / plain.ops
    wall = sum(hot.latencies())
    metrics.put("obs.trace_overhead_ratio", (wall / hot.ops) / untraced_mean, "ratio", hot.ops)
    traced.server_layers(metrics, dumps, router_pid, hot.ops, wall)
