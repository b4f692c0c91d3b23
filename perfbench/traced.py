"""Per-layer metrics: their catalogue and how span totals become them.

:data:`PER_LAYER` is the source of ``BENCHMARK.json``'s ``per_layer``
list.  Each entry also names the end-to-end metric it should move and on
which workload; on the other workloads the prediction is no change.  A
layer a workload never enters reports 0.

Span totals are ``[self_s, total_s, calls]`` per span name (see
``layers.py``).  ``*_s`` metrics are self seconds per op of the traced
phase (an op is one solve call, one HTTP request or one step push), so
runs of different length compare.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import layers
from common import Metrics

CELLS = tuple(f"{f}.{b}" for f in ("planted", "heavytail") for b in ("python", "sparse"))

# (name, unit, better, moves: "<end-to-end metric> on <workload>")
_CORE = (
    ("core.peel.self_s", "s", "lower", "dcsad_p50_ms on solve; dcsad_p90_ms on serve"),
    ("core.new_sea.self_s", "s", "lower", "dcsga_p50_ms and dcsga_p90_ms on solve; dcsga_p90_ms on serve"),
    ("core.cd.self_s", "s", "lower", "dcsga_p50_ms and dcsga_p90_ms on solve; dcsga_p90_ms on serve"),
    ("core.cd.calls", "count", "lower", "dcsga_p50_ms on solve"),
    ("core.expand.self_s", "s", "lower", "dcsga_p50_ms and dcsga_p90_ms on solve"),
    ("core.refine.self_s", "s", "lower", "dcsga_p50_ms and dcsga_p90_ms on solve"),
    ("core.init_plan.self_s", "s", "lower", "dcsga_p50_ms on solve; dcsga_p90_ms on serve"),
    ("core.kkt.self_s", "s", "lower", "dcsga_p50_ms on solve"),
    ("core.inits_tried_ratio", "ratio", "lower", "dcsga_p50_ms on solve"),
)

PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    _CORE
    + (("core.dcsad.self_s", "s", "lower", "dcsad_p50_ms on solve; dcsad_p90_ms on stream"),)
    + tuple((f"{name}.{cell}", unit, better, moves) for name, unit, better, moves in _CORE for cell in CELLS)
    + (
        ("engine.prepare_s", "s", "lower", "setup_s on solve; serve.upload_p50_ms on serve"),
        ("engine.solve.self_s", "s", "lower", "dcsad_p50_ms and dcsga_p50_ms on solve; dcsad_p90_ms on serve"),
        ("engine.envelope.self_s", "s", "lower", "dcsad_p50_ms on solve; serve.miss_p50_ms on serve"),
        ("engine.shm.export_s", "s", "lower", "serve.upload_p50_ms on serve"),
        ("engine.shm.attach_s", "s", "lower", "serve.p99_ms on serve"),
        ("engine.shm.attaches", "count", "lower", "serve.p99_ms on serve"),
        ("batch.run.self_s", "s", "lower", "serve.p99_ms on serve"),
        ("batch.preps_shared_ratio", "ratio", "higher", "serve.p99_ms on serve"),
        ("batch.cache.hit_ratio", "ratio", "higher", "dcsad_p50_ms and capacity_per_s on serve"),
        ("batch.cache.get_s", "s", "lower", "dcsad_p50_ms and capacity_per_s on serve"),
        ("batch.cache.put_s", "s", "lower", "dcsad_p50_ms and capacity_per_s on serve"),
        ("service.app.queue_wait_s", "s", "lower", "capacity_per_s and serve.p99_ms on serve; dcsad_p90_ms on stream"),
        ("service.app.self_s", "s", "lower", "capacity_per_s and serve.p99_ms on serve; dcsad_p90_ms on stream"),
        ("service.app.rejected", "count", "lower", "capacity_per_s and serve.p99_ms on serve"),
        ("service.app.loop_lag_ms", "ms", "lower", "serve.p99_ms on serve"),
        ("service.http.read_s", "s", "lower", "dcsad_p50_ms on serve"),
        ("service.http.write_s", "s", "lower", "dcsad_p50_ms on serve"),
        ("service.http.self_s", "s", "lower", "dcsad_p50_ms on serve"),
        ("service.http.bytes_out", "bytes", "lower", "dcsad_p50_ms on serve"),
        ("service.cluster.hop_ms", "ms", "lower", "dcsad_p50_ms and capacity_per_s on serve"),
        ("service.cluster.forward_s", "s", "lower", "dcsad_p50_ms and capacity_per_s on serve"),
        ("service.cluster.route_s", "s", "lower", "dcsad_p50_ms and capacity_per_s on serve"),
        ("service.cluster.connects_per_forward", "ratio", "lower", "dcsad_p50_ms and capacity_per_s on serve"),
        ("service.registry.register_s", "s", "lower", "serve.upload_p50_ms on serve"),
        ("service.registry.resolve_s", "s", "lower", "serve.upload_p50_ms and dcsad_p50_ms on serve"),
        ("service.registry.cold_builds", "count", "lower", "serve.upload_p50_ms on serve"),
        ("stream.engine.step_s", "s", "lower", "capacity_per_s and dcsad_p90_ms on stream"),
        ("stream.window.self_s", "s", "lower", "capacity_per_s and dcsad_p90_ms on stream"),
        ("stream.solve_s", "s", "lower", "capacity_per_s and dcsga_p90_ms on stream"),
        ("stream.full_solve_ratio.exact", "ratio", "lower", "capacity_per_s on stream"),
        ("stream.full_solve_ratio.gated", "ratio", "lower", "capacity_per_s on stream"),
        ("service.sessions.apply_self_s", "s", "lower", "dcsad_p90_ms on stream"),
        ("service.sessions.poll_s", "s", "lower", "stream.poll_p50_ms on stream"),
        ("serve.hit_p50_ms", "ms", "lower", "dcsad_p50_ms on serve"),
        ("serve.miss_p50_ms", "ms", "lower", "dcsad_p90_ms and dcsga_p90_ms on serve"),
        ("serve.upload_p50_ms", "ms", "lower", "capacity_per_s on serve"),
        ("serve.p99_ms", "ms", "lower", "capacity_per_s on serve"),
        ("stream.events_per_s", "1/s", "higher", "capacity_per_s on stream"),
        ("stream.push_p90_ms", "ms", "lower", "dcsad_p90_ms and dcsga_p90_ms on stream"),
        ("stream.poll_p50_ms", "ms", "lower", "capacity_per_s on stream"),
        ("obs.trace_overhead_ratio", "ratio", "lower", "none: the cost of tracing itself, per workload"),
        ("bench.unattributed_share", "ratio", "lower", "none: traced wall that no layer span covers"),
        ("bench.gen_late_p99_ms", "ms", "lower", "none: open-loop generator lateness on serve"),
    )
)

# metric -> the span names whose self time it sums
_SELF = {
    "core.peel.self_s": ("core.peel",),
    "core.dcsad.self_s": ("core.dcsad",),
    "core.new_sea.self_s": ("core.new_sea",),
    "core.cd.self_s": ("core.cd",),
    "core.expand.self_s": ("core.expand",),
    "core.refine.self_s": ("core.refine",),
    "core.init_plan.self_s": ("core.init_plan",),
    "core.kkt.self_s": ("core.kkt",),
    "engine.prepare_s": ("engine.prepare",),
    "engine.solve.self_s": ("engine.solve",),
    "engine.envelope.self_s": ("engine.envelope",),
    "engine.shm.export_s": ("engine.shm.export",),
    "engine.shm.attach_s": ("engine.shm.attach",),
    "batch.run.self_s": ("batch.run",),
    "batch.cache.get_s": ("batch.cache.get",),
    "batch.cache.put_s": ("batch.cache.put",),
    "service.app.queue_wait_s": ("service.app.queue_wait",),
    "service.app.self_s": ("service.app.handle", "service.app.submit"),
    "service.http.read_s": ("service.http.read",),
    "service.http.write_s": ("service.http.write",),
    "service.http.self_s": ("service.http.conn",),
    "service.cluster.route_s": ("service.cluster.route",),
    "service.registry.register_s": ("service.registry.register", "service.registry.announce"),
    "service.registry.resolve_s": ("service.registry.resolve",),
    "stream.engine.step_s": ("stream.engine",),
    "stream.window.self_s": ("stream.window",),
    "stream.solve_s": ("stream.solve",),
    "service.sessions.apply_self_s": ("service.sessions.apply", "service.sessions.create", "service.sessions.close"),
    "service.sessions.poll_s": ("service.sessions.poll",),
}


def _self(rows: Dict[str, List[float]], spans: Tuple[str, ...]) -> float:
    return sum(rows[s][0] for s in spans if s in rows)


def _calls(rows: Dict[str, List[float]], span: str) -> float:
    return rows[span][2] if span in rows else 0


def span_metrics(metrics: Metrics, rows: Dict[str, List[float]], ops: int, suffix: str = "") -> None:
    """Self seconds per op for every ``_SELF`` metric, plus CD calls."""
    names = {name for name, *_ in _CORE} if suffix else set(_SELF) | {"core.cd.calls"}
    for metric, spans in _SELF.items():
        if metric in names:
            metrics.put(metric + suffix, _self(rows, spans) / ops, "s", ops)
    metrics.put("core.cd.calls" + suffix, _calls(rows, "core.cd") / ops, "count", ops)


def unattributed(rows: Dict[str, List[float]], wall: float, double_counted: float = 0.0) -> float:
    """Share of *wall* no layer span covers: ``1 - sum(self) / wall``."""
    return (wall - (layers.self_total(rows) - double_counted)) / wall


def server_layers(metrics: Metrics, dumps: Dict[int, Dict[str, Any]], router_pid: int, ops: int, wall: float) -> None:
    """Span metrics of a router and its workers over one traced phase.

    The router's forward span waits for the whole of the owner's work,
    which the owner's own spans already cover, so the owners' connection
    totals come off the forward's self time (every worker connection in
    a traced phase is a forwarded one).
    """
    per_pid = {pid: dump.get("all", {}) for pid, dump in dumps.items()}
    rows = layers.merge(*per_pid.values())
    worker_conn = sum(
        r["service.http.conn"][1] for pid, r in per_pid.items() if pid != router_pid and "service.http.conn" in r
    )
    span_metrics(metrics, rows, ops)
    router = per_pid.get(router_pid, {})
    forward = router.get("service.cluster.forward", [0.0, 0.0, 0])
    metrics.put("service.cluster.forward_s", (forward[0] - worker_conn) / ops, "s", ops)
    connects = _calls(router, "service.cluster.connect")
    metrics.put("service.cluster.connects_per_forward", connects / forward[2] if forward[2] else 0.0, "ratio", int(forward[2]))
    metrics.put("bench.unattributed_share", unattributed(rows, wall, worker_conn), "ratio", ops)


def fill_defaults(metrics: Metrics) -> None:
    """Layers the workload never entered report 0."""
    for name, unit, _, _ in PER_LAYER:
        if name not in metrics.values:
            metrics.put(name, 0.0, unit)


def benchmark_entries() -> List[Dict[str, str]]:
    return [{"name": name, "unit": unit, "better": better} for name, unit, better, _ in PER_LAYER]
