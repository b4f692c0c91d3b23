"""``solve``: the library path of ``repro dcsad|dcsga``, in-process.

One client in a closed loop.  Each pass runs {DCSAD, DCSGA} x {python,
sparse} on two graph families in a seeded shuffled order:

* ``planted`` — a dense planted community, so NewSEA's supports are
  large and its CD blocks dense (sparse beats python here);
* ``heavytail`` — a Chung-Lu pair, so NewSEA tries hundreds of
  initialisations on tiny supports and per-call overhead dominates
  (python beats sparse here).

Pass *i* runs on graph instance ``i mod INSTANCES`` of each family, so a
run averages over many draws.  Preparation (``PreparedGraph`` builds with
both CSR freezes, and a warm-up solve per family and backend) is set-up,
timed separately.  Times are scaled to the reference core speed measured
on this thread around each op (see ``calib.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import inputs
import layers
import traced
from calib import reference_loop, speed
from checks import check_dcsad, check_dcsga, check_inside
from common import Metrics, Outcome, median, now, percentile, samples_needed, self_peak_rss_mb

SETUPS = 3
TOL = 1e-2
#: python and sparse answers whose objectives agree this closely (relative)
#: are equally good: coordinate descent stops within ~1e-8 of a clique's
#: exact value, so two equal-size unit-weight cliques can differ by that
TIE = 1e-6
#: a run keeps measuring past --seconds (up to this multiple) until every
#: latency percentile has its ten samples beyond it
MAX_STRETCH = 3.0

Graphs = Dict[Tuple[str, int], Any]


def setup(graphs: Graphs) -> Graphs:
    """Prepare every instance (GD+ and both CSR freezes, what the solves
    need) and run one warm-up solve per family and backend."""
    from repro.engine import PreparedGraph, SolveRequest, solve

    prepared = {}
    for key, graph in graphs.items():
        prep = PreparedGraph(graph) if key[0] == "planted" else PreparedGraph.from_pair(*graph)
        prep.csr()
        prep.csr_plus()
        if key[1] == 0:
            for backend in inputs.BACKENDS:
                solve(SolveRequest(measure="average_degree", backend=backend), prep)
        prepared[key] = prep
    return prepared


def _solve_once(prep: Any, kind: str, backend: str) -> Tuple[Any, float, float]:
    """One op; returns the result, its raw seconds and its scaled seconds."""
    from repro.engine import SolveRequest, solve

    request = SolveRequest(measure="average_degree" if kind == "dcsad" else "affinity", backend=backend, tol_scale=TOL)
    before = reference_loop()
    start = now()
    result = solve(request, prep)
    result.to_json()  # the envelope `repro dcsad|dcsga --json` prints
    took = now() - start
    return result, took, took * speed(before, reference_loop())


def check_result(result: Any, prep: Any, family: str, kind: str) -> List[str]:
    if kind == "dcsad":
        return check_dcsad(prep.gd, set(result.subset), result.density, result.beta)
    problems = check_dcsga(prep.gd_plus, result.embedding, result.density, TOL)
    kkt = result.kkt or {}
    if not (kkt.get("is_kkt_point") and kkt.get("is_positive_clique")):
        problems.append(f"dcsga: envelope reports {kkt}")
    if family == "planted":
        problems += check_inside(result.subset, set(range(inputs.PLANTED_K)))
    return problems


def measure(prepared: Graphs, seed: int, seconds: float, outcome: Outcome, first_pass: int = 0) -> Dict[str, Any]:
    """Whole passes until *seconds* (and enough samples) have elapsed."""
    lat: Dict[str, List[float]] = {"dcsad": [], "dcsga": []}
    raw: Dict[str, List[float]] = {"dcsad": [], "dcsga": []}
    per_cell: Dict[str, List[Any]] = {}
    ties: Dict[str, int] = {}
    need = samples_needed(0.9)
    start = now()
    index = first_pass
    while True:
        elapsed = now() - start
        enough = all(len(v) >= need for v in lat.values())
        if (elapsed >= seconds and enough) or elapsed >= seconds * MAX_STRETCH:
            break
        supports = {}
        instance = index % inputs.INSTANCES
        for family, kind, backend in inputs.solve_pass_order(seed, index):
            cell = f"{family}.{backend}"
            prep = prepared[(family, instance)]
            layers.RECORDER.bucket = cell
            with layers.root("bench.op"):
                result, took, scaled = _solve_once(prep, kind, backend)
            lat[kind].append(scaled)
            raw[kind].append(took)
            problems = check_result(result, prep, family, kind)
            outcome.op(not problems, "; ".join(problems))
            per_cell.setdefault(cell, []).append((kind, result, took, prep.gd_plus.num_vertices))
            if kind == "dcsga":
                supports[(family, backend)] = (frozenset(result.subset), result.density)
        for family in inputs.FAMILIES:
            (py, py_obj), (sp, sp_obj) = supports[(family, "python")], supports[(family, "sparse")]
            if py == sp:
                continue
            if abs(py_obj - sp_obj) <= TIE * max(1.0, abs(py_obj)):
                # Equally good cliques (unit weights tie): each answer
                # passed its own KKT and clique checks above; the count
                # is reported, not hidden.
                ties[family] = ties.get(family, 0) + 1
            else:
                outcome.check_failed(f"pass {index}: python and sparse DCSGA supports differ on {family}")
        index += 1
    return {"lat": lat, "raw": raw, "cells": per_cell, "passes": index - first_pass, "ties": ties}


def run(seed: int, seconds: float, trace: bool, outcome: Outcome, metrics: Metrics, info: Dict[str, Any]) -> None:
    graphs: Graphs = {}
    for i in range(inputs.INSTANCES):
        graphs[("planted", i)] = inputs.planted_contrast(seed, i)
        graphs[("heavytail", i)] = inputs.heavytail_pair(seed, i)
    times, raw_times = [], []
    for _ in range(SETUPS):
        before = reference_loop()
        start = now()
        prepared = setup(graphs)
        took = now() - start
        raw_times.append(took)
        times.append(took * speed(before, reference_loop()))
    metrics.put("setup_s", median(times), "s", len(times))

    plain = measure(prepared, seed, seconds, outcome)
    lat = plain["lat"]
    metrics.latency("dcsad", lat["dcsad"], (0.5, 0.9))
    metrics.latency("dcsga", lat["dcsga"], (0.5, 0.9))
    ops = len(lat["dcsad"]) + len(lat["dcsga"])
    metrics.put("capacity_per_s", ops / (sum(lat["dcsad"]) + sum(lat["dcsga"])), "1/s", ops)
    info["solve_passes"] = plain["passes"]
    info["solve_backend_ties"] = plain["ties"]
    info["raw_times"] = {
        "setup_s": median(raw_times),
        **{f"{kind}_p{int(q * 100)}_ms": 1000.0 * percentile(plain["raw"][kind], q) for kind in inputs.KINDS for q in (0.5, 0.9)},
    }
    if trace:
        _trace(graphs, prepared, seed, seconds, plain, outcome, metrics)
    metrics.put("peak_rss_mb", self_peak_rss_mb(), "MB")


def _trace(graphs: Graphs, prepared: Graphs, seed: int, seconds: float,
           plain: Dict[str, Any], outcome: Outcome, metrics: Metrics) -> None:
    layers.install()
    try:
        layers.RECORDER.reset()
        layers.RECORDER.bucket = "setup"
        setup(graphs)
        prepare = layers.RECORDER.stats.get("setup", {}).get("engine.prepare", [0.0])[0]
        layers.RECORDER.reset()
        run_traced = measure(prepared, seed, seconds, outcome, first_pass=plain["passes"])
        stats = layers.RECORDER.snapshot()
    finally:
        layers.uninstall()
        layers.RECORDER.bucket = "all"
    rows_all = layers.merge(*stats.values())
    ops = sum(len(v) for v in run_traced["lat"].values())
    traced.span_metrics(metrics, rows_all, ops)
    metrics.put("engine.prepare_s", prepare, "s", len(graphs))
    ratios_all = []
    for cell, entries in run_traced["cells"].items():
        traced.span_metrics(metrics, stats[cell], len(entries), "." + cell)
        ratios = [r.detail["initializations"] / n for kind, r, _, n in entries if kind == "dcsga"]
        ratios_all += ratios
        metrics.put(f"core.inits_tried_ratio.{cell}", sum(ratios) / len(ratios), "ratio", len(ratios))
    metrics.put("core.inits_tried_ratio", sum(ratios_all) / len(ratios_all), "ratio", len(ratios_all))
    wall = sum(took for entries in run_traced["cells"].values() for _, _, took, _ in entries)
    metrics.put("bench.unattributed_share", traced.unattributed(rows_all, wall), "ratio", ops)
    traced_mean = sum(sum(v) for v in run_traced["lat"].values()) / ops
    plain_ops = sum(len(v) for v in plain["lat"].values())
    plain_mean = sum(sum(v) for v in plain["lat"].values()) / plain_ops
    metrics.put("obs.trace_overhead_ratio", traced_mean / plain_mean, "ratio", ops)
