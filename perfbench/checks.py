"""Answer checks, recomputed from the inputs rather than trusted.

Each checker returns a list of problems (empty when the answer holds).
They read only plain graph data, so the self-tests can hand them
corrupted fixtures.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set

from repro.graph.graph import Graph

_REL = 1e-9


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def induced_density(gd: Graph, subset: Set[Any]) -> float:
    """rho_D(S): induced weighted degree sum over |S| (each edge twice)."""
    total = 0.0
    for u in subset:
        for v, w in gd.neighbors(u).items():
            if v in subset:
                total += w
    return total / len(subset)


def connected(gd: Graph, subset: Set[Any]) -> bool:
    """Whether *subset* induces a connected subgraph of ``GD``."""
    if not subset:
        return False
    start = next(iter(subset))
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v, w in gd.neighbors(u).items():
            if w != 0.0 and v in subset and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(subset)


def check_dcsad(gd: Graph, subset: Set[Any], density: float, beta: Optional[float]) -> List[str]:
    """Theorem 2 certificate, reported density and connectivity."""
    problems = []
    if not subset:
        return ["dcsad: empty answer"]
    if beta is None or not beta >= 1.0 - 1e-12:
        problems.append(f"dcsad: beta {beta} < 1 (Theorem 2)")
    recomputed = induced_density(gd, subset)
    if not _close(recomputed, density):
        problems.append(f"dcsad: density {density} != recomputed {recomputed}")
    if not connected(gd, subset):
        problems.append("dcsad: answer is not connected in GD")
    return problems


def check_dcsga(gd_plus: Graph, x: Mapping[Any, float], objective: float, tol: float) -> List[str]:
    """Global KKT (Eq. 8), positive-clique support (Theorem 5) and the
    reported objective ``x^T D x``."""
    support = {u for u, w in x.items() if w > 0.0}
    if not support:
        return ["dcsga: empty support"]
    problems = []
    if not _close(sum(x[u] for u in support), 1.0, 1e-9):
        problems.append("dcsga: embedding is not on the simplex")
    members = sorted(support, key=repr)
    for i, u in enumerate(members):
        row = gd_plus.neighbors(u)
        for v in members[i + 1 :]:
            if not row.get(v, 0.0) > 0.0:
                problems.append(f"dcsga: support pair ({u!r}, {v!r}) has no positive edge")
                break
        else:
            continue
        break
    grads: Dict[Any, float] = {}
    for u in support:
        for v, w in gd_plus.neighbors(u).items():
            grads[v] = grads.get(v, 0.0) + 2.0 * w * x[u]
    value = sum(x[u] * grads.get(u, 0.0) for u in support) / 2.0
    if not _close(value, objective, 1e-7):
        problems.append(f"dcsga: objective {objective} != recomputed x^T D x {value}")
    low = min(grads.get(u, 0.0) for u in support)
    outside = [g for v, g in grads.items() if x.get(v, 0.0) < 1.0]
    if gd_plus.num_vertices > len(grads):
        outside.append(0.0)
    if outside and max(outside) - low > tol:
        problems.append(f"dcsga: KKT gap {max(outside) - low:.3g} > {tol}")
    return problems


def check_inside(support: Iterable[Any], community: Set[Any]) -> List[str]:
    stray = [u for u in support if u not in community]
    if stray:
        return [f"dcsga: {len(stray)} support vertices outside the planted community"]
    return []


def check_alert_keys(got: Iterable[Any], want: Iterable[Any], label: str) -> List[str]:
    got_set, want_set = set(got), set(want)
    if got_set == want_set:
        return []
    return [
        f"{label}: alert keys differ from snapshot_recompute "
        f"({len(got_set - want_set)} extra, {len(want_set - got_set)} missing)"
    ]
