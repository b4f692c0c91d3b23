"""Seeded inputs and op schedules for the three workloads.

Every generator takes the run's seed and returns the same inputs for the
same seed.  The program only ever sees these generated inputs.
"""

from __future__ import annotations

import io
import random
from typing import Any, Dict, Iterator, List, Tuple

from repro.graph.generators import chung_lu_graph, gnp_graph, powerlaw_degree_sequence
from repro.graph.graph import Graph
from repro.graph.io import write_edge_list

# -- solve ---------------------------------------------------------------
#: planted family: n vertices, a dense positive community of K on 0..K-1
PLANTED_N, PLANTED_K = 1000, 40
#: heavy-tailed family: a Chung-Lu pair over this many vertices
HEAVY_N = 400
#: graphs per family; pass i runs on instance i mod INSTANCES, so one run
#: averages over many draws and its figures do not hinge on one graph
INSTANCES = 40
FAMILIES = ("planted", "heavytail")
BACKENDS = ("python", "sparse")
KINDS = ("dcsad", "dcsga")


def _rng(seed: int, *salt: Any) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed,) + salt))


def planted_contrast(seed: int, instance: int = 0, n: int = PLANTED_N, k: int = PLANTED_K) -> Graph:
    """A difference graph with one planted emerging community on 0..k-1.

    The shape of ``bench_scalability``'s planted family: a dense positive
    near-clique of *k* on a background of ``2n`` weak contrast edges, so
    NewSEA's supports are large and its CD blocks dense.
    """
    rng = _rng(seed, "planted", instance)
    gd = Graph()
    gd.add_vertices(range(n))
    for i in range(k):
        for j in range(i + 1, k):
            gd.add_edge(i, j, rng.uniform(0.5, 1.5))
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not gd.has_edge(u, v):
            gd.add_edge(u, v, rng.uniform(0.01, 0.3))
    return gd


def heavytail_pair(seed: int, instance: int = 0, n: int = HEAVY_N) -> Tuple[Graph, Graph]:
    """Two Chung-Lu graphs on one power-law degree sequence.

    Their difference has many light positive edges, so NewSEA tries a
    few hundred initialisations that each end on a tiny support and the
    per-call overhead of the solver dominates.
    """
    rng = _rng(seed, "heavytail", instance)
    degrees = powerlaw_degree_sequence(n, 2.3, 2.0, seed=rng.randrange(1 << 30))
    g1 = chung_lu_graph(degrees, seed=rng.randrange(1 << 30))
    g2 = chung_lu_graph(degrees, seed=rng.randrange(1 << 30))
    return g1, g2


def solve_pass_order(seed: int, index: int) -> List[Tuple[str, str, str]]:
    """The shuffled (family, kind, backend) order of pass *index*."""
    cells = [(f, k, b) for f in FAMILIES for k in KINDS for b in BACKENDS]
    _rng(seed, "pass", index).shuffle(cells)
    return cells


# -- serve ---------------------------------------------------------------
#: sizes of the stable uploaded pairs that cache hits are served from
STABLE_SIZES = (128, 300, 300, 300) * 2
#: pre-generated versions each "live" graph name rotates through
LIVE_VERSIONS = 3
LIVE_SIZE = 200
#: op mix of the serve workload (kind, weight)
SERVE_MIX = (("hit", 70), ("miss", 20), ("batch", 5), ("upload", 5))


def _pair_texts(seed: int, n: int, *salt: Any) -> Tuple[str, str]:
    """Edge-list texts of a ``(G1, G2)`` pair with a planted surge in G2."""
    rng = _rng(seed, "pair", n, *salt)
    names = {i: f"v{i:03d}" for i in range(n)}
    g1 = gnp_graph(n, 6.0 / n, seed=rng.randrange(1 << 30), weight=lambda r: r.uniform(0.5, 1.5))
    g2 = gnp_graph(n, 7.0 / n, seed=rng.randrange(1 << 30), weight=lambda r: r.uniform(0.5, 1.5))
    group = rng.sample(range(n), 8)
    for i, u in enumerate(group):
        for v in group[i + 1 :]:
            g2.add_edge(u, v, rng.uniform(1.0, 2.0))
    texts = []
    for graph in (g1, g2):
        buffer = io.StringIO()
        write_edge_list(graph.relabeled(names), buffer)
        texts.append(buffer.getvalue())
    return texts[0], texts[1]


def shard_names(prefix: str, per_shard: int, shards: int = 2) -> List[str]:
    """Graph names whose router shard owners alternate 0, 1, 0, 1, ..."""
    from repro.service.cluster import _shard

    pools: Dict[int, List[str]] = {s: [] for s in range(shards)}
    i = 0
    while any(len(pool) < per_shard for pool in pools.values()):
        name = f"{prefix}{i}"
        pool = pools[_shard(name, shards)]
        if len(pool) < per_shard:
            pool.append(name)
        i += 1
    return [pools[s][j] for j in range(per_shard) for s in range(shards)]


def serve_graphs(seed: int) -> Dict[str, Any]:
    """Stable pairs (name -> texts) and live names (name -> versions)."""
    stable_names = shard_names("s", len(STABLE_SIZES) // 2)
    live_names = shard_names("live", 1)
    stable = {
        name: _pair_texts(seed, n, "stable", name)
        for name, n in zip(stable_names, STABLE_SIZES)
    }
    live = {
        name: [_pair_texts(seed, LIVE_SIZE, "live", name, v) for v in range(LIVE_VERSIONS)]
        for name in live_names
    }
    return {"stable": stable, "live": live}


def serve_schedule(seed: int, phase: str, conn: int, count: int, graphs: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The op list connection *conn* sends in *phase* (closed/open).

    Connection *c* owns live graph *c*: its re-uploads and its solves on
    that name are ordered on one connection, so every answer's graph
    version is known.
    """
    rng = _rng(seed, "serve", phase, conn)
    stable = sorted(graphs["stable"])
    live = sorted(graphs["live"])[conn]
    # Every choice is dealt from a reshuffled deck rather than drawn
    # independently, so any stretch of the schedule holds the mix (and
    # the mix of graphs, kinds and backends) almost exactly: a run's
    # figures then hinge on the program, not on how the dice fell.
    block = [kind for kind, weight in SERVE_MIX for _ in range(weight // 5)]
    kinds = _deck(rng, block)
    hits = _deck(rng, [(g, k, b) for g in stable for k in KINDS for b in BACKENDS])
    misses = _deck(rng, [(g, k, b) for g in stable + [live] for k in KINDS for b in BACKENDS])
    # two shard owners: one graph from each half of the stable set
    pairs = _deck(rng, [(a, b) for a in stable[0::2] for b in stable[1::2]])
    ops: List[Dict[str, Any]] = []
    for _ in range(count):
        kind = next(kinds)
        if kind in ("hit", "miss"):
            graph, solve_kind, backend = next(hits if kind == "hit" else misses)
            ops.append({"op": kind, "graph": graph, "kind": solve_kind, "backend": backend})
        elif kind == "batch":
            a, b = next(pairs)
            ops.append({"op": "batch", "queries": [(g, k) for g in (a, b) for k in KINDS]})
        else:
            ops.append({"op": "upload", "graph": live})
    return ops


def _deck(rng: random.Random, items: List[Any]) -> Iterator[Any]:
    """*items* in a fresh shuffled order, over and over."""
    while True:
        hand = list(items)
        rng.shuffle(hand)
        yield from hand


# -- stream --------------------------------------------------------------
STREAMS = 4
STREAM_VERTICES = 1000
STREAM_STEPS = 40
POLICIES = ("exact", "gated")


def stream_measure(index: int) -> str:
    """Even-numbered streams use ``average_degree``, odd ``affinity``."""
    return "average_degree" if index % 2 == 0 else "affinity"


def stream_inputs(seed: int) -> List[Dict[str, Any]]:
    """Per stream: its universe and its event records grouped by step."""
    from repro.datasets.streaming import burst_event_stream

    out = []
    for index in range(STREAMS):
        stream = burst_event_stream(
            n_vertices=STREAM_VERTICES,
            n_steps=STREAM_STEPS,
            base_p=0.01,
            reobserve_p=0.03,
            anomaly_size=8,
            anomaly_start=STREAM_STEPS // 2 - 2,
            anomaly_duration=3,
            seed=_rng(seed, "stream", index).randrange(1 << 30),
        )
        steps: List[List[Dict[str, Any]]] = [[] for _ in range(STREAM_STEPS)]
        for event in stream.log.events:
            steps[event.t].append({"t": event.t, "u": str(event.u), "v": str(event.v), "w": event.w})
        out.append({
            "index": index,
            "measure": stream_measure(index),
            "universe": sorted(str(v) for v in stream.universe),
            "steps": steps,
            "events": stream.log.events,
        })
    return out

