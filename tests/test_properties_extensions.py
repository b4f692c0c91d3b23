"""Property-based tests for the extension modules (topk, stream, flows)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def positive_graphs(draw, max_n=12):
    """Random small positive-weight graphs."""
    n = draw(st.integers(3, max_n))
    graph = Graph()
    graph.add_vertices(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                weight = draw(st.floats(min_value=0.25, max_value=4.0))
                graph.add_edge(u, v, weight)
    return graph


class TestTopKProperties:
    @given(positive_graphs())
    @settings(**SETTINGS)
    def test_first_topk_equals_all_inits_best(self, graph):
        """top_k_dcsga's first answer is the all-inits optimum."""
        from repro.core.newsea import solve_all_initializations
        from repro.core.topk import top_k_dcsga

        top = top_k_dcsga(graph, k=1)
        best = solve_all_initializations(graph).best
        assert top[0].objective == pytest.approx(best.objective, abs=1e-9)

    @given(positive_graphs())
    @settings(**SETTINGS)
    def test_dcsad_removal_never_improves(self, graph):
        """Iterated removal cannot find a better answer later than the
        first (the first round sees a superset of every later graph)."""
        from repro.core.topk import top_k_dcsad

        results = top_k_dcsad(graph, k=4, strategy="vertices")
        objectives = [item.objective for item in results]
        assert objectives == sorted(objectives, reverse=True)


class TestMonitorProperties:
    @given(positive_graphs(max_n=8))
    @settings(**SETTINGS)
    def test_mean_graph_idempotent(self, graph):
        from repro.stream import mean_graph

        assert mean_graph([graph]) == graph


class TestDinicMinCutProperty:
    @given(st.data())
    @settings(**SETTINGS)
    def test_max_flow_equals_brute_force_min_cut(self, data):
        """Max-flow/min-cut duality against exhaustive enumeration: the
        flow value equals the cheapest of all 2^(n-2) s-t partitions,
        and the residual cut Dinic leaves behind has exactly that
        capacity."""
        from itertools import combinations

        from repro.flow.dinic import FlowNetwork, max_flow, min_cut_side

        n = data.draw(st.integers(2, 6))
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and data.draw(st.booleans()):
                    cap = data.draw(st.integers(1, 9))
                    arcs.append((u, v, float(cap)))

        def cut_capacity(side):
            return sum(cap for u, v, cap in arcs if u in side and v not in side)

        inner = range(1, n - 1)
        brute = min(
            cut_capacity({0, *chosen})
            for size in range(len(inner) + 1)
            for chosen in combinations(inner, size)
        )

        network = FlowNetwork()
        network.add_node(0)
        network.add_node(n - 1)
        for u, v, cap in arcs:
            network.add_arc(u, v, cap)
        value = max_flow(network, 0, n - 1)
        side = min_cut_side(network, 0)
        assert value == pytest.approx(brute, abs=1e-9)
        assert 0 in side and n - 1 not in side
        assert cut_capacity(side) == pytest.approx(brute, abs=1e-9)


class TestGoldbergVsExactProperty:
    @given(positive_graphs(max_n=9))
    @settings(max_examples=20, deadline=None)
    def test_goldberg_matches_subset_enumeration(self, graph):
        from repro.core.exact import exact_dcsad
        from repro.flow.goldberg import densest_subgraph

        if graph.num_edges == 0:
            return
        # Float weights: the default binary-search precision is only
        # exact for integers, so request the accuracy the test asserts.
        _, flow_density = densest_subgraph(graph, precision=1e-9)
        brute = exact_dcsad(graph).density
        assert flow_density == pytest.approx(brute, abs=1e-6)
