"""Tests for DCSGreedy (Algorithm 2) and the DCSAD baselines."""

from __future__ import annotations

import pytest

from repro.core.dcsad import (
    dcs_exact_positive,
    dcs_greedy,
    dcs_greedy_pair,
    greedy_on_gd_only,
    greedy_on_gd_plus_only,
)
from repro.core.difference import difference_graph
from repro.core.exact import exact_dcsad
from repro.graph.components import is_connected
from repro.graph.generators import complete_graph, gnp_graph, random_signed_graph
from repro.graph.graph import Graph


class TestSpecialCases:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            dcs_greedy(Graph())

    def test_no_positive_edges_single_vertex(self):
        gd = Graph.from_edges([("a", "b", -1.0), ("b", "c", -2.0)])
        result = dcs_greedy(gd, seed=0)
        assert len(result.subset) == 1
        assert result.density == 0.0
        assert result.ratio_bound is None
        assert result.winner == "single_vertex"

    def test_edgeless_graph_single_vertex(self):
        gd = Graph()
        gd.add_vertices("abc")
        result = dcs_greedy(gd)
        assert len(result.subset) == 1
        assert result.density == 0.0

    def test_single_positive_edge(self):
        gd = Graph.from_edges([("a", "b", 5.0), ("b", "c", -1.0)])
        result = dcs_greedy(gd)
        assert result.subset == {"a", "b"}
        assert result.density == pytest.approx(5.0)


class TestKnownOptima:
    def test_positive_triangle(self, signed_graph):
        result = dcs_greedy(signed_graph)
        assert result.subset == {"a", "b", "c"}
        assert result.density == pytest.approx(6.0)

    def test_density_matches_subset(self, signed_graph):
        result = dcs_greedy(signed_graph)
        recomputed = signed_graph.total_degree(result.subset) / len(result.subset)
        assert recomputed == pytest.approx(result.density)

    def test_pair_interface(self, paper_pair):
        g1, g2 = paper_pair
        from_pair = dcs_greedy_pair(g1, g2)
        from_gd = dcs_greedy(difference_graph(g1, g2))
        assert from_pair.subset == from_gd.subset
        assert from_pair.density == pytest.approx(from_gd.density)

    def test_heavy_edge_candidate_wins_when_best(self):
        gd = complete_graph(6, weight=0.1)
        gd.add_edge("h1", "h2", 50.0)
        result = dcs_greedy(gd)
        assert result.density >= 50.0 - 1e-9


class TestGuarantees:
    @pytest.mark.parametrize("seed", range(12))
    def test_data_dependent_ratio_bounds_optimum(self, seed):
        """Theorem 2: optimum <= ratio_bound * achieved density."""
        gd = random_signed_graph(11, 0.45, seed=seed)
        result = dcs_greedy(gd)
        if result.ratio_bound is None:
            return
        optimum = exact_dcsad(gd).density
        assert optimum <= result.ratio_bound * result.density + 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_achieved_never_exceeds_optimum(self, seed):
        gd = random_signed_graph(11, 0.45, seed=seed)
        result = dcs_greedy(gd)
        optimum = exact_dcsad(gd).density
        assert result.density <= optimum + 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_max_edge_is_order_n_approximation(self, seed):
        """Section IV-B: the heaviest edge is 1/(n-1)-optimal."""
        gd = random_signed_graph(10, 0.5, seed=seed)
        heaviest = gd.max_weight_edge()
        if heaviest is None or heaviest[2] <= 0:
            return
        optimum = exact_dcsad(gd).density
        n = gd.num_vertices
        assert heaviest[2] >= optimum / (n - 1) - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_result_is_connected(self, seed):
        """Line 9 of Algorithm 2 guarantees a connected answer."""
        gd = random_signed_graph(25, 0.15, seed=seed)
        result = dcs_greedy(gd)
        assert is_connected(gd, result.subset)

    def test_candidates_recorded(self, signed_graph):
        result = dcs_greedy(signed_graph)
        assert set(result.candidate_densities) == {
            "max_edge",
            "greedy_gd",
            "greedy_gd_plus",
        }
        assert result.winner in result.candidate_densities
        best = max(result.candidate_densities.values())
        assert result.candidate_densities[result.winner] == pytest.approx(best)

    def test_refinement_never_hurts(self):
        """The connected-component refinement cannot lower density."""
        for seed in range(10):
            gd = random_signed_graph(20, 0.12, seed=seed)
            result = dcs_greedy(gd)
            pre = max(result.candidate_densities.values(), default=0.0)
            assert result.density >= pre - 1e-9


class TestBaselines:
    def test_gd_only_runs_greedy_on_gd(self, signed_graph):
        result = greedy_on_gd_only(signed_graph)
        assert result.winner == "greedy_gd"
        assert result.subset == {"a", "b", "c"}

    def test_gd_plus_only_evaluates_in_gd(self):
        """GD+-only peels the positive part but reports GD density."""
        gd = Graph.from_edges(
            [
                ("a", "b", 3.0),
                ("b", "c", 3.0),
                ("a", "c", 3.0),
                ("a", "d", 4.0),
                # In GD, d is dragged down by a negative edge to b.
                ("b", "d", -10.0),
            ]
        )
        result = greedy_on_gd_plus_only(gd)
        measured = gd.total_degree(result.subset) / len(result.subset)
        assert result.density == pytest.approx(measured)

    @pytest.mark.parametrize("seed", range(6))
    def test_dcs_greedy_dominates_both_baselines(self, seed):
        """DCSGreedy picks the best of the candidates, so it is at least
        as good as either single-graph baseline before refinement."""
        gd = random_signed_graph(30, 0.2, seed=seed)
        full = dcs_greedy(gd)
        gd_only = greedy_on_gd_only(gd)
        plus_only = greedy_on_gd_plus_only(gd)
        assert full.density >= gd_only.density - 1e-9
        assert full.density >= plus_only.density - 1e-9


class TestExactPositiveDCSAD:
    def test_matches_goldberg_on_positive_graph(self):
        gd = gnp_graph(25, 0.2, seed=4, weight=lambda r: r.uniform(0.5, 3.0))
        result = dcs_exact_positive(gd)
        assert result.ratio_bound == 1.0
        # Exact must be at least as good as the greedy heuristic.
        greedy = dcs_greedy(gd)
        assert result.density >= greedy.density - 1e-9

    def test_negative_edge_rejected(self, signed_graph):
        with pytest.raises(ValueError):
            dcs_exact_positive(signed_graph)

    def test_edgeless(self):
        gd = Graph()
        gd.add_vertices("ab")
        result = dcs_exact_positive(gd)
        assert result.density == 0.0
        assert len(result.subset) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dcs_exact_positive(Graph())
