"""Max-flow substrate and Goldberg's exact densest-subgraph algorithm.

Built from scratch because the paper's baseline landscape relies on
[Goldberg 1984]: densest subgraph with positive weights is polynomial
(max-flow), which is exactly what negative weights break (Theorem 1).
"""

from repro.flow.dinic import FlowNetwork, max_flow, min_cut_side, min_st_cut_value
from repro.flow.goldberg import densest_subgraph, max_density_value

__all__ = [
    "FlowNetwork",
    "max_flow",
    "min_cut_side",
    "min_st_cut_value",
    "densest_subgraph",
    "max_density_value",
]
