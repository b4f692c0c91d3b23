"""The original SEA algorithm [Liu et al. 2013] and replicator dynamics.

This is the paper's baseline for DCSGA (run on ``GD+`` and followed by
the Refinement step); the package exists separately from
:mod:`repro.core` to keep the baseline's loose-convergence behaviour —
including its expansion errors — faithful to [18] rather than to the
paper's improved SEACD.
"""

from repro.affinity.replicator import (
    ConvergenceRule,
    ReplicatorResult,
    replicator_dynamics,
)
from repro.affinity.sea import SEAResult, SEAStats, sea, sea_refine_solver

__all__ = [
    "ConvergenceRule",
    "ReplicatorResult",
    "replicator_dynamics",
    "SEAResult",
    "SEAStats",
    "sea",
    "sea_refine_solver",
]
