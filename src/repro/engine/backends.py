"""The built-in :class:`~repro.engine.registry.SolverBackend` instances.

Importing this module registers them:

========== ============== =================================================
name       aliases        implementation
========== ============== =================================================
python     heap           the dict-of-dicts reference kernels (ground
                          truth in the test suite; stdlib-only)
segment_tree               Algorithm 1 peeling over a min segment tree —
                          peel capability only
sparse                    the vectorised CSR/NumPy kernels of
                          :mod:`repro.core.sparse_solvers`; available
                          only when SciPy imports
native     numba          Numba ``@njit`` kernels over raw CSR arrays
                          (:mod:`repro.core.native_kernels`) for the hot
                          loops, sharing the sparse orchestration;
                          available only when SciPy *and* Numba import
========== ============== =================================================

Every method body is a lazy import of the kernel it wraps — the
registry stays import-light and free of cycles (the core modules import
the registry to dispatch, the backends import the core modules to
implement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.engine.registry import SolverBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.affinity.replicator import ReplicatorResult
    from repro.core.coordinate_descent import CDResult
    from repro.core.expansion import ExpansionStep
    from repro.core.initialization import InitializationPlan
    from repro.core.newsea import DCSGAResult, VertexSolver
    from repro.core.refinement import RefinementResult
    from repro.core.seacd import SEACDResult
    from repro.graph.graph import Graph, Vertex
    from repro.graph.sparse import CSRAdjacency
    from repro.peeling.greedy import PeelResult


class PythonBackend(SolverBackend):
    """The pure-Python reference implementation of every capability."""

    name = "python"

    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        from repro.peeling.greedy import _peel_heap

        self.check_adjacency(adjacency)
        return _peel_heap(graph)

    def shrink(
        self,
        graph: "Graph",
        x: Dict["Vertex", float],
        subset: Iterable["Vertex"],
        tol: float,
        max_iterations: int = 100_000,
    ) -> "CDResult":
        from repro.core.coordinate_descent import coordinate_descent

        return coordinate_descent(
            graph, x, subset=subset, tol=tol, max_iterations=max_iterations
        )

    def expand(
        self,
        graph: "Graph",
        x: Dict["Vertex", float],
        objective: Optional[float] = None,
    ) -> "ExpansionStep":
        from repro.core.expansion import expansion_step

        return expansion_step(graph, x, objective=objective)

    def seacd(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        max_cd_iterations: int = 100_000,
    ) -> "SEACDResult":
        from repro.core.seacd import _seacd_python

        return _seacd_python(
            graph,
            x0,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            max_cd_iterations=max_cd_iterations,
        )

    def refine(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_cd_iterations: int = 100_000,
    ) -> "RefinementResult":
        from repro.core.refinement import _refine_python

        return _refine_python(
            graph,
            x0,
            tol_scale=tol_scale,
            max_cd_iterations=max_cd_iterations,
        )

    def new_sea(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        plan: Optional["InitializationPlan"] = None,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "DCSGAResult":
        from repro.core.newsea import _new_sea_python

        self.check_adjacency(adjacency)
        return _new_sea_python(
            gd_plus,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            plan=plan,
        )

    def vertex_solver(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "VertexSolver":
        from repro.core.newsea import _default_solver

        self.check_adjacency(adjacency)
        return _default_solver(tol_scale, max_expansions)

    def initialization_plan(
        self,
        gd_plus: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "InitializationPlan":
        from repro.core.initialization import _smart_initialization_plan_python

        self.check_adjacency(adjacency)
        return _smart_initialization_plan_python(gd_plus)

    def replicator(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        rule: str = "objective",
        tol: float = 1e-6,
        max_iterations: int = 100_000,
    ) -> "ReplicatorResult":
        from repro.affinity.replicator import _replicator_python

        return _replicator_python(graph, x0, rule, tol, max_iterations)


class SegmentTreeBackend(SolverBackend):
    """Algorithm 1 over a min segment tree — a peel-only backend.

    Exists to keep the paper's suggested priority structure benchmarkable
    (`bench_ablation_peeling_backend.py`); asking it for any other
    capability raises :class:`~repro.exceptions.BackendCapabilityError`.
    """

    name = "segment_tree"

    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        from repro.peeling.greedy import _peel_segment_tree

        self.check_adjacency(adjacency)
        return _peel_segment_tree(graph)


class SparseBackend(SolverBackend):
    """The vectorised CSR/NumPy kernel set; requires SciPy.

    Capabilities accept a prebuilt
    :class:`~repro.graph.sparse.CSRAdjacency` (``adjacency=``) so
    callers running many solves on one graph — the batch layer through
    :class:`~repro.engine.prepared.PreparedGraph` — freeze it once.
    """

    name = "sparse"
    supports_shared_adjacency = True

    def available(self) -> bool:
        from repro.graph.sparse import scipy_available

        return scipy_available()

    def missing_reason(self) -> str:
        return (
            "backend='sparse' requires SciPy, which is not installed; "
            "use the pure-Python backend instead"
        )

    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        from repro.peeling.greedy import _peel_sparse

        return _peel_sparse(graph, adjacency=adjacency)

    def shrink(
        self,
        graph: "Graph",
        x: Dict["Vertex", float],
        subset: Iterable["Vertex"],
        tol: float,
        max_iterations: int = 100_000,
    ) -> "CDResult":
        import numpy as np

        from repro.core.coordinate_descent import CDResult
        from repro.core.sparse_solvers import coordinate_descent_csr
        from repro.graph.sparse import CSRAdjacency

        adj = CSRAdjacency.from_graph(graph)
        vector = adj.embedding_vector(x)
        members = np.fromiter(
            sorted(adj.index[v] for v in subset), dtype=np.int64
        )
        vector, _, objective, iterations, converged = coordinate_descent_csr(
            adj, vector, members, tol, max_iterations, need_dx=False
        )
        return CDResult(
            x=adj.embedding_dict(vector),
            objective=objective,
            iterations=iterations,
            converged=converged,
        )

    def seacd(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        max_cd_iterations: int = 100_000,
    ) -> "SEACDResult":
        from repro.core.sparse_solvers import seacd_csr

        return seacd_csr(
            graph,
            x0,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            max_cd_iterations=max_cd_iterations,
        )

    def refine(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_cd_iterations: int = 100_000,
    ) -> "RefinementResult":
        from repro.core.refinement import RefinementResult
        from repro.core.sparse_solvers import refine_csr

        x, objective, merges, initial = refine_csr(
            graph,
            x0,
            tol_scale=tol_scale,
            max_cd_iterations=max_cd_iterations,
        )
        return RefinementResult(
            x=x,
            objective=objective,
            merges=merges,
            initial_objective=initial,
        )

    def new_sea(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        plan: Optional["InitializationPlan"] = None,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "DCSGAResult":
        from repro.core.sparse_solvers import new_sea_csr

        return new_sea_csr(
            gd_plus,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            plan=plan,
            adjacency=adjacency,
        )

    def vertex_solver(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "VertexSolver":
        from repro.core.sparse_solvers import csr_vertex_solver

        return csr_vertex_solver(
            gd_plus, tol_scale, max_expansions, adjacency=adjacency
        )

    def initialization_plan(
        self,
        gd_plus: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "InitializationPlan":
        from repro.core.initialization import _smart_initialization_plan_sparse

        return _smart_initialization_plan_sparse(gd_plus, adjacency)

    def replicator(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        rule: str = "objective",
        tol: float = 1e-6,
        max_iterations: int = 100_000,
    ) -> "ReplicatorResult":
        from repro.affinity.replicator import _replicator_sparse

        return _replicator_sparse(graph, x0, rule, tol, max_iterations)


class NativeBackend(SparseBackend):
    """Numba-compiled kernels over raw CSR arrays; requires SciPy + Numba.

    The hot loops — 2-coordinate descent, greedy peeling, replicator
    dynamics, the induced-block gather — run as ``@njit(cache=True)``
    kernels from :mod:`repro.core.native_kernels`; every orchestration
    loop (SEACD, refinement, NewSEA, smart initialisation, mean graph,
    expansion scoring) is the *shared* vectorised code of the sparse
    backend, reached through the ``cd=`` kernel seam of
    :mod:`repro.core.sparse_solvers` — which is what makes native and
    sparse envelope payloads byte-identical.

    Numba is imported lazily on first use; without it the backend stays
    registered but unavailable (``resolve_backend("native",
    fallback="sparse")`` degrades gracefully with one
    :class:`~repro.exceptions.BackendFallbackWarning`).  ``jit=False``
    runs the same kernel bodies interpreted — the differential-test
    mode, exercising the exact code Numba compiles.
    """

    name = "native"

    def __init__(self, jit: bool = True) -> None:
        self._jit = jit

    def available(self) -> bool:
        from repro.core.native_kernels import numba_available
        from repro.graph.sparse import scipy_available

        if not scipy_available():
            return False
        return numba_available() if self._jit else True

    def missing_reason(self) -> str:
        from repro.graph.sparse import scipy_available

        if not scipy_available():
            return (
                "backend='native' requires SciPy, which is not "
                "installed; use the pure-Python backend instead"
            )
        return (
            "backend='native' requires Numba, which is not installed; "
            "use the sparse backend instead (or resolve with "
            "fallback='sparse')"
        )

    def warm(self) -> None:
        """Compile every kernel now (once per process), not per query."""
        from repro.core.native_kernels import warm_kernels

        warm_kernels(jit=self._jit)

    def _kernels(self):  # type: ignore[no-untyped-def]  # KernelSet (lazy import)
        from repro.core.native_kernels import get_kernels

        return get_kernels(jit=self._jit)

    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        return self._kernels().peel(graph, adjacency=adjacency)

    def shrink(
        self,
        graph: "Graph",
        x: Dict["Vertex", float],
        subset: Iterable["Vertex"],
        tol: float,
        max_iterations: int = 100_000,
    ) -> "CDResult":
        import numpy as np

        from repro.core.coordinate_descent import CDResult
        from repro.graph.sparse import CSRAdjacency

        adj = CSRAdjacency.from_graph(graph)
        vector = adj.embedding_vector(x)
        members = np.fromiter(
            sorted(adj.index[v] for v in subset), dtype=np.int64
        )
        vector, _, objective, iterations, converged = (
            self._kernels().coordinate_descent(
                adj, vector, members, tol, max_iterations, need_dx=False
            )
        )
        return CDResult(
            x=adj.embedding_dict(vector),
            objective=objective,
            iterations=iterations,
            converged=converged,
        )

    def expand(
        self,
        graph: "Graph",
        x: Dict["Vertex", float],
        objective: Optional[float] = None,
    ) -> "ExpansionStep":
        from repro.core.expansion import ExpansionStep
        from repro.core.sparse_solvers import expansion_step_csr
        from repro.graph.sparse import CSRAdjacency

        adj = CSRAdjacency.from_graph(graph)
        vector = adj.embedding_vector({u: w for u, w in x.items() if w > 0.0})
        dx = adj.matvec(vector)
        before = float(vector @ dx) if objective is None else objective
        new_vector, _, after, expanded, z_size = expansion_step_csr(
            adj, vector, dx, before
        )
        return ExpansionStep(
            x=adj.embedding_dict(new_vector),
            expanded=expanded,
            z_size=z_size,
            objective_before=before,
            objective_after=after,
        )

    def seacd(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        max_cd_iterations: int = 100_000,
    ) -> "SEACDResult":
        from repro.core.sparse_solvers import seacd_csr

        return seacd_csr(
            graph,
            x0,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            max_cd_iterations=max_cd_iterations,
            cd=self._kernels().coordinate_descent,
        )

    def refine(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_cd_iterations: int = 100_000,
    ) -> "RefinementResult":
        from repro.core.refinement import RefinementResult
        from repro.core.sparse_solvers import refine_csr

        x, objective, merges, initial = refine_csr(
            graph,
            x0,
            tol_scale=tol_scale,
            max_cd_iterations=max_cd_iterations,
            cd=self._kernels().coordinate_descent,
        )
        return RefinementResult(
            x=x,
            objective=objective,
            merges=merges,
            initial_objective=initial,
        )

    def new_sea(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        plan: Optional["InitializationPlan"] = None,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "DCSGAResult":
        from repro.core.sparse_solvers import new_sea_csr

        return new_sea_csr(
            gd_plus,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            plan=plan,
            adjacency=adjacency,
            cd=self._kernels().coordinate_descent,
        )

    def vertex_solver(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "VertexSolver":
        from repro.core.sparse_solvers import csr_vertex_solver

        return csr_vertex_solver(
            gd_plus,
            tol_scale,
            max_expansions,
            adjacency=adjacency,
            cd=self._kernels().coordinate_descent,
        )

    def replicator(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        rule: str = "objective",
        tol: float = 1e-6,
        max_iterations: int = 100_000,
    ) -> "ReplicatorResult":
        return self._kernels().replicator(
            graph, x0, rule=rule, tol=tol, max_iterations=max_iterations
        )

    # initialization_plan is inherited from SparseBackend verbatim:
    # already vectorised one-pass code with nothing to compile.


#: The instances the package registers on import.
PYTHON = PythonBackend()
SEGMENT_TREE = SegmentTreeBackend()
SPARSE = SparseBackend()
NATIVE = NativeBackend()

register_backend(PYTHON, aliases=("heap",))
register_backend(SEGMENT_TREE)
register_backend(SPARSE)
register_backend(NATIVE, aliases=("numba",))
