"""TracingBackend — the registry-level instrumentation wrapper.

Every solver capability call in the library flows through
:func:`repro.engine.registry.resolve_backend`.  When a recording
:class:`~repro.obs.trace.Tracer` is active, the registry hands back
the resolved backend wrapped in a :class:`TracingBackend`: each
capability call (``peel``, ``shrink``, ``expand``, ``seacd``,
``refine``, ``new_sea``, ``initialization_plan``, ``replicator``,
``vertex_solver``) opens a ``backend.<capability>`` span around the
inner call — per-capability call counts and durations for free, on any
backend, builtin or user-registered, with zero edits to the kernels
themselves.

The wrapper is transparent everywhere that matters: ``name``,
``supports_shared_adjacency``, availability, and capability
introspection all delegate to the wrapped backend (a wrapper must
never claim a capability the inner backend lacks — ``has_capability``
on the base class keys on method overrides, which the wrapper
overrides wholesale).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional

from repro.engine.registry import SolverBackend
from repro.obs.trace import Tracer

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

__all__ = ["TracingBackend", "wrap_backend"]


class TracingBackend(SolverBackend):
    """Per-capability span recording around any :class:`SolverBackend`."""

    def __init__(self, inner: SolverBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    # -- transparent identity ------------------------------------------
    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def supports_shared_adjacency(self) -> bool:  # type: ignore[override]
        return self.inner.supports_shared_adjacency

    def available(self) -> bool:
        return self.inner.available()

    def missing_reason(self) -> str:
        return self.inner.missing_reason()

    def has_capability(self, capability: str) -> bool:
        return self.inner.has_capability(capability)

    def check_adjacency(self, adjacency: Optional["CSRAdjacency"]) -> None:
        self.inner.check_adjacency(adjacency)

    def __repr__(self) -> str:
        return f"<TracingBackend around {self.inner!r}>"

    # -- traced capabilities -------------------------------------------
    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        with self.tracer.span("backend.peel", backend=self.inner.name):
            return self.inner.peel(graph, adjacency)

    def shrink(
        self,
        graph: "Graph",
        x: Dict["Vertex", float],
        subset: Iterable["Vertex"],
        tol: float,
        max_iterations: int = 100_000,
    ) -> "CDResult":
        with self.tracer.span("backend.shrink", backend=self.inner.name):
            return self.inner.shrink(
                graph, x, subset, tol, max_iterations=max_iterations
            )

    def expand(
        self,
        graph: "Graph",
        x: Dict["Vertex", float],
        objective: Optional[float] = None,
    ) -> "ExpansionStep":
        with self.tracer.span("backend.expand", backend=self.inner.name):
            return self.inner.expand(graph, x, objective=objective)

    def seacd(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        max_cd_iterations: int = 100_000,
    ) -> "SEACDResult":
        with self.tracer.span("backend.seacd", backend=self.inner.name):
            return self.inner.seacd(
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
        with self.tracer.span("backend.refine", backend=self.inner.name):
            return self.inner.refine(
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
        with self.tracer.span("backend.new_sea", backend=self.inner.name):
            return self.inner.new_sea(
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
        # The closure itself does the work; building it is bookkeeping.
        with self.tracer.span(
            "backend.vertex_solver", backend=self.inner.name
        ):
            return self.inner.vertex_solver(
                gd_plus,
                tol_scale=tol_scale,
                max_expansions=max_expansions,
                adjacency=adjacency,
            )

    def initialization_plan(
        self,
        gd_plus: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "InitializationPlan":
        with self.tracer.span(
            "backend.initialization_plan", backend=self.inner.name
        ):
            return self.inner.initialization_plan(gd_plus, adjacency)

    def replicator(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        rule: str = "objective",
        tol: float = 1e-6,
        max_iterations: int = 100_000,
    ) -> "ReplicatorResult":
        with self.tracer.span("backend.replicator", backend=self.inner.name):
            return self.inner.replicator(
                graph, x0, rule=rule, tol=tol, max_iterations=max_iterations
            )


def wrap_backend(backend: SolverBackend, tracer: Tracer) -> SolverBackend:
    """Wrap *backend* for *tracer*, idempotently.

    Re-resolving inside an already-traced call (the python NewSEA
    driver resolves per-vertex ``seacd``/``refine`` through the module
    entry points) must not stack wrappers for the same tracer.
    """
    if isinstance(backend, TracingBackend) and backend.tracer is tracer:
        return backend
    return TracingBackend(backend, tracer)


def maybe_wrap(backend: SolverBackend) -> SolverBackend:
    """The registry hook: wrap only when the ambient tracer records."""
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    if tracer.is_noop:
        return backend
    return wrap_backend(backend, tracer)
