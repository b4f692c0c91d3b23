"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead :func:`install` swaps each
layer's public entry points — module functions, methods, properties and
the names other modules imported them under — for thin wrappers that
time the call, and :func:`uninstall` puts the originals back.

Spans are aggregated, not logged: hot functions (a CD step, a window
observe) run thousands of times per op, so each span only adds its
duration and its *self* time (duration minus the time its child spans
cover) to a per-name total in the active :class:`Recorder`.  The parent
link lives in a context variable, so concurrent asyncio tasks keep
separate stacks; work the service hands to its thread pool is re-parented
onto the submitting span explicitly (see :func:`_wrap_submit`).

Span names start with the layer they time (``core.cd``,
``service.app.handle``); ``bench.*`` spans are the benchmark's own ops.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


_CURRENT: "contextvars.ContextVar[Optional[_Frame]]" = contextvars.ContextVar(
    "perfbench_frame", default=None
)


class Recorder:
    """Per-bucket, per-span ``[self_s, total_s, calls]`` totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bucket = "all"
        self.stats: Dict[str, Dict[str, List[float]]] = {}

    def add(self, name: str, self_s: float, total_s: float) -> None:
        with self._lock:
            row = self.stats.setdefault(self.bucket, {}).setdefault(
                name, [0.0, 0.0, 0]
            )
            row[0] += self_s
            row[1] += total_s
            row[2] += 1

    def reset(self) -> None:
        with self._lock:
            self.stats = {}

    def snapshot(self) -> Dict[str, Dict[str, List[float]]]:
        """A copy that is safe to take without the lock (signal handlers)."""
        for _ in range(5):
            try:
                return {
                    bucket: {name: list(row) for name, row in rows.items()}
                    for bucket, rows in list(self.stats.items())
                }
            except RuntimeError:  # resized mid-copy by a pool thread
                continue
        return {}


#: the recorder every installed wrapper reports to
RECORDER = Recorder()


def _finish(name: str, frame: _Frame, parent: Optional[_Frame], start: float) -> None:
    total = _perf() - start
    RECORDER.add(name, total - frame.child, total)
    if parent is not None:
        parent.child += total


def span_sync(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent = _CURRENT.get()
        frame = _Frame()
        token = _CURRENT.set(frame)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            _finish(name, frame, parent, start)

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def span_async(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent = _CURRENT.get()
        frame = _Frame()
        token = _CURRENT.set(frame)
        start = _perf()
        try:
            return await fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            _finish(name, frame, parent, start)

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def root(name: str) -> "_Root":
    """A span the benchmark opens around one of its own ops."""
    return _Root(name)


class _Root:
    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_Root":
        self.parent = _CURRENT.get()
        self.frame = _Frame()
        self.token = _CURRENT.set(self.frame)
        self.start = _perf()
        return self

    def __exit__(self, *exc: Any) -> None:
        _CURRENT.reset(self.token)
        _finish(self.name, self.frame, self.parent, self.start)


def _wrap_submit(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``ServiceApp._submit``: time the admission wait and re-parent the
    pool-thread work onto the submitting span.

    ``loop.run_in_executor`` does not carry context variables into the
    pool thread, so without this the solve's spans would have no parent
    and the admission span would count the whole solve as its own time.
    """

    @functools.wraps(fn)
    async def wrapper(self: Any, work: Callable[[], Any], deadline: Any) -> Any:
        parent = _CURRENT.get()
        frame = _Frame()
        token = _CURRENT.set(frame)
        start = _perf()

        def job() -> Any:
            begin = _perf()
            wait = begin - start
            RECORDER.add("service.app.queue_wait", wait, wait)
            frame.child += wait
            inner = _CURRENT.set(frame)
            try:
                return work()
            finally:
                _CURRENT.reset(inner)

        try:
            return await fn(self, job, deadline)
        finally:
            _CURRENT.reset(token)
            _finish("service.app.submit", frame, parent, start)

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


# (module, attribute path, span name, kind); kind is "sync", "async",
# "property" or "submit".  Names re-bound by ``from x import f`` in other
# modules are listed too, so every call site goes through a wrapper.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    # core: solvers and kernels
    ("repro.peeling.greedy", "greedy_peel", "core.peel", "sync"),
    ("repro.core.dcsad", "greedy_peel", "core.peel", "sync"),
    ("repro.core.dcsad", "dcs_greedy", "core.dcsad", "sync"),
    ("repro.core.newsea", "new_sea", "core.new_sea", "sync"),
    ("repro.core.initialization", "smart_initialization_plan", "core.init_plan", "sync"),
    ("repro.core.newsea", "smart_initialization_plan", "core.init_plan", "sync"),
    ("repro.core.coordinate_descent", "coordinate_descent", "core.cd", "sync"),
    ("repro.core.seacd", "coordinate_descent", "core.cd", "sync"),
    ("repro.core.refinement", "coordinate_descent", "core.cd", "sync"),
    ("repro.core.sparse_solvers", "coordinate_descent_csr", "core.cd", "sync"),
    ("repro.core.expansion", "expansion_step", "core.expand", "sync"),
    ("repro.core.seacd", "expansion_step", "core.expand", "sync"),
    ("repro.core.sparse_solvers", "expansion_step_csr", "core.expand", "sync"),
    ("repro.core.refinement", "_refine_python", "core.refine", "sync"),
    ("repro.core.sparse_solvers", "_refine_vec", "core.refine", "sync"),
    ("repro.core.kkt", "is_kkt_point", "core.kkt", "sync"),
    # engine: prepared graphs, the solve entry point, the envelope, shm
    ("repro.engine.envelope", "solve", "engine.solve", "sync"),
    ("repro.engine", "solve", "engine.solve", "sync"),
    ("repro.service.app", "solve", "engine.solve", "sync"),
    ("repro.batch.executor", "solve", "engine.solve", "sync"),
    ("repro.stream.engine", "solve", "engine.solve", "sync"),
    ("repro.engine.envelope", "SolveResult.to_record", "engine.envelope", "sync"),
    ("repro.engine.envelope", "SolveResult.canonical_json", "engine.envelope", "sync"),
    ("repro.engine.envelope", "SolveResult.to_json", "engine.envelope", "sync"),
    ("repro.engine.prepared", "PreparedGraph.gd_plus", "engine.prepare", "property"),
    ("repro.engine.prepared", "PreparedGraph.fingerprint", "engine.prepare", "property"),
    ("repro.engine.prepared", "PreparedGraph.csr", "engine.prepare", "sync"),
    ("repro.engine.prepared", "PreparedGraph.csr_plus", "engine.prepare", "sync"),
    ("repro.engine.shm", "SharedGraphStore.export", "engine.shm.export", "sync"),
    ("repro.engine.shm", "SharedGraphStore.attach", "engine.shm.attach", "sync"),
    # batch
    ("repro.batch.executor", "BatchExecutor.run", "batch.run", "sync"),
    ("repro.batch.cache", "ResultCache.get", "batch.cache.get", "sync"),
    ("repro.batch.cache", "ResultCache.put", "batch.cache.put", "sync"),
    # service
    ("repro.service.http", "_handle_connection", "service.http.conn", "async"),
    ("repro.service.http", "read_request", "service.http.read", "async"),
    ("repro.service.http", "write_response", "service.http.write", "async"),
    ("repro.service.app", "ServiceApp.handle", "service.app.handle", "async"),
    ("repro.service.app", "ServiceApp._submit", "service.app.submit", "submit"),
    ("repro.service.cluster", "ClusterRouter.handle", "service.cluster.route", "async"),
    ("repro.service.cluster", "send_request", "service.cluster.forward", "async"),
    ("repro.service.registry", "GraphRegistry.register_pair", "service.registry.register", "sync"),
    ("repro.service.registry", "GraphRegistry.resolve", "service.registry.resolve", "sync"),
    ("repro.service.registry", "GraphRegistry.register_shared", "service.registry.announce", "sync"),
    ("repro.service.sessions", "SessionManager.apply_events", "service.sessions.apply", "sync"),
    ("repro.service.sessions", "SessionManager.alerts_since", "service.sessions.poll", "sync"),
    ("repro.service.sessions", "SessionManager.create", "service.sessions.create", "sync"),
    ("repro.service.sessions", "SessionManager.close", "service.sessions.close", "sync"),
    # stream
    ("repro.stream.engine", "StreamingDCSEngine.ingest", "stream.engine", "sync"),
    ("repro.stream.engine", "StreamingDCSEngine.advance_to", "stream.engine", "sync"),
    ("repro.stream.engine", "solve_difference", "stream.solve", "sync"),
    ("repro.stream.window", "SlidingWindowAccumulator.observe", "stream.window", "sync"),
    ("repro.stream.window", "SlidingWindowAccumulator.close_step", "stream.window", "sync"),
)

#: every outgoing TCP connect; only the router's forwards open any
_CONNECT = ("asyncio", "open_connection", "service.cluster.connect", "async")


class _Installed:
    def __init__(self) -> None:
        self.undo: List[Tuple[Any, str, Any]] = []


_STATE = _Installed()


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install() -> None:
    """Wrap every target (idempotent)."""
    if _STATE.undo:
        return
    for module, path, name, kind in TARGETS + (_CONNECT,):
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "property":
            wrapped: Any = property(span_sync(name, original.fget))
        elif kind == "submit":
            wrapped = _wrap_submit(original)
        elif kind == "async":
            wrapped = span_async(name, original)
        else:
            wrapped = span_sync(name, original)
        setattr(owner, attr, wrapped)
        _STATE.undo.append((owner, attr, original))


def uninstall() -> None:
    while _STATE.undo:
        owner, attr, original = _STATE.undo.pop()
        setattr(owner, attr, original)


def self_total(rows: Dict[str, List[float]]) -> float:
    """Sum of self times over every layer span in *rows* (bench roots
    excluded)."""
    return sum(row[0] for name, row in rows.items() if not name.startswith("bench."))


def merge(*snapshots: Dict[str, List[float]]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for rows in snapshots:
        for name, row in rows.items():
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += row[0]
            acc[1] += row[1]
            acc[2] += row[2]
    return out

