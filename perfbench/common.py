"""Shared pieces of the benchmark: stamps, percentiles, results, processes.

Nothing here imports ``repro`` at module level, so the self-tests and the
argument parser work before the program's sources are on the path.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import math
import os
import platform
import resource
import signal
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: the repository root of the checkout the benchmark runs in
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the program's sources (``src`` layout, no install step)
SRC = os.path.join(ROOT, "src")
#: where server logs and trace dumps go (ignored by git)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
#: the directory holding the benchmark's ``sitecustomize`` for traced servers
SITE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "site")

#: samples a tail percentile must leave above it before it is reported
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of *samples* (Harrell-Davis estimate).

    Refuses (:class:`TooFewSamples`) unless at least :data:`MIN_BEYOND`
    samples lie strictly above the quantile's position, so a reported
    tail always rests on ten or more observations beyond it.  The
    Harrell-Davis estimator weights every order statistic by a Beta
    kernel centred on the quantile instead of reading one or two of
    them, which keeps a tail steady when it falls between the modes of
    a mixed workload.
    """
    n = len(samples)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    position = q * (n - 1)
    beyond = n - 1 - math.floor(position) if n else 0
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it; "
            f"{MIN_BEYOND} needed"
        )
    from scipy.stats import beta

    cdf = beta.cdf([i / n for i in range(n + 1)], q * (n + 1), (1.0 - q) * (n + 1))
    ordered = sorted(samples)
    return float(sum((cdf[i + 1] - cdf[i]) * ordered[i] for i in range(n)))


def samples_needed(q: float) -> int:
    """The smallest sample count :func:`percentile` accepts for *q*."""
    n = 1
    while True:
        if n - 1 - math.floor(q * (n - 1)) >= MIN_BEYOND:
            return n
        n += 1


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` every process of a run uses, from its seed."""
    return str(seed % 4294967296)


def stamp(seed: int) -> Dict[str, Any]:
    """Machine and toolchain facts every result carries."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - the program needs numpy
        numpy_version = None
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - the sparse backend needs scipy
        scipy_version = None
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def program_env(trace_dir: Optional[str] = None) -> Dict[str, str]:
    """Environment for a program subprocess: sources on the path, the
    run's hash seed inherited, and — for traced runs — the benchmark's
    ``sitecustomize`` ahead of everything else."""
    env = dict(os.environ)
    paths = [SRC]
    if trace_dir is not None:
        paths.insert(0, SITE_DIR)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def cpu_ticks() -> List[int]:
    """Host-wide ``/proc/stat`` CPU ticks: ``[total, steal]``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return [sum(fields), fields[7] if len(fields) > 7 else 0]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between.

    Server-workload latencies track it closely on a shared host, so every
    result states it.
    """
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: ``prctl`` option that makes orphaned descendants this process's children
PR_SET_CHILD_SUBREAPER = 36
#: seconds descendants get to end on their own before :func:`reap` kills them
REAP_GRACE = 10.0


def become_subreaper() -> None:
    """Adopt every descendant whose parent ends before it does.

    A multiprocessing resource tracker, for one, outlives the process
    that started it by a moment and is then re-parented; as a subreaper
    this process inherits it and :func:`reap` can wait for it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> List[int]:
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            out.append(int(entry))
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace").strip()[:120]
    except OSError:
        return "?"


def reap(grace: float = REAP_GRACE) -> List[str]:
    """Wait until every descendant of this process has ended.

    Stops this process's own resource tracker, gives the rest *grace*
    seconds to end on their own, then kills whatever is left (and
    anything re-parented to this process later) and waits for it.
    Returns the command lines of the processes it had to kill.
    """
    from multiprocessing import resource_tracker

    # closes the tracker's pipe and waits for it; a no-op if none runs
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    killed: Dict[int, str] = {}
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return list(killed.values())
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                if child not in killed:
                    killed[child] = _cmdline(child)
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        time.sleep(0.02)


class Metrics:
    """Named metric values with units and the sample count behind each."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}

    def put(self, name: str, value: float, unit: str, n: Optional[int] = None) -> None:
        self.values[name] = {"value": float(value), "unit": unit, "n": n}

    def latency(self, prefix: str, samples_s: Sequence[float], qs: Sequence[float]) -> None:
        """``<prefix>_p<q>_ms`` for each quantile of *samples_s* (seconds)."""
        for q in qs:
            self.put(
                f"{prefix}_p{int(round(q * 100))}_ms",
                percentile(samples_s, q) * 1000.0,
                "ms",
                len(samples_s),
            )


class Outcome:
    """What one run attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(why)

    def check_failed(self, why: str) -> None:
        """A check across ops already counted failed (one op's worth)."""
        self.failed += 1
        self.note(why)

    def violation(self, why: str) -> None:
        """A failed check that is not an op (teardown, sample counts)."""
        self.problems.append(why)

    def note(self, why: str) -> None:
        if why and len(self.problems) < 50:
            self.problems.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def emit(outcome: Outcome, metrics: Metrics, wanted: Sequence[Dict[str, str]], info: Dict[str, Any]) -> None:
    """Print the human summary, then the one-line JSON result last.

    Every *wanted* metric appears in the result; a metric the run could
    not produce marks the run incorrect instead of being invented.
    """
    for key, value in sorted(info.items()):
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    out: Dict[str, Any] = {}
    correct = outcome.correct
    for spec in wanted:
        entry = metrics.values.get(spec["name"])
        if entry is None:
            print(f"# missing metric: {spec['name']}")
            correct = False
            continue
        count = "" if entry["n"] is None else f" (n={entry['n']})"
        print(f"# {spec['name']} = {entry['value']:.6g} {entry['unit']}{count}")
        out[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": out,
            },
            sort_keys=True,
        ),
        flush=True,
    )


def now() -> float:
    return time.perf_counter()
