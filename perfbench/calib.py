"""Host-speed references that end-to-end times are scaled by.

On a shared host a core's effective speed drifts by tens of percent within
seconds (its hyperthread neighbours come and go), and so does the time the
scheduler takes to hand a request from one process to the next; both
swamp run-to-run comparison of absolute times.  Each figure is therefore
scaled to a reference host by a reference measured beside it:

* ``solve`` (one thread) times :func:`reference_loop` on its own thread
  right before and after every op — the drift is per core, and a loop
  timed in another process barely correlates with the op;
* ``serve`` and ``stream`` (work spread over every core) take
  :class:`CoreSpeed` samples from one pinned process per core, together
  with the host's CPU steal over the same window, and ``serve`` scales
  cache hits — almost pure request path — by :class:`EchoProbe` round
  trips instead.

A scaled time reads as the time on a host where the reference loop takes
:data:`NOMINAL` CPU seconds, the hypervisor steals no CPU time from the
guest, and an echo round trip takes :data:`ECHO_NOMINAL` seconds.  The
references run none of the program's code, so a change to the program
still moves the figures; raw times are printed beside them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, List, Tuple

#: CPU seconds the reference loop takes on the reference core
NOMINAL = 0.0025
#: seconds between two samples of a pinned :class:`CoreSpeed` process
PERIOD = 0.1
#: round-trip seconds through ``echo.py``'s relay on the reference host
ECHO_NOMINAL = 0.0025
#: seconds between two :class:`EchoProbe` round trips
ECHO_PERIOD = 0.05


def reference_loop() -> float:
    """CPU seconds of a fixed integer/dict loop (the interpreter's diet)."""
    start = time.thread_time()
    table: dict = {}
    total = 0
    for i in range(20000):
        total += (i * i) % 7
        table[i & 255] = total
    return time.thread_time() - start


def speed(before: float, after: float) -> float:
    """Scale factor from raw to reference-core time for one op."""
    return NOMINAL / ((before + after) / 2.0)


def _sample_core(cpu: int, stop: Any, conn: Any) -> None:
    from common import cpu_ticks

    os.sched_setaffinity(0, {cpu})
    samples: List[Tuple[float, float, List[int]]] = []
    while not stop.wait(PERIOD):
        samples.append((time.perf_counter(), reference_loop(), cpu_ticks()))
    conn.send(samples)
    conn.close()


class CoreSpeed:
    """Reference-loop samples from one pinned process per core.

    For workloads whose work runs in server processes spread over every
    core, the run's mean core speed is the best available scale: while
    open, each core's process times :func:`reference_loop` every
    :data:`PERIOD` seconds (CPU time, so waiting behind the server does
    not count), and :meth:`factor` scales by the median sample within a
    phase's time window.

    CPU time leaves out the time the hypervisor runs other guests on
    this one's CPUs (steal), which stretches every request of a busy
    server; each sample therefore also reads the host's ``/proc/stat``
    ticks, and :meth:`factor` takes out the steal share of the window.
    Steal is the host's doing, so this hides no change to the program.
    """

    def __enter__(self) -> "CoreSpeed":
        ctx = multiprocessing.get_context("spawn")
        self._stop = ctx.Event()
        self._procs = []
        for cpu in sorted(os.sched_getaffinity(0)):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_sample_core, args=(cpu, self._stop, send), daemon=True)
            proc.start()
            send.close()
            self._procs.append((proc, recv))
        self.samples: List[Tuple[float, float, List[int]]] = []
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        for proc, recv in self._procs:
            if recv.poll(30):
                self.samples += recv.recv()
            recv.close()
            proc.join(30)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Scale from raw to reference-core, steal-free time over
        ``[start, end]`` (``time.perf_counter`` is the system-wide
        monotonic clock)."""
        from common import steal_share

        window = sorted((s for s in self.samples if start <= s[0] <= end), key=lambda s: s[0])
        speed = _factor(NOMINAL, [(t, value) for t, value, _ in window], start, end)
        return speed * (1.0 - steal_share(window[0][2], window[-1][2]))


def _factor(nominal: float, samples: List[Tuple[float, float]], start: float, end: float) -> float:
    window = sorted(value for t, value in samples if start <= t <= end)
    if not window:
        raise RuntimeError("no reference samples in the window")
    return nominal / window[len(window) // 2]


#: what a :class:`KeepAwake` process runs, ``{cpu}`` filled in
_SPIN = (
    "import os\n"
    "os.sched_setaffinity(0, {{{cpu}}})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "print(flush=True)\n"
    "while True:\n"
    "    pass\n"
)


class KeepAwake:
    """One spinning ``SCHED_IDLE`` process per core, while open.

    On a shared host a guest CPU that goes idle is handed back to the
    hypervisor, and waking it for the next request waits for the host
    scheduler: a lightly loaded server (``serve``'s open loop) then pays
    that wait on almost every hop, and it ranges from nothing to several
    milliseconds with the host's load.  On a 2-vCPU guest of a busy host,
    round trips through ``echo.py`` measured 2.9–3.9 ms at the median and
    3.5–9.3 ms at p90 from one seven-second window to the next, against
    2.7–2.9 and 2.9–3.3 ms with these processes running.  Kept busy, the
    CPUs are never idle; the kernel runs a ``SCHED_IDLE`` task only when
    nothing else wants the CPU and preempts it at once when anything
    does, so the program's processes lose no CPU time to it.
    """

    def __enter__(self) -> "KeepAwake":
        import subprocess
        import sys

        self._procs = [
            subprocess.Popen([sys.executable, "-c", _SPIN.format(cpu=cpu)], stdout=subprocess.PIPE)
            for cpu in sorted(os.sched_getaffinity(0))
        ]
        for proc in self._procs:
            proc.stdout.readline()  # spinning, at idle priority
        return self

    def __exit__(self, *exc: Any) -> None:
        for proc in self._procs:
            proc.kill()
            proc.wait()
            proc.stdout.close()


class EchoProbe:
    """Round trips to ``echo.py``, sampled every :data:`ECHO_PERIOD` s.

    A cache hit costs the service almost no computation: its latency is
    the request path — connects, wakeups and hand-offs between the
    client, the router, a worker and its thread pool — and on a shared
    host that moves with the scheduler, not with core speed.  A hit's
    latency is scaled by ``ECHO_NOMINAL / median(round trip)`` over its
    phase, the round trip passing through ``echo.py``'s relay and
    responder — the same process and thread hand-offs as a hit.  The
    references run none of the program's code, so a slower request path
    in the program still shows.
    """

    def __enter__(self) -> "EchoProbe":
        import subprocess
        import sys
        import threading

        echo = os.path.join(os.path.dirname(os.path.abspath(__file__)), "echo.py")
        self._procs: List[Any] = []

        def spawn(*args: str) -> int:
            proc = subprocess.Popen([sys.executable, echo, *args], stdout=subprocess.PIPE, text=True)
            self._procs.append(proc)
            assert proc.stdout is not None
            return int(proc.stdout.readline())

        self.port = spawn("--via", str(spawn()))
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, daemon=True)
        self._thread.start()
        return self

    def _probe(self) -> None:
        from client import request

        while not self._stop.wait(ECHO_PERIOD):
            start = time.perf_counter()
            if request(self.port, "GET", "/", timeout=5.0).status == 200:
                self.samples.append((start, time.perf_counter() - start))

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(10)
        for proc in reversed(self._procs):
            proc.terminate()
            proc.wait(10)
            if proc.stdout is not None:
                proc.stdout.close()

    def factor(self, start: float, end: float) -> float:
        return _factor(ECHO_NOMINAL, self.samples, start, end)
