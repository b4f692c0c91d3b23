"""Layer tracing for server processes started by the benchmark.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one; the benchmark puts this directory first on the
``PYTHONPATH`` of traced servers only, and the router hands that
environment to the workers it spawns.  Nothing happens unless
``PERFBENCH_TRACE_DIR`` is set.  Then:

* ``SIGUSR1`` installs the layer wrappers and zeroes the totals;
* ``SIGUSR2`` writes the totals to ``$PERFBENCH_TRACE_DIR/<pid>.json``
  and removes the wrappers.

The benchmark sends both only while no request is in flight, so the
dump covers exactly its traced phase.
"""

import os

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _TRACE_DIR:
    import json
    import signal
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers

    def _start(signum, frame):
        layers.install()
        layers.RECORDER.reset()

    def _dump(signum, frame):
        snapshot = layers.RECORDER.snapshot()
        layers.uninstall()
        path = os.path.join(_TRACE_DIR, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, _start)
    signal.signal(signal.SIGUSR2, _dump)
