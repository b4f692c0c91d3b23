"""Benchmark of the DCS stack: ``solve``, ``serve`` and ``stream`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` repeats the measurement with layer spans recorded and prints
every per-layer metric instead.  Human-readable lines (machine stamp,
sample counts, problems) start with ``#``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Every answer is checked; a failed check counts as a failed op, and any
failed op or teardown violation makes ``correct`` false; so does a
process the run started that is still running when it ends (it is
killed and waited for, as is every other on any way out).  The program is
run from ``src/`` as it is: nothing under ``src/`` is modified, and the
traced run wraps the program's public functions from the outside.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from common import ROOT, SRC, Metrics, Outcome, become_subreaper, cpu_ticks, emit, hash_seed, reap, stamp, steal_share

WORKLOADS = ("solve", "serve", "stream")


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    wanted_seed = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted_seed:
        # Hash order feeds the python backend's float sums: every process
        # of a run, this one included, takes its hash seed from --seed.
        env = dict(os.environ, PYTHONHASHSEED=wanted_seed)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, env)
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import traced
    import wl_serve
    import wl_solve
    import wl_stream

    workload = {"solve": wl_solve, "serve": wl_serve, "stream": wl_stream}[args.workload]
    outcome, metrics = Outcome(), Metrics()
    info = {"stamp": stamp(args.seed), "workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    ticks = cpu_ticks()
    become_subreaper()
    try:
        workload.run(args.seed, args.seconds, bool(args.trace), outcome, metrics, info)
    except Exception:  # the run failed outright: report it, print no result
        traceback.print_exc()
        return 1
    finally:
        # no process the run started outlives it, on any path out
        killed = reap()
        for command in killed:
            print(f"# killed leftover process: {command}", file=sys.stderr)
    for command in killed:
        outcome.violation(f"process outlived the run: {command}")
    info["host_steal_share"] = steal_share(ticks, cpu_ticks())
    if args.trace:
        traced.fill_defaults(metrics)
    emit(outcome, metrics, wanted, info)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
