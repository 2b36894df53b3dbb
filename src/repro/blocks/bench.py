"""Micro-benchmark: trace-based tagging cost per irregular kernel.

The trace fallback replays every (iteration, reference) event in pure
Python, so its cost — unlike the vectorized affine path — scales
linearly with the nest and cannot hide behind NumPy.  This module times
:class:`~repro.blocks.analysis.TraceAnalysis` on each registry kernel of
the irregular suite and writes ``BENCH_tagging.json`` in the shape
``scripts/bench_check.py`` reads.  The suite is registered there as
*informational*: millisecond-scale numbers on shared runners are
noise-bound, but the trend is recorded on every CI run.

The budget is per recorded event rather than per nest — kernels of very
different sizes share one knob that way.  The ``speedup`` metric is
``budget_ms / measured_ms`` for the whole nest: >1 means under budget,
and a drop against the committed baseline means trace tagging got
slower.

Usage::

    PYTHONPATH=src python -m repro.blocks.bench --out BENCH_tagging.json
"""

from __future__ import annotations

import argparse
import json
import time

from repro.blocks.analysis import TraceAnalysis
from repro.blocks.datablocks import DataBlockPartition
from repro.workloads import irregular_workloads

#: Time allowance per trace event (iterations x references).  10 µs per
#: event is ~5x the interpreter cost observed on an idle machine — slack
#: for shared CI runners, tight enough to catch an accidental
#: quadratic-cost regression.
DEFAULT_BUDGET_US_PER_EVENT = 10.0
DEFAULT_REPEATS = 3


def time_workload(app, repeats: int) -> tuple[float, int, int]:
    """Best-of-N wall time (ms) for trace tagging one registry kernel,
    plus the trace length and resulting group count."""
    program = app.program()
    nest = app.nest()
    arrays = [program.arrays[a.name] for a in nest.arrays()]
    partition = DataBlockPartition(arrays, app.block_size())
    analysis = TraceAnalysis()
    best = float("inf")
    groups = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = analysis.tag(nest, partition)
        best = min(best, (time.perf_counter() - start) * 1000.0)
        groups = len(result.groups)
    events = nest.iteration_count() * len(nest.accesses)
    return best, events, groups


def run(
    budget_us_per_event: float = DEFAULT_BUDGET_US_PER_EVENT,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    entries = []
    for app in irregular_workloads():
        ms, events, groups = time_workload(app, repeats)
        budget_ms = budget_us_per_event * events / 1000.0
        entries.append({
            "kernel": app.name,
            "ms": round(ms, 3),
            "events": events,
            "groups": groups,
            "budget_ms": round(budget_ms, 3),
            "speedup": round(budget_ms / ms, 4) if ms else 0.0,
        })
    return {
        "suite": "tagging",
        "config": {
            "repeats": repeats,
            "budget_us_per_event": budget_us_per_event,
        },
        "entries": entries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_tagging.json")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--budget-us-per-event", type=float,
                        default=DEFAULT_BUDGET_US_PER_EVENT)
    args = parser.parse_args(argv)

    report = run(budget_us_per_event=args.budget_us_per_event,
                 repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for entry in report["entries"]:
        flag = "" if entry["ms"] <= entry["budget_ms"] else "  OVER BUDGET"
        print(f"{entry['kernel']:<14} {entry['ms']:8.2f}ms "
              f"({entry['events']} events, {entry['groups']} groups, "
              f"budget {entry['budget_ms']:.0f}ms){flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
