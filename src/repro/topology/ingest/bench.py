"""Micro-benchmark: sysfs parse + normalize time per zoo fixture.

Ingestion sits on the interactive path (``repro map --machine
sysfs:/sys`` pays it before any mapping starts), so it has a latency
budget: parse+normalize of the *largest* fixture (epyc2p, 32 cpus, 72
cache instances) should stay under ~100 ms.  This module times every
fixture and writes ``BENCH_ingest.json`` in the shape
``scripts/bench_check.py`` reads; the suite is registered there as
*informational* — shared-runner noise on a millisecond-scale number
should never fail a build, but the trend is recorded on every CI run.

The ``speedup`` metric is ``budget_ms / measured_ms``: >1 means under
budget, and a regression means ingestion got slower relative to the
committed baseline.

Usage::

    PYTHONPATH=src python -m repro.topology.ingest.bench --out BENCH_ingest.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.topology.ingest.normalize import normalize
from repro.topology.ingest.sysfs import load_sysfs
from repro.topology.ingest.zoo import zoo_dir, zoo_entries

DEFAULT_BUDGET_MS = 100.0
DEFAULT_REPEATS = 5


def time_fixture(path: str, smt_policy: str, repeats: int) -> float:
    """Best-of-N wall time (ms) for load+normalize of one dump."""
    from repro.topology.ingest.normalize import NormalizeOptions

    options = NormalizeOptions(smt_policy=smt_policy)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        normalize(load_sysfs(path), options)
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def run(budget_ms: float = DEFAULT_BUDGET_MS, repeats: int = DEFAULT_REPEATS) -> dict:
    directory = zoo_dir()
    entries_out = []
    for name, entry in sorted(zoo_entries().items()):
        path = os.path.join(directory, entry.file)
        ms = time_fixture(path, entry.smt_policy, repeats)
        entries_out.append({
            "fixture": name,
            "ms": round(ms, 3),
            "budget_ms": budget_ms,
            "speedup": round(budget_ms / ms, 4) if ms else 0.0,
        })
    largest = max(entries_out, key=lambda e: e["ms"], default=None)
    return {
        "suite": "ingest",
        "config": {"repeats": repeats, "budget_ms": budget_ms},
        "entries": entries_out,
        "largest": largest,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_ingest.json")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--budget-ms", type=float, default=DEFAULT_BUDGET_MS)
    args = parser.parse_args(argv)

    report = run(budget_ms=args.budget_ms, repeats=args.repeats)
    if not report["entries"]:
        print("no fixture corpus found; run scripts/gen_zoo_fixtures.py",
              file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for entry in report["entries"]:
        flag = "" if entry["ms"] <= args.budget_ms else "  OVER BUDGET"
        print(f"{entry['fixture']:<16} {entry['ms']:8.2f}ms "
              f"(budget {args.budget_ms:.0f}ms){flag}")
    largest = report["largest"]
    print(f"largest: {largest['fixture']} at {largest['ms']:.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
