"""Microbenchmarks for the batched simulation backend.

Times the per-access oracle engine (``backend="python"``) against the
vectorized batch engine (``backend="numpy"``) on a stencil-256 Base plan
— 262144 accesses, the trace scale of the paper's per-figure runs —
across machines that exercise the backend's two regimes: an all-private
two-level hierarchy (every access batches; the replay heap is empty) and
the commercial topologies whose shared L2/L3 suffixes must be replayed
probe by probe in oracle order.  Each machine runs at the experiment
harness's simulation scale and at both the default interleaving quantum
and ``quantum=1`` (the finest-grained oracle setting; quantum only
changes engine *overhead*, never results, so the batch engine's time is
flat while the oracle pays per-chunk heap traffic).

Results are cross-checked for bit-identity before timing — a reported
speedup is always a speedup on verified-identical work.  Timings are
best-of-N wall clock, mirroring ``repro.kernels.bench``.

Run directly::

    PYTHONPATH=src python -m repro.sim.bench [--out BENCH_sim.json]

or through the pytest wrapper in ``benchmarks/perf/``.
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Callable

from repro.kernels import have_numpy
from repro.kernels.bench import best_of, stencil_nest, write_report
from repro.mapping.baselines import base_plan
from repro.sim.engine import SimConfig, simulate_plan
from repro.topology.cache import CacheSpec
from repro.topology.machines import KB, _uniform_tree, dunnington, nehalem
from repro.topology.tree import Machine

#: Cache-capacity divisor applied to every bench machine; the same scale
#: the experiment harness uses (see repro.experiments.harness).
SIM_SCALE_DENOM = 32


def private_l1l2() -> Machine:
    """Eight cores with private L1+L2 and no shared cache.

    The pure-batch regime: every access is resolved in the vectorized
    private-level pass and the shared replay has nothing to do.
    """
    l1 = CacheSpec("L1", 32 * KB, 8, 64, 4)
    l2 = CacheSpec("L2", 256 * KB, 8, 64, 10)
    root = _uniform_tree(8, [(l1, 1), (l2, 1)])
    return Machine("private-l1l2", 2.9, 174, root, sockets=2)


MACHINES: dict[str, Callable[[], Machine]] = {
    "private-l1l2": private_l1l2,
    "nehalem": nehalem,
    "dunnington": dunnington,
}

#: (machine, quantum) timing configurations.
SIM_CONFIGS = (
    ("private-l1l2", 8),
    ("private-l1l2", 1),
    ("nehalem", 8),
    ("nehalem", 1),
    ("dunnington", 8),
    ("dunnington", 1),
)

#: Tiny variant for the tier-1 structure smoke test.
SMOKE_N = 48
DEFAULT_N = 256


def bench_sim(machine_name: str, quantum: int, n: int = DEFAULT_N,
              repeats: int = 3) -> dict:
    """One oracle-vs-batched timing entry; backends cross-checked first."""
    machine = MACHINES[machine_name]().with_scaled_caches(1.0 / SIM_SCALE_DENOM)
    nest, _ = stencil_nest(n, 2048)
    plan = base_plan(nest, machine)

    def run(backend: str):
        config = SimConfig(quantum=quantum, backend=backend)
        return simulate_plan(plan, machine=machine, config=config)

    oracle = run("python")
    batched = run("numpy")
    if oracle != batched:
        raise AssertionError(
            f"engines disagree on {machine_name} q={quantum}: "
            f"{oracle} != {batched}"
        )
    oracle.verify_conservation()

    python_s = best_of(lambda: run("python"), repeats)
    numpy_s = best_of(lambda: run("numpy"), repeats)
    return {
        "machine": machine_name,
        "quantum": quantum,
        "accesses": oracle.total_accesses,
        "cycles": oracle.cycles,
        "python_ms": round(python_s * 1e3, 3),
        "numpy_ms": round(numpy_s * 1e3, 3),
        "speedup": round(python_s / numpy_s, 4),
    }


def run_suite(configs=None, n: int = DEFAULT_N, repeats: int = 3) -> dict:
    """The full simulator benchmark report as a JSON-serializable dict."""
    if configs is None:
        configs = SIM_CONFIGS
    if not have_numpy():
        raise RuntimeError("simulator microbenchmarks need numpy")
    import numpy

    entries = [
        bench_sim(machine_name, quantum, n=n, repeats=repeats)
        for machine_name, quantum in configs
    ]
    return {
        "suite": "repro.sim batched-backend microbenchmarks",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trace": f"stencil-{n} Base plan, sim scale 1/{SIM_SCALE_DENOM}",
        "timing": f"best of {repeats}, warm",
        "entries": entries,
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--n", type=int, default=DEFAULT_N,
                        help="stencil size (default 256)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    start = time.perf_counter()
    report = run_suite(n=args.n, repeats=args.repeats)
    write_report(report, args.out)
    for entry in report["entries"]:
        print(
            f"{entry['machine']:14s} q={entry['quantum']}  "
            f"py {entry['python_ms']:8.1f}ms  np {entry['numpy_ms']:8.1f}ms  "
            f"{entry['speedup']:5.2f}x"
        )
    print(f"wrote {args.out} ({time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
