"""Pipeline stage-reuse benchmark (the BENCH_pipeline.json producer).

Times the knob sweep the stage cache was built for: eight knob points
that share everything up to the scheduling stage (six α/β pairs) or up
to distribution (two balance thresholds), swept twice —

* **cold**: a fresh pipeline with no artifact store per point — every
  point pays the full blocksize → tagging → dependence → distribute →
  schedule chain (the pre-refactor cost model);
* **warm**: one shared :class:`~repro.pipeline.store.ArtifactStore`
  across the sweep — the first point computes, the α/β points replay
  four of five stages, the balance points replay three.

Plans are cross-checked for bit-identity between the two sweeps before
timing, so a reported speedup is always a speedup on verified-identical
results.  Two workloads cover the chain's two expensive regimes: a
sequential banded loop (dependence graph + clustering dominate) and a
parallel 2-D stencil (tagging + clustering dominate).

Run directly::

    PYTHONPATH=src python -m repro.pipeline.bench [--out BENCH_pipeline.json]

or through the pytest wrapper in ``benchmarks/perf/``.
"""

from __future__ import annotations

import platform
import time

from repro.kernels.bench import write_report
from repro.lang import compile_source
from repro.pipeline.knobs import Knobs
from repro.pipeline.store import ArtifactStore
from repro.topology.cache import CacheSpec
from repro.topology.tree import Machine, TopologyNode

#: The swept knob points: (alpha, beta, balance_threshold).  Six α/β
#: pairs reuse through distribution; the last two change the balance
#: threshold and reuse through dependence analysis.
KNOB_POINTS = (
    (0.5, 0.5, 0.10),
    (0.3, 0.7, 0.10),
    (0.7, 0.3, 0.10),
    (0.1, 0.9, 0.10),
    (0.9, 0.1, 0.10),
    (0.2, 0.8, 0.10),
    (0.5, 0.5, 0.05),
    (0.3, 0.7, 0.05),
)

#: Default workload sizes; the smoke variant in tests uses smaller ones.
DEFAULT_BAND_M = 512
DEFAULT_STENCIL_N = 32


def bench_machine(cores: int = 8) -> Machine:
    """An 8-core, three-level tree (private L1s, paired L2s, one L3)."""
    l1 = CacheSpec("L1", 1024, 2, 32, 2)
    l2 = CacheSpec("L2", 4096, 4, 32, 8)
    l3 = CacheSpec("L3", 16384, 8, 32, 20)
    leaves = [
        TopologyNode.cache(l1, [TopologyNode.core(i)]) for i in range(cores)
    ]
    l2s = [TopologyNode.cache(l2, leaves[i : i + 2]) for i in range(0, cores, 2)]
    return Machine(f"bench{cores}", 2.0, 100, TopologyNode.cache(l3, l2s),
                   sockets=1)


def banded_workload(m: int):
    """Sequential banded loop: the dependence-heavy regime."""
    source = f"""
    param k = 2;
    array B[{m}];
    for (j = 4; j < {m - 4}; j++)
      B[j] = B[j] + B[j - 2*2];
    """
    return compile_source(source, name=f"band{m}")


def stencil_workload(n: int):
    """Parallel 5-point stencil: the tagging-heavy regime."""
    source = f"""
    array U[{n + 2}][{n + 2}];
    array V[{n + 2}][{n + 2}];
    parallel for (i = 1; i <= {n}; i++)
      for (j = 1; j <= {n}; j++)
        V[i][j] = U[i][j] + U[i-1][j] + U[i+1][j] + U[i][j-1] + U[i][j+1];
    """
    return compile_source(source, name=f"stencil{n}")


def _knobs(alpha: float, beta: float, balance: float, block_size: int) -> Knobs:
    return Knobs(
        block_size=block_size,
        balance_threshold=balance,
        alpha=alpha,
        beta=beta,
        local_scheduling=True,
    )


def _sweep(machine, program, block_size: int, store: ArtifactStore | None):
    """Map the program's first nest at every knob point; return
    (elapsed seconds, plan rounds per point)."""
    from repro.pipeline.core import MappingPipeline

    nest = program.nests[0]
    plans = []
    started = time.perf_counter()
    for alpha, beta, balance in KNOB_POINTS:
        knobs = _knobs(alpha, beta, balance, block_size)
        pipeline = MappingPipeline(machine, knobs, store=store)
        plans.append(pipeline.map_nest(program, nest).plan().rounds)
    return time.perf_counter() - started, plans


def bench_sweep(name: str, program, block_size: int, repeats: int = 1) -> dict:
    """One cold-vs-warm sweep entry; sweeps cross-checked first."""
    machine = bench_machine()

    cold_plans = warm_plans = None
    cold_s = warm_s = float("inf")
    for _ in range(max(1, repeats)):
        elapsed, cold_plans = _sweep(machine, program, block_size, None)
        cold_s = min(cold_s, elapsed)
    for _ in range(max(1, repeats)):
        elapsed, warm_plans = _sweep(
            machine, program, block_size, ArtifactStore(capacity=64)
        )
        warm_s = min(warm_s, elapsed)

    if cold_plans != warm_plans:
        raise AssertionError(
            f"stage reuse changed a plan on {name}: cold and warm sweeps "
            "disagree"
        )

    return {
        "workload": name,
        "machine": machine.name,
        "knob_points": len(KNOB_POINTS),
        "cold_ms": round(cold_s * 1e3, 3),
        "warm_ms": round(warm_s * 1e3, 3),
        "speedup": round(cold_s / warm_s, 4),
    }


def run_suite(repeats: int = 1, band_m: int = DEFAULT_BAND_M,
              stencil_n: int = DEFAULT_STENCIL_N) -> dict:
    """The full pipeline-reuse benchmark report as a JSON-serializable dict."""
    entries = [
        bench_sweep(f"band{band_m}", banded_workload(band_m), 32,
                    repeats=repeats),
        bench_sweep(f"stencil{stencil_n}", stencil_workload(stencil_n), 64,
                    repeats=repeats),
    ]
    return {
        "suite": "repro.pipeline stage-reuse benchmark",
        "python": platform.python_version(),
        "sweep": f"{len(KNOB_POINTS)} knob points "
                 "(6 alpha/beta pairs + 2 balance thresholds)",
        "timing": f"best of {repeats}, cold store vs shared store",
        "entries": entries,
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_pipeline.json")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--band-m", type=int, default=DEFAULT_BAND_M)
    parser.add_argument("--stencil-n", type=int, default=DEFAULT_STENCIL_N)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    start = time.perf_counter()
    report = run_suite(repeats=args.repeats, band_m=args.band_m,
                       stencil_n=args.stencil_n)
    write_report(report, args.out)
    for entry in report["entries"]:
        print(
            f"{entry['workload']:12s} cold {entry['cold_ms']:8.1f}ms  "
            f"warm {entry['warm_ms']:8.1f}ms  {entry['speedup']:5.2f}x"
        )
    print(f"wrote {args.out} ({time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
