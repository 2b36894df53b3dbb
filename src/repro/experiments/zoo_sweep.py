"""Machine-zoo sweep: the paper's schemes on real-hardware topologies.

The figures reproduce the paper on its own machines; this step runs the
TopologyAware mapper across the ingested fixture corpus (see
``tests/topology/fixtures/``) — NUMA L3 complexes, big.LITTLE asymmetry,
SMT servers, holey cpu numbering — and reports the TA speedup over Base
per machine.  It is the regression net for the ingest pipeline: every
zoo machine must map, simulate, and win (or at worst tie) end to end.

``--machine`` on the driver narrows the sweep to one spec; any string
:func:`repro.topology.resolve.resolve_machine` accepts works, so
``run_all --machine zoo:epyc2p`` and ``--machine sysfs:/sys`` both do
the obvious thing.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.harness import (
    BALANCE_THRESHOLD,
    FigureResult,
    geometric_mean,
    run_scheme,
    sim_machine,
)
from repro.topology.resolve import resolve_machine
from repro.topology.tree import Machine
from repro.workloads import all_workloads, irregular_workloads

#: Apps exercised per zoo machine (a spread of sharing patterns; the
#: full per-app matrix lives in the paper figures).
SWEEP_APPS = ("galgel", "equake", "facesim", "namd")


def _machines(specs: Sequence[str] | None) -> list[Machine]:
    if specs:
        return [resolve_machine(spec) for spec in specs]
    from repro.topology.ingest.zoo import zoo_names

    return [resolve_machine(f"zoo:{name}") for name in zoo_names()]


def run(
    apps: Sequence[str] | None = None,
    machines: Sequence[str] | None = None,
) -> FigureResult:
    selected = [
        w for w in all_workloads()
        if w.name in (apps if apps is not None else SWEEP_APPS)
    ]
    rows = []
    for machine in _machines(machines):
        scaled = sim_machine(machine)
        speedups = []
        for app in selected:
            base = run_scheme(app, "base", scaled,
                              balance_threshold=BALANCE_THRESHOLD).cycles
            ta = run_scheme(app, "ta", scaled,
                            balance_threshold=BALANCE_THRESHOLD).cycles
            speedups.append(base / ta if ta else 1.0)
        shape = "uniform" if machine.is_level_uniform() else "asymmetric"
        rows.append((
            machine.name,
            machine.num_cores,
            shape,
            len(machine.cache_nodes()),
            f"{geometric_mean(speedups):.3f}" if speedups else "n/a",
        ))
    return FigureResult(
        figure="Machine zoo: TA speedup over Base on ingested topologies",
        headers=("machine", "cores", "tree", "caches", "TA speedup (geo)"),
        rows=tuple(rows),
        notes="machines ingested from sysfs fixture dumps "
        "(tests/topology/fixtures); speedup is geomean over "
        f"{', '.join(w.name for w in selected)}."
        if rows else "no fixture corpus found; run scripts/gen_zoo_fixtures.py",
    )


def run_irregular(machines: Sequence[str] | None = None) -> FigureResult:
    """The irregular suite across the zoo: TA over Base per workload.

    The transpose of :func:`run`: one row per *workload*, geomean over
    the zoo machines.  These kernels have data-dependent subscripts, so
    every run here exercises the index-array gathers end to end (tag →
    cluster → distribute → schedule → sim).
    Parity is the honest floor, not a failure: an irregular kernel whose
    sharing has no block structure gives the mapper nothing to place
    (spmv_banded's per-element jitter), while bank- or patch-clustered
    sharing rewards placement the same way the affine mirrors do.
    """
    resolved = _machines(machines)
    rows = []
    for app in irregular_workloads():
        speedups = []
        for machine in resolved:
            scaled = sim_machine(machine)
            base = run_scheme(app, "base", scaled,
                              balance_threshold=BALANCE_THRESHOLD).cycles
            ta = run_scheme(app, "ta", scaled,
                            balance_threshold=BALANCE_THRESHOLD).cycles
            speedups.append(base / ta if ta else 1.0)
        nest = app.nest()
        rows.append((
            app.name,
            nest.iteration_count(),
            len(nest.accesses),
            f"{min(speedups):.3f}" if speedups else "n/a",
            f"{max(speedups):.3f}" if speedups else "n/a",
            f"{geometric_mean(speedups):.3f}" if speedups else "n/a",
        ))
    return FigureResult(
        figure="Machine zoo, irregular suite: TA over Base per workload",
        headers=("workload", "iterations", "refs", "min", "max",
                 "TA speedup (geo)"),
        rows=tuple(rows),
        notes="trace-tagged kernels (indirect subscripts); geomean over "
        f"{len(resolved)} zoo machines."
        if rows else "no fixture corpus found; run scripts/gen_zoo_fixtures.py",
    )


if __name__ == "__main__":
    print(run().table())
    print(run_irregular().table())
