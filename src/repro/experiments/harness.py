"""Shared machinery for the experiment harnesses.

Schemes (Section 4.1):

* ``base``   — original parallelized code (contiguous chunks, original order);
* ``base+``  — Base's distribution + per-core permutation/tiling;
* ``local``  — Base's distribution + Figure 7 local reorganization;
* ``ta``     — the paper's Topology Aware distribution (no local scheduling);
* ``ta+s``   — combined: distribution + local scheduling (Section 3.5.3).

Results are memoized per (workload, machine name, scheme, knobs) because
different figures revisit the same runs; everything is deterministic, so
the cache is safe.  Two optional layers extend the in-memory memo:

* a persistent disk cache (:mod:`repro.experiments.cache`), switched on
  with :func:`enable_disk_cache` — repeated experiment invocations skip
  simulation entirely;
* *spec recording* (:func:`record_specs`) — run the figure harnesses
  without simulating, collecting the set of uncached runs they need so a
  parallel driver can execute them in worker processes and seed the
  memo (see ``repro.experiments.run_all``).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ExperimentError
from repro.experiments.cache import DiskCache
from repro.mapping import base_plan, base_plus_plan, local_plan
from repro.mapping.distribute import MappingResult

# Submodule imports, not `from repro.pipeline import ...`: this module is
# reachable from `repro.pipeline.core` (via repro.experiments.cache), so
# the pipeline package's __init__ may still be mid-import here.  The
# submodules themselves have no cycle.
from repro.pipeline.knobs import Knobs
from repro.pipeline.store import ArtifactStore
from repro.runtime import execute_plan
from repro.sim.engine import SimConfig
from repro.sim.stats import LevelStats, SimResult
from repro.topology.tree import Machine, machine_digest
from repro.util.tables import format_table
from repro.workloads import Workload, workload

#: Every experiment divides cache capacities by this factor (topologies,
#: latencies, associativities and line sizes unchanged) so that Python-
#: speed simulation with megabyte-scale working sets stays tractable.
SIM_SCALE_DENOM = 32

#: Balance threshold used by the experiments.  The paper's default is 10%
#: ("maximum tolerable imbalance"); we run the same algorithm with a
#: tighter 1% window because the bare simulator has none of a real
#: machine's secondary balancing effects (hardware prefetch, memory-level
#: parallelism, OS noise) and execution time is the max over cores, so
#: residual imbalance would otherwise mask the cache effect under study.
BALANCE_THRESHOLD = 0.01

SCHEMES = ("base", "base+", "local", "ta", "ta+s")


def sim_machine(machine: Machine) -> Machine:
    """The simulation-scaled version of a machine."""
    return machine.with_scaled_caches(1.0 / SIM_SCALE_DENOM)


@dataclass(frozen=True)
class FigureResult:
    """Rows plus a rendered table for one paper artifact."""

    figure: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: str = ""

    def table(self) -> str:
        text = format_table(self.headers, self.rows, title=self.figure)
        if self.notes:
            text += "\n" + self.notes
        return text

    def column(self, name: str) -> list:
        try:
            index = self.headers.index(name)
        except ValueError:
            raise ExperimentError(f"no column {name!r} in {self.figure}") from None
        return [row[index] for row in self.rows]


@dataclass
class _Cache:
    results: dict = field(default_factory=dict)
    mappings: dict = field(default_factory=dict)
    #: Per-stage pipeline artifacts, shared across every mapping the
    #: harness computes: knob sweeps (Figure 18's α/β grid, the balance
    #: ablation) replay unchanged stages instead of recomputing them.
    artifacts: ArtifactStore = field(default_factory=ArtifactStore)


_CACHE = _Cache()


def clear_cache() -> None:
    _CACHE.results.clear()
    _CACHE.mappings.clear()
    _CACHE.artifacts.clear()


def scheme_knobs(
    app: Workload,
    scheme: str | None,
    block_size: int | None = None,
    balance_threshold: float = BALANCE_THRESHOLD,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> Knobs:
    """The canonical knob set a scheme run maps with.

    Every harness key (memo, disk, recorded spec) and every harness
    mapping derives its knobs from this one constructor, so the harness
    cannot drift from the service or the pipeline on what "the same
    configuration" means.  ``block_size=None`` resolves to the
    workload's own block size; ``ta+s`` is the only scheme that
    schedules locally.
    """
    return Knobs(
        block_size=block_size if block_size is not None else app.block_size(),
        balance_threshold=balance_threshold,
        alpha=alpha,
        beta=beta,
        local_scheduling=(scheme == "ta+s"),
    )


#: Persistent result store (None = memory-only).  Mappings deliberately
#: stay memory-only: caching results subsumes them for repeat runs, and
#: IterationGroup identity does not survive serialization.
_DISK: DiskCache | None = None

#: While not None, run_scheme/run_version record specs instead of
#: simulating (see :func:`record_specs`).  Maps memo key -> RunSpec so
#: duplicates collapse in call order.
_RECORDING: dict | None = None


def enable_disk_cache(directory: str | None = None) -> DiskCache:
    """Turn on the persistent result cache (see repro.experiments.cache).

    Memoized results are read from and written through to disk until
    :func:`disable_disk_cache`.  Returns the store for inspection.
    """
    global _DISK
    _DISK = DiskCache(directory)
    return _DISK


def disable_disk_cache() -> None:
    """Back to memory-only memoization."""
    global _DISK
    _DISK = None


def disk_cache() -> DiskCache | None:
    """The active persistent store, if any."""
    return _DISK


def _lookup(key: tuple, disk_key: tuple) -> SimResult | None:
    """Memo, then disk.  A disk hit is promoted into the memo."""
    cached = _CACHE.results.get(key)
    if cached is not None:
        obs.count("harness.result_memo_hits")
        return cached
    obs.count("harness.result_memo_misses")
    if _DISK is not None:
        stored = _DISK.get(disk_key)
        if stored is not None:
            obs.count("cache.disk_hits")
            _CACHE.results[key] = stored
            return stored
        obs.count("cache.disk_misses")
    return None


def _store(key: tuple, disk_key: tuple, result: SimResult) -> None:
    _CACHE.results[key] = result
    if _DISK is not None:
        _DISK.put(disk_key, result)


@dataclass(frozen=True)
class RunSpec:
    """One deferred harness run, re-executable in a worker process.

    ``kind`` is ``"scheme"`` (a :func:`run_scheme` call) or ``"version"``
    (a :func:`run_version` call); the remaining fields mirror the
    corresponding call's arguments.  Everything is picklable.
    """

    kind: str
    app: str
    scheme: str | None = None
    machine: Machine | None = None
    mapping_machine: Machine | None = None
    block_size: int | None = None
    balance_threshold: float = BALANCE_THRESHOLD
    alpha: float = 0.5
    beta: float = 0.5
    port_occupancy: int = 0
    version: Machine | None = None
    target: Machine | None = None


def spec_key(spec: RunSpec) -> tuple:
    """The memo key a spec's run would use (mirrors run_scheme/run_version)."""
    if spec.kind == "scheme":
        map_machine = spec.mapping_machine or spec.machine
        knobs = scheme_knobs(
            workload(spec.app),
            spec.scheme,
            spec.block_size,
            spec.balance_threshold,
            spec.alpha,
            spec.beta,
        )
        return (
            spec.app,
            spec.scheme,
            spec.machine.name,
            map_machine.name,
            knobs.as_tuple(),
            spec.port_occupancy,
        )
    return ("version", spec.app, spec.version.name, spec.target.name)


def _spec_disk_key(spec: RunSpec) -> tuple:
    if spec.kind == "scheme":
        map_machine = spec.mapping_machine or spec.machine
        return spec_key(spec) + (
            machine_digest(spec.machine),
            machine_digest(map_machine),
        )
    return spec_key(spec) + (
        machine_digest(spec.version),
        machine_digest(spec.target),
    )


def execute_spec(spec: RunSpec) -> SimResult:
    """Run one recorded spec (used by parallel workers)."""
    if spec.kind == "scheme":
        return run_scheme(
            spec.app,
            spec.scheme,
            spec.machine,
            mapping_machine=spec.mapping_machine,
            block_size=spec.block_size,
            balance_threshold=spec.balance_threshold,
            alpha=spec.alpha,
            beta=spec.beta,
            port_occupancy=spec.port_occupancy,
        )
    return run_version(spec.app, spec.version, spec.target)


def seed_result(spec: RunSpec, result: SimResult) -> None:
    """Install a worker-computed result into the memo (and disk store)."""
    key = spec_key(spec)
    _CACHE.results.setdefault(key, result)
    if _DISK is not None:
        _DISK.put(_spec_disk_key(spec), result)


def record_specs(fn: Callable[[], object]) -> list[RunSpec]:
    """Run ``fn`` in recording mode; return the runs it would simulate.

    While recording, an uncached :func:`run_scheme`/:func:`run_version`
    call does not simulate: it records a :class:`RunSpec` and returns a
    placeholder result (all counts 1) so the figure code runs through.
    Placeholders are never stored in the memo; cached and disk-cached
    runs still return their real results.  :func:`run_custom` computes
    inline even while recording — its compute closure cannot be shipped
    to a worker.
    """
    global _RECORDING
    if _RECORDING is not None:
        raise ExperimentError("spec recording is already active")
    _RECORDING = {}
    try:
        fn()
        return list(_RECORDING.values())
    finally:
        _RECORDING = None


def _placeholder_result(label: str, machine: Machine) -> SimResult:
    levels = tuple(LevelStats(name, 1, 1) for name in machine.cache_levels())
    return SimResult(
        label=label,
        machine_name=machine.name,
        cycles=1,
        core_cycles=(1,) * machine.num_cores,
        levels=levels,
        memory_accesses=1,
        total_accesses=2,
        barriers=0,
        barrier_cycles=0,
    )


#: Environment variable naming a directory for per-figure JSONL traces.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


@contextmanager
def figure_trace(figure: str):
    """Record a per-figure trace when ``REPRO_TRACE_DIR`` is set.

    Wrap one figure harness run::

        with figure_trace("fig13"):
            fig13_main.run(apps)

    With the environment variable unset this is a pure no-op (no
    recorder installed); set, it writes ``<dir>/<figure>.jsonl`` with
    every span and decision counter of the figure's runs — the artifact
    the CI workflow uploads.  When a recorder is already installed (an
    outer ``obs.tracing`` scope), the outer trace wins and the figure is
    marked by a ``figure`` span instead of a separate file.
    """
    directory = os.environ.get(TRACE_DIR_ENV)
    if obs.enabled() or not directory:
        with obs.span("figure", figure=figure):
            yield
        return
    from repro.obs.sinks import JsonlSink

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{figure}.jsonl")
    with obs.tracing(JsonlSink(path)):
        with obs.span("figure", figure=figure):
            yield


def mapping_for(app: Workload, mapping_machine: Machine, knobs: Knobs) -> MappingResult:
    """Memoized TopologyAware mapping of one workload for one machine.

    ``knobs`` comes from :func:`scheme_knobs`.  Sits on two tiers: the
    whole-:class:`MappingResult` memo keyed by the canonical knob tuple,
    and under it the shared per-stage artifact store — so even a memo
    miss (say, new α/β) replays tagging, dependence analysis and
    distribution from cache.
    """
    key = (app.name, mapping_machine.name, knobs.as_tuple())
    cached = _CACHE.mappings.get(key)
    if cached is not None:
        obs.count("harness.mapping_memo_hits")
        return cached
    obs.count("harness.mapping_memo_misses")
    from repro.pipeline.core import MappingPipeline

    pipeline = MappingPipeline(mapping_machine, knobs, store=_CACHE.artifacts)
    result = pipeline.map_nest(app.program(), app.nest())
    _CACHE.mappings[key] = result
    return result


def run_scheme(
    app: Workload | str,
    scheme: str,
    machine: Machine,
    mapping_machine: Machine | None = None,
    block_size: int | None = None,
    balance_threshold: float = BALANCE_THRESHOLD,
    alpha: float = 0.5,
    beta: float = 0.5,
    port_occupancy: int = 0,
) -> SimResult:
    """Run one (workload, scheme) on a machine; memoized.

    ``machine`` must already be simulation-scaled.  ``mapping_machine``
    is the machine the code version is *tuned for* and defaults to the
    execution machine.  Passing the scaled topology there is fine:
    mapping quality depends only on the shape of the cache tree, which
    capacity scaling preserves.  The cross-machine experiment passes a
    different machine explicitly.
    """
    if isinstance(app, str):
        app = workload(app)
    map_machine = mapping_machine or machine
    knobs = scheme_knobs(app, scheme, block_size, balance_threshold, alpha, beta)
    key = (
        app.name,
        scheme,
        machine.name,
        map_machine.name,
        knobs.as_tuple(),
        port_occupancy,
    )
    disk_key = key + (machine_digest(machine), machine_digest(map_machine))
    cached = _lookup(key, disk_key)
    if cached is not None:
        return cached
    if _RECORDING is not None:
        _RECORDING.setdefault(
            key,
            RunSpec(
                kind="scheme",
                app=app.name,
                scheme=scheme,
                machine=machine,
                mapping_machine=mapping_machine,
                block_size=block_size,
                balance_threshold=balance_threshold,
                alpha=alpha,
                beta=beta,
                port_occupancy=port_occupancy,
            ),
        )
        return _placeholder_result(f"{app.name}/{scheme}", machine)

    with obs.span(
        "experiment.scheme", app=app.name, scheme=scheme, machine=machine.name
    ):
        nest = app.nest()
        if scheme == "base":
            plan = base_plan(nest, map_machine)
        elif scheme == "base+":
            plan = base_plus_plan(nest, map_machine)
        elif scheme == "local":
            mapping = mapping_for(app, map_machine, knobs)
            plan = local_plan(nest, map_machine, mapping.partition, alpha, beta)
        elif scheme in ("ta", "ta+s"):
            plan = mapping_for(app, map_machine, knobs).plan()
        else:
            raise ExperimentError(f"unknown scheme {scheme!r}; known: {SCHEMES}")

        config = SimConfig(port_occupancy=port_occupancy) if port_occupancy else None
        result = execute_plan(plan, machine=machine, config=config)
    _store(key, disk_key, result)
    return result


def run_version(
    app: Workload | str, version: Machine, target: Machine
) -> SimResult:
    """Run the TopologyAware *version* tuned for one machine on another.

    The plan is generated at the version machine's native core count and
    ported to the target with :func:`repro.experiments.versions.retarget_plan`
    (folding surplus threads, idling surplus cores), the way naive porting
    behaves; both machines must be simulation-scaled.
    """
    from repro.experiments.versions import retarget_plan

    if isinstance(app, str):
        app = workload(app)
    key = ("version", app.name, version.name, target.name)
    disk_key = key + (machine_digest(version), machine_digest(target))
    cached = _lookup(key, disk_key)
    if cached is not None:
        return cached
    if _RECORDING is not None:
        _RECORDING.setdefault(
            key,
            RunSpec(kind="version", app=app.name, version=version, target=target),
        )
        return _placeholder_result(f"{app.name}/version", target)
    mapping = mapping_for(app, version, scheme_knobs(app, "ta"))
    plan = retarget_plan(mapping.plan(), target)
    result = execute_plan(plan, machine=target)
    _store(key, disk_key, result)
    return result


def run_custom(
    tag: tuple, machine: Machine, compute: Callable[[], SimResult]
) -> SimResult:
    """Memoize an arbitrary deterministic run under ``("custom",) + tag``.

    For experiment variants that build their own plans instead of going
    through a scheme (the Figure 20 optimal rows, the clustering
    ablation's KL variant).  ``tag`` must contain every knob that
    determines the result; ``machine`` is digested into the disk key.
    The compute callable runs inline — also during spec recording, since
    a closure cannot be shipped to a worker — and the result joins both
    the in-memory memo and the persistent store.
    """
    key = ("custom",) + tuple(tag)
    disk_key = key + (machine_digest(machine),)
    cached = _lookup(key, disk_key)
    if cached is not None:
        return cached
    result = compute()
    _store(key, disk_key, result)
    return result


def scheme_cycles(
    app: Workload | str, schemes: tuple[str, ...], machine: Machine, **kwargs
) -> dict[str, int]:
    """Cycles of several schemes for one workload on one machine."""
    return {s: run_scheme(app, s, machine, **kwargs).cycles for s in schemes}


def geometric_mean(values: list[float]) -> float:
    """Geometric mean in log space.

    Summing logs instead of multiplying keeps the intermediate in a
    sane range: a product of a few hundred large ratios overflows a
    float to ``inf`` (and underflows to 0.0 for small ones), while the
    log sum is exact to ~1 ulp per term.  Zeros short-circuit (their
    product is 0); negative inputs have no real geometric mean and
    raise ``ValueError``.
    """
    if not values:
        return float("nan")
    if any(v == 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
