"""Helpers shared by the workloads: timers, trace aggregation, metric sets.

The benchmark measures the program from outside.  Its own ``bench.*``
spans (opened with ``repro.obs.span``, a no-op when tracing is off) wrap
calls into each layer's public functions, and its per-layer numbers come
from those and the spans and counters the program already emits through
``repro.obs``, aggregated by :func:`aggregate_spans` with the rule
``repro.obs.report.phase_table`` uses for its self column.

Every per-layer metric is derived here from three neutral inputs — span
aggregates plus counters, simulation results, and service samples — so
a metric whose span or counter is missing from a trace reads 0 instead
of failing: a later change that deletes ``map.refine`` leaves the
benchmark running.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import threading
import time
import warnings
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

#: Checkout root: the directory holding ``BENCHMARK.json`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for daemon logs and traces; removed after each run.
WORK_DIR = ROOT / ".perfbench-work"

#: Marker of the expected-path fallback warnings ``repro.kernels`` issues
#: (trace tagging's "scalar fallback", the ``sim.level`` fallback).
FALLBACK_WARNING = "repro.kernels: scalar fallback"


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    declared in ``BENCHMARK.json`` — the one list of metric names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


# -- statistics -------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- host speed -----------------------------------------------------------------

#: CPU seconds one :func:`calibration_s` takes at the reference host speed.
#: Reported times are scaled to this speed, so they read as seconds on a
#: host that runs the routine in exactly 2 ms.
REFERENCE_CALIBRATION_S = 0.002


def calibration_s() -> float:
    """CPU seconds this thread spends on a fixed pure-Python routine."""
    started = time.thread_time()
    total = 0
    table: dict[int, int] = {}
    for i in range(10_000):
        total += i * i % 7
        table[i & 1023] = table.get(i & 1023, 0) + total
    return time.thread_time() - started


class HostSpeed:
    """How fast the host runs Python while a measurement is taken.

    On a shared host the speed of a vCPU wanders with its neighbours'
    load: the same ten-second set of ``irregular-trace`` pairs took
    10.2-15.1 s over eight consecutive sets (stdev 16% of the median),
    and a fixed routine timed between the pairs slowed in step.  Scaling
    each time by ``REFERENCE_CALIBRATION_S`` over the mean routine time
    sampled around it cut that spread to 3.4%.  The routine's CPU time
    (not wall time) is used, so it measures speed and not scheduling.
    The other vCPU's speed does not track this one's, so samples must
    be taken on the thread doing the work: between operations, and for
    long ones from a timer signal inside them (:meth:`interleaved`).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall seconds spent sampling inside timed work; :meth:`now`
        #: leaves them out.
        self.paused_s = 0.0

    def sample(self, count: int = 1) -> float:
        """Take ``count`` samples; returns their mean."""
        taken = [calibration_s() for _ in range(count)]
        self.samples.extend(taken)
        return statistics.fmean(taken)

    def now(self) -> float:
        """A ``perf_counter`` clock that stops while sampling."""
        return time.perf_counter() - self.paused_s

    def factor(self, since: int = 0) -> float:
        """Multiply a time measured over ``samples[since:]`` by this to
        get its reference-speed time."""
        if len(self.samples) <= since:
            self.sample(5)
        return REFERENCE_CALIBRATION_S / statistics.fmean(self.samples[since:])

    @contextmanager
    def interleaved(self, period_s: float = 0.1):
        """Sample every ``period_s`` from ``SIGALRM`` in the main thread,
        inside whatever work is running; :meth:`now` excludes that time."""
        def handler(signum, frame) -> None:
            started = time.perf_counter()
            self.samples.append(calibration_s())
            self.paused_s += time.perf_counter() - started

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def sampling(self, period_s: float = 0.1):
        """Sample from a background thread while the block runs, for work
        done by other processes: the thread takes turns on every CPU the
        process may use, so the samples average their speeds."""
        stop = threading.Event()
        cpus = sorted(os.sched_getaffinity(0))

        def loop() -> None:
            turn = 0
            while not stop.wait(period_s):
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                self.sample()
                turn += 1

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()


# -- trace aggregation ----------------------------------------------------------

def aggregate_spans(records: Iterable[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total wall ms and self ms.

    Self time is a span's wall time minus the wall time of its direct
    children — the rule of ``repro.obs.report.phase_table``.  Span ids
    are only unique within one recorder, so aggregate each trace file on
    its own and combine with :func:`merge_aggregates`.
    """
    spans = [r for r in records if r.get("type") == "span"]
    child_wall: dict[int, float] = {}
    for sp in spans:
        parent = sp.get("parent")
        if parent is not None:
            child_wall[parent] = child_wall.get(parent, 0.0) + sp["wall_ms"]
    out: dict[str, dict[str, float]] = {}
    for sp in spans:
        agg = out.setdefault(sp["name"], {"calls": 0, "wall": 0.0, "self": 0.0})
        agg["calls"] += 1
        agg["wall"] += sp["wall_ms"]
        agg["self"] += sp["wall_ms"] - child_wall.get(sp["id"], 0.0)
    return out


def merge_aggregates(parts: Iterable[dict]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, agg in part.items():
            into = out.setdefault(name, {"calls": 0, "wall": 0.0, "self": 0.0})
            for key in into:
                into[key] += agg[key]
    return out


def summary_counters(records: Iterable[dict]) -> dict[str, int]:
    """The final counter table of one trace (its summary record)."""
    for record in records:
        if record.get("type") == "summary":
            return dict(record.get("counters", {}))
    return {}


def merge_counters(parts: Iterable[dict[str, int]]) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0) + value
    return out


def wall_ms(spans: dict, name: str) -> float:
    """Total wall ms of one span name; an absent span reads 0."""
    return spans.get(name, {}).get("wall", 0.0)


def trace_layers(spans: dict, counters: dict[str, int], host_ms: float) -> dict[str, float]:
    """Per-layer metrics read from span aggregates and obs counters.

    ``host_ms`` is the traced host time the shares are taken of.
    Inclusive wall time of a stage span is that stage's time: it equals
    the sum of the self times in its subtree.
    """
    refine = wall_ms(spans, "map.refine")
    sim_run_ms = wall_ms(spans, "sim.run")
    accesses = counters.get("sim.accesses", 0)
    return {
        "lang.compile_ms": wall_ms(spans, "bench.compile"),
        "topology.resolve_ms": wall_ms(spans, "bench.resolve"),
        "blocks.partition_ms": wall_ms(spans, "map.partition"),
        "blocks.tagging_ms": wall_ms(spans, "map.tagging"),
        "blocks.trace_events": counters.get("tagging.trace.events", 0),
        "blocks.groups": counters.get("tag.groups_formed", 0),
        "mapping.dependence_ms": wall_ms(spans, "map.dependence"),
        "mapping.distribute_ms": wall_ms(spans, "map.clustering") - refine,
        "mapping.refine_ms": refine,
        "mapping.refine_share": ratio(refine, host_ms),
        "mapping.schedule_ms": wall_ms(spans, "map.scheduling"),
        "mapping.cluster_merges": counters.get("cluster.merges", 0),
        "mapping.balance_moves": counters.get("balance.moves", 0),
        "mapping.balance_splits": counters.get("balance.splits", 0),
        "mapping.schedule_rounds": counters.get("schedule.rounds", 0),
        "pipeline.stage_hit_ratio": ratio(
            counters.get("pipeline.stage_hits", 0),
            counters.get("pipeline.stage_hits", 0)
            + counters.get("pipeline.stage_misses", 0),
        ),
        "pipeline.stage_misses": counters.get("pipeline.stage_misses", 0),
        "sim.trace_build_ms": wall_ms(spans, "sim.trace_build"),
        "sim.private_levels_ms": wall_ms(spans, "sim.private_levels"),
        "sim.replay_ms": wall_ms(spans, "sim.replay"),
        "sim.accesses": accesses,
        "sim.ns_per_access": ratio(sim_run_ms * 1e6, accesses),
        "kernels.fallbacks": sum(
            value for name, value in counters.items()
            if name.startswith("kernels.fallback.")
        ),
        "runtime.plan_encode_ms": wall_ms(spans, "bench.encode"),
    }


def model_layers(results: Iterable) -> dict[str, float]:
    """Miss ratio per cache level, summed over the given ``SimResult``s."""
    hits: dict[str, int] = {}
    misses: dict[str, int] = {}
    for result in results:
        for level in result.levels:
            hits[level.level] = hits.get(level.level, 0) + level.hits
            misses[level.level] = misses.get(level.level, 0) + level.misses
    return {
        f"sim.{level}.miss_ratio": ratio(
            misses.get(level, 0), hits.get(level, 0) + misses.get(level, 0)
        )
        for level in ("L1", "L2", "L3")
    }


def service_layers(samples: list, router: dict | None = None,
                   workers: dict | None = None) -> dict[str, float]:
    """Per-layer service metrics from response samples and ``/stats``.

    ``samples`` are :class:`service.Sample`-like objects with
    ``label``, ``rtt_ms`` and the decoded response ``fields``.  The cold
    decomposition uses medians over cold ``/map`` requests that reached
    a worker: router = RTT - worker elapsed, handler = elapsed - queue
    wait - pipeline.
    """
    def by_label(label: str) -> list:
        return [s for s in samples if s.label == label and s.fields]

    cold = [s for s in by_label("cold") if s.fields.get("cache") == "none"]
    remaps = by_label("remap")
    router = router or {}
    workers = workers or {}
    worker_hits = workers.get("cache.memory", 0) + workers.get("cache.disk", 0)
    return {
        "remap.stages_replayed": sum(
            s.fields.get("stages_replayed", 0) for s in remaps),
        "remap.stages_recomputed": sum(
            s.fields.get("stages_recomputed", 0) for s in remaps),
        "remap.rtt_p50_ms": median(s.rtt_ms for s in remaps),
        "service.rtt_warm_ms": median(s.rtt_ms for s in by_label("warm")),
        "service.rtt_cold_ms": median(s.rtt_ms for s in cold),
        "service.rtt_variant_ms": median(s.rtt_ms for s in by_label("variant")),
        "service.router_ms": median(
            s.rtt_ms - s.fields["elapsed_ms"] for s in cold),
        "service.queue_wait_ms": median(s.fields["queue_wait_ms"] for s in cold),
        "service.pipeline_ms": median(s.fields["pipeline_ms"] for s in cold),
        "service.handler_ms": median(
            s.fields["elapsed_ms"] - s.fields["queue_wait_ms"]
            - s.fields["pipeline_ms"]
            for s in cold
        ),
        "service.router_hit_ratio": ratio(
            router.get("router_cache.hits", 0), router.get("requests", 0)),
        "service.worker_hit_ratio": ratio(
            worker_hits, worker_hits + workers.get("cache.miss", 0)),
        "service.coalesced": workers.get("coalesced", 0),
    }


# -- warnings -------------------------------------------------------------------

@contextmanager
def captured_fallbacks(tally: dict[str, int]):
    """Capture the expected-path ``RuntimeWarning``s instead of printing them.

    Counts them into ``tally["fallback_warnings"]``; any other warning is
    re-emitted on the way out.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for item in caught:
        if FALLBACK_WARNING in str(item.message):
            tally["fallback_warnings"] = tally.get("fallback_warnings", 0) + 1
        else:
            warnings.warn_explicit(
                item.message, item.category, item.filename, item.lineno
            )


# -- output ---------------------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int,
                values: dict[str, float], kind: str) -> str:
    """The final JSON line; ``values`` must cover every declared metric
    of ``kind`` (``end_to_end`` or ``per_layer``) and nothing else."""
    units = declared_metrics()[kind]
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def child_env() -> dict[str, str]:
    """Environment for child processes: ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
