"""The in-process workloads: ``paper-cold`` and ``irregular-trace``.

Each (kernel, machine) pair is compiled from source, mapped cold with
the figure harness's ``ta+s`` knobs (``block_size=Workload.block_size()``,
``balance_threshold=harness.BALANCE_THRESHOLD``, local scheduling on, no
artifact store), encoded the way the service ships it, and then its TA+S
plan and its Base plan are simulated on the 1/32-scaled machine.  One
*set* is every pair once, in a seeded order; a run repeats whole sets
until its time is used and reports medians over sets.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

from common import (
    ROOT,
    HostSpeed,
    aggregate_spans,
    captured_fallbacks,
    child_env,
    geomean,
    median,
    model_layers,
    percentile,
    service_layers,
    summary_counters,
    trace_layers,
)

MACHINES = ("harpertown", "dunnington")
#: How often a run starts a fresh process to time set-up.
SETUP_REPEATS = 5


def suite(workload: str) -> list:
    from repro.workloads.registry import irregular_workloads, paper_workloads

    if workload == "paper-cold":
        return paper_workloads()
    if workload == "irregular-trace":
        return irregular_workloads()
    raise ValueError(f"not an in-process workload: {workload!r}")


def set_up(workload: str) -> tuple[list, dict]:
    """Everything before the first timed operation: imports, the scaled
    machines, and each kernel's block size.  Returns (pairs, machines)."""
    from repro import obs
    from repro.experiments import harness
    from repro.topology.resolve import resolve_machine

    machines = {}
    for name in MACHINES:
        with obs.span("bench.resolve"):
            machines[name] = harness.sim_machine(resolve_machine(name))
    kernels = [(w, w.block_size()) for w in suite(workload)]
    pairs = [(w, block, name) for name in MACHINES for w, block in kernels]
    return pairs, machines


@dataclass
class PairOutcome:
    key: str
    error: str | None = None
    op_s: float = 0.0
    map_s: float = 0.0
    sim_s: float = 0.0
    ta_cycles: int = 0
    base_cycles: int = 0
    ta_result: object = None
    #: Host-speed factor around this pair (see common.HostSpeed).
    speed: float = 1.0


def run_pair(workload, block_size: int, machine, speed: HostSpeed) -> PairOutcome:
    """Compile, map, encode and simulate one pair; never raises.  Times
    come from ``speed.now()``, which leaves out host-speed sampling."""
    from repro import obs
    from repro.experiments import harness
    from repro.lang import compile_source
    from repro.mapping import base_plan
    from repro.pipeline.core import MappingPipeline
    from repro.pipeline.knobs import Knobs
    from repro.runtime.serialize import plan_to_dict
    from repro.sim.engine import simulate_plan

    outcome = PairOutcome(f"{workload.name}/{machine.name}")
    started = speed.now()
    try:
        with obs.span("bench.compile"):
            program = compile_source(
                workload.source,
                name=workload.name,
                index_data={k: list(v) for k, v in workload.index_data} or None,
            )
        nest = program.nests[0]
        knobs = Knobs(
            block_size=block_size,
            balance_threshold=harness.BALANCE_THRESHOLD,
            local_scheduling=True,
        )
        map_started = speed.now()
        with obs.span("bench.map_nest"):
            mapping = MappingPipeline(machine, knobs).map_nest(program, nest)
        with obs.span("bench.plan"):
            plan = mapping.plan()
        outcome.map_s = speed.now() - map_started
        with obs.span("bench.encode"):
            json.dumps(plan_to_dict(plan))
        base = base_plan(nest, machine)
        plan.verify_complete()
        base.verify_complete()
        sim_started = speed.now()
        with obs.span("bench.simulate"):
            ta = simulate_plan(plan)
            ref = simulate_plan(base)
        outcome.sim_s = speed.now() - sim_started
        ta.verify_conservation()
        ref.verify_conservation()
        outcome.ta_cycles, outcome.base_cycles = ta.cycles, ref.cycles
        outcome.ta_result = ta
    except Exception as error:  # noqa: BLE001 - a failed pair is a data point
        outcome.error = f"{type(error).__name__}: {error}"
    outcome.op_s = speed.now() - started
    return outcome


@dataclass
class SetResult:
    outcomes: list[PairOutcome]

    @property
    def wall_s(self) -> float:
        """Host seconds of the set as measured."""
        return sum(o.op_s for o in self.outcomes)

    def ok(self) -> list[PairOutcome]:
        return [o for o in self.outcomes if o.error is None]

    def metrics(self) -> dict[str, float]:
        """End-to-end metrics of the set, times at reference host speed."""
        ok = self.ok()
        op_ms = [o.op_s * o.speed * 1e3 for o in self.outcomes]
        maps = [o.map_s * o.speed for o in ok]
        wall_s = sum(op_ms) / 1e3
        return {
            "wall_s": wall_s,
            "map_s": sum(maps),
            "map_max_s": max(maps, default=0.0),
            "sim_s": sum(o.sim_s * o.speed for o in ok),
            "cycles_ratio_geomean": geomean(
                o.ta_cycles / o.base_cycles for o in ok
            ),
            "req_p50_ms": percentile(op_ms, 0.50),
            "req_p99_ms": percentile(op_ms, 0.99),
            "req_per_s": len(self.outcomes) / wall_s,
        }


def run_set(pairs: list, machines: dict, rng: random.Random,
            interleave: bool = True) -> SetResult:
    """Every pair once in a seeded order.  Host speed is sampled between
    pairs and, with ``interleave``, every 0.1 s inside them; each pair is
    scaled by the samples taken during it and on either side of it."""
    order = list(pairs)
    rng.shuffle(order)
    speed = HostSpeed()
    outcomes = []
    with speed.interleaved() if interleave else nullcontext():
        for w, block, name in order:
            first = len(speed.samples)
            speed.sample(3)
            outcome = run_pair(w, block, machines[name], speed)
            speed.sample(3)
            outcome.speed = speed.factor(since=first)
            outcomes.append(outcome)
    return SetResult(outcomes)


class CycleCheck:
    """Per-pair cycles must repeat exactly across sets (and tracing)."""

    def __init__(self) -> None:
        self.expected: dict[str, tuple[int, int]] = {}

    def failures(self, result: SetResult) -> int:
        failed = 0
        for o in result.outcomes:
            if o.error is not None:
                failed += 1
                print(f"FAIL {o.key}: {o.error}", file=sys.stderr)
                continue
            cycles = (o.ta_cycles, o.base_cycles)
            seen = self.expected.setdefault(o.key, cycles)
            if seen != cycles:
                failed += 1
                print(f"FAIL {o.key}: cycles {cycles} != earlier {seen}",
                      file=sys.stderr)
        return failed


def time_setup(workload: str) -> float:
    """Median seconds from process start to ready, over fresh processes,
    at reference host speed."""
    samples = []
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        speed.sample(2)
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
    speed.sample(2)
    return median(samples) * speed.factor()


def setup_probe(workload: str) -> None:
    """The body of one set-up timing process: set up, print the clock."""
    set_up(workload)
    print(repr(time.monotonic()))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the fields of the result line."""
    tally: dict[str, int] = {}
    checks = CycleCheck()
    rng = random.Random(seed)
    with captured_fallbacks(tally):
        setup_s = None if trace else time_setup(workload)
        pairs, machines = set_up(workload)
        started = time.perf_counter()
        sets: list[SetResult] = []
        failed = 0
        while not sets or (not trace and time.perf_counter() - started < seconds):
            sets.append(run_set(pairs, machines, rng))
            failed += checks.failures(sets[-1])
        if trace:
            traced, spans, counters = _traced_set(workload, rng)
            failed += checks.failures(traced)
            sets_for_layers = traced
    attempted = sum(len(s.outcomes) for s in sets)
    for s in sets:
        print(f"set: wall {s.wall_s:.3f} s measured, "
              f"{s.metrics()['wall_s']:.3f} s at reference host speed",
              file=sys.stderr)
    print(f"{workload}: {len(sets)} set(s) of {len(pairs)} pairs, seed {seed}; "
          f"{tally.get('fallback_warnings', 0)} expected fallback warning(s) "
          "captured", file=sys.stderr)
    if not trace:
        per_set = [s.metrics() for s in sets]
        values = {name: median(m[name] for m in per_set) for name in per_set[0]}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        return {"attempted": attempted, "failed": failed, "values": values,
                "kind": "end_to_end"}
    attempted += len(sets_for_layers.outcomes)
    host_ms = sets_for_layers.wall_s * 1e3
    values = trace_layers(spans, counters, host_ms)
    values.update(model_layers(o.ta_result for o in sets_for_layers.ok()))
    values.update(service_layers([]))
    values["obs.trace_overhead_share"] = (
        sets_for_layers.metrics()["wall_s"]
        / median(s.metrics()["wall_s"] for s in sets) - 1.0
    )
    _print_breakdown(spans, host_ms)
    return {"attempted": attempted, "failed": failed, "values": values,
            "kind": "per_layer"}


def _traced_set(workload: str, rng: random.Random):
    """One more set under a collector-sink recorder."""
    from repro import obs
    from repro.obs.sinks import CollectorSink

    sink = CollectorSink()
    with obs.tracing(sink):
        pairs, machines = set_up(workload)
        result = run_set(pairs, machines, rng, interleave=False)
    return result, aggregate_spans(sink.records), summary_counters(sink.records)


def _print_breakdown(spans: dict, host_ms: float, top: int = 12) -> None:
    """Where the traced set's host time went, by span self time."""
    print(f"traced host time {host_ms:.1f} ms; top spans by self time:",
          file=sys.stderr)
    ranked = sorted(spans.items(), key=lambda item: -item[1]["self"])[:top]
    for name, agg in ranked:
        print(f"  {name:28s} {agg['self']:10.1f} ms self "
              f"{agg['wall']:10.1f} ms wall {100 * agg['self'] / host_ms:5.1f}%",
              file=sys.stderr)
