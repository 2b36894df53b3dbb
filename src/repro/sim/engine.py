"""Multi-core interleaved simulation of an executable plan.

Cores run concurrently; the engine advances the core with the smallest
local clock (a heap), processing a small quantum of accesses per step so
interleaving in shared caches is fine-grained without per-access heap
traffic.  Rounds end in a barrier: every core waits for the slowest, plus
a fixed synchronization overhead.

Cycle accounting per access: the latency of the first hitting cache level
(or memory) plus a fixed per-access issue cost modeling non-memory work.
Total execution time is the slowest core's finish time — exactly the
quantity the paper's "execution cycles" figures normalize.

Two engines produce that quantity.  The per-access oracle
(:func:`_run_engine`) walks every access through the dict caches in heap
order.  The batched engine (:func:`_run_engine_batched`) exploits two
facts: private-cache outcomes are independent of core interleaving, and
per-chunk heap keys are globally non-decreasing, so heap pop order is
simply sorted key order.  It spends host time only on accesses that can
change cache state:

* a point that repeats the previous point's lines, with at most ``ways``
  distinct ones, hits the first private level on every access and leaves
  its LRU order unchanged; it is charged as such hits (counter
  ``sim.repeated_accesses``) and skipped by the level pass;
* every other access runs through each core's private levels in one
  vectorized pass per level over the whole concatenated trace
  (:mod:`repro.kernels.cachesim`), which yields per-access fixed costs
  and the accesses that reach the shared levels;
* the shared levels are replayed probe by probe through a heap holding
  only the chunks with shared probes, each advanced by a precomputed
  per-chunk step of fixed cost.

The shared dict caches are touched in exactly the oracle's order, which
makes the result bit-identical (cycles, per-level hits/misses/evictions,
final cache state).  ``SimConfig.backend`` selects: ``python`` is the
oracle, ``numpy`` the vectorized batch engine, ``auto`` (default) picks
the batch engine when numpy imports and contention modeling is off
(``port_occupancy == 0``), and the oracle otherwise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

from repro import obs
from repro.errors import SimulationError
from repro.mapping.distribute import ExecutablePlan
from repro.sim.hierarchy import MachineSim
from repro.sim.stats import LevelStats, SimResult
from repro.sim.trace import MemoryLayout, build_traces
from repro.topology.tree import Machine

SIM_BACKENDS = ("auto", "python", "numpy")


@dataclass(frozen=True)
class SimConfig:
    """Engine knobs.

    ``quantum`` — accesses a core retires before the engine re-checks who
    is globally earliest (granularity of shared-cache interleaving);
    ``issue_cycles`` — fixed per-access cost for non-memory work;
    ``barrier_overhead`` — cycles added to every core at a barrier;
    ``port_occupancy`` — cycles a *shared* cache's port stays busy per
    probe (0 disables contention modeling; cores queuing on a shared
    component pay the wait);
    ``backend`` — ``auto`` | ``python`` | ``numpy`` engine selection
    (see the module docstring); every backend produces bit-identical
    results.
    """

    quantum: int = 8
    issue_cycles: int = 1
    barrier_overhead: int = 100
    port_occupancy: int = 0
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise SimulationError("quantum must be positive")
        if self.issue_cycles < 0 or self.barrier_overhead < 0 or self.port_occupancy < 0:
            raise SimulationError("costs must be non-negative")
        if self.backend not in SIM_BACKENDS:
            raise SimulationError(
                f"unknown sim backend {self.backend!r}; expected one of {SIM_BACKENDS}"
            )


def _resolve_engine(config: SimConfig) -> str:
    """Pick the engine: ``python`` (the oracle) or ``numpy`` (batched).

    Contention modeling (``port_occupancy > 0``) couples every access's
    cost to the global interleaving, so only the oracle models it; asking
    for the numpy backend there is a configuration error, while ``auto``
    quietly uses the oracle.
    """
    from repro import kernels

    if config.backend == "python":
        return "python"
    if config.port_occupancy:
        if config.backend == "numpy":
            raise SimulationError(
                "backend 'numpy' cannot model port_occupancy; "
                "use backend 'auto' or 'python'"
            )
        return "python"
    if config.backend == "numpy":
        kernels.resolve_backend("numpy")  # raises KernelError without numpy
        return "numpy"
    return "numpy" if kernels.have_numpy() else "python"


def simulate_plan(
    plan: ExecutablePlan,
    machine: Machine | None = None,
    config: SimConfig | None = None,
    layout: MemoryLayout | None = None,
    machine_sim: MachineSim | None = None,
) -> SimResult:
    """Simulate a plan; returns cycles and per-level statistics.

    ``machine`` overrides the plan's target (used by the cross-machine
    experiment, Figure 14: run the version tuned for machine A on
    machine B).  A pre-built ``machine_sim`` may be passed to run several
    plans against warm caches; by default each call starts cold.  Raises
    :class:`SimulationError` on a malformed run or an iteration scheduled
    twice (:meth:`ExecutablePlan.check_runs`).
    """
    config = config or SimConfig()
    target = machine or plan.machine
    msim = machine_sim or MachineSim(target)
    plan.check_runs(SimulationError)
    if msim.machine.num_cores < len(plan.rounds):
        raise SimulationError(
            f"plan uses {len(plan.rounds)} cores, machine "
            f"{msim.machine.name!r} has {msim.machine.num_cores}"
        )
    engine = _resolve_engine(config)
    with obs.span(
        "sim.run", label=plan.label, machine=msim.machine.name, backend=engine
    ) as sim_span:
        if layout is None:
            layout = MemoryLayout.for_nest(plan.nest, msim.line_size)
        if engine == "python":
            with obs.span("sim.trace_build"):
                traces = build_traces(plan, layout, msim.line_shift)
            result = _run_engine(plan, msim, config, traces)
        else:
            result = _run_engine_batched(plan, msim, config, layout)
        sim_span.tag(
            cycles=result.cycles,
            accesses=result.total_accesses,
            barriers=result.barriers,
        )
        obs.count("sim.runs")
        obs.count(f"sim.backend.{engine}")
        obs.count("sim.accesses", result.total_accesses)
        obs.count("sim.barriers", result.barriers)
        for stats in result.levels:
            obs.count(f"sim.{stats.level}.hits", stats.hits)
            obs.count(f"sim.{stats.level}.misses", stats.misses)
    return result


def _run_engine(
    plan: ExecutablePlan,
    msim: MachineSim,
    config: SimConfig,
    traces,
) -> SimResult:

    num_rounds = max((len(t) for t in traces), default=0)
    core_time = [0] * len(traces)
    barriers = 0
    barrier_cycles = 0
    total_accesses = 0
    quantum = config.quantum
    issue = config.issue_cycles
    access = msim.access

    for round_index in range(num_rounds):
        heap: list[tuple[int, int, int]] = []  # (time, core, position)
        round_traces: list[list[int]] = []
        for core, core_trace in enumerate(traces):
            lines = core_trace[round_index] if round_index < len(core_trace) else []
            round_traces.append(lines)
            if lines:
                heap.append((core_time[core], core, 0))
        heapq.heapify(heap)
        occupancy = config.port_occupancy
        timed = msim.access_timed
        while heap:
            now, core, pos = heapq.heappop(heap)
            lines = round_traces[core]
            end = min(pos + quantum, len(lines))
            if occupancy:
                for index in range(pos, end):
                    now += timed(core, lines[index], now, occupancy) + issue
            else:
                for index in range(pos, end):
                    now += access(core, lines[index]) + issue
            total_accesses += end - pos
            if end < len(lines):
                heapq.heappush(heap, (now, core, end))
            else:
                core_time[core] = now
        if round_index + 1 < num_rounds:
            barriers += 1
            slowest = max(core_time)
            barrier_cycles += sum(slowest - t for t in core_time)
            core_time = [slowest + config.barrier_overhead] * len(core_time)

    return _collect_result(
        plan, msim, core_time, total_accesses, barriers, barrier_cycles
    )


def _run_engine_batched(
    plan: ExecutablePlan,
    msim: MachineSim,
    config: SimConfig,
    layout: MemoryLayout,
) -> SimResult:
    """Batch private levels, heap-replay only the shared-probe chunks.

    Correctness hinges on two invariants of the oracle above.  (1) A
    private component is only ever touched by its own core and misses
    fill every probed level, so each access's private-level outcomes —
    and therefore its fixed cost and whether it probes the shared suffix
    — do not depend on the interleaving, and barriers do not reset cache
    state, so the whole multi-round trace batches in one pass per level.
    (2) Per-access costs are non-negative, so each core's chunk keys
    ``(time, core, pos)`` are non-decreasing and the oracle pops chunks
    in globally sorted key order; dropping chunks without shared probes
    from the heap cannot reorder the remaining ones.  The shared dict
    caches are therefore mutated in exactly the oracle's order.
    """
    from repro.kernels import cachesim

    with obs.span("sim.trace_build"):
        streams, offsets = cachesim.build_traces_numpy(plan, layout, msim.line_shift)

    width = max(len(plan.nest.accesses), 1)  # a nest without references: empty rows
    issue = config.issue_cycles
    memory_latency = msim.memory_latency
    per_core = []
    repeated = 0
    with obs.span("sim.private_levels"):
        for core, stream in enumerate(streams):
            path = msim.core_paths[core]
            split = next(
                (k for k, entry in enumerate(path) if entry[3]), len(path)
            )
            private_path, shared_path = path[:split], path[split:]
            cum, shared_pos, shared_lines, skipped = _private_pass(
                private_path, stream.reshape(-1, width), issue,
                memory_latency if not shared_path else None,
            )
            repeated += skipped
            per_core.append((cum, shared_pos, shared_lines, offsets[core], shared_path))
    obs.count("sim.repeated_accesses", repeated)

    with obs.span("sim.replay"):
        num_rounds = max((len(offs) - 1 for offs in offsets), default=0)
        core_time, total, barriers, barrier_cycles = _replay_shared(
            per_core, num_rounds, config, memory_latency
        )
    return _collect_result(plan, msim, core_time, total, barriers, barrier_cycles)


def _repeated_points(rows, ways: int):
    """Mask of the points (rows of line numbers, one column per
    reference) that repeat the previous point's lines and touch at most
    ``ways`` distinct lines.

    After a point runs, its distinct lines are the most recently used of
    their sets, so with at most ``ways`` of them all are resident: an
    immediate repeat hits on every access and, touching the lines in the
    same order, leaves every set's LRU order as it was.
    """
    import numpy as np

    repeated = np.zeros(len(rows), dtype=bool)
    repeated[1:] = (rows[1:] == rows[:-1]).all(axis=1)
    if rows.shape[1] > ways:
        candidates = np.flatnonzero(repeated)
        ordered = np.sort(rows[candidates], axis=1)
        distinct = 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)
        repeated[candidates[distinct > ways]] = False
    return repeated


def _private_pass(private_path, rows, issue: int, tail_latency):
    """Per-access fixed costs after batching the private levels.

    ``rows`` holds the core's line numbers, one row per point and one
    column per reference.  Returns ``(cum, shared_pos, shared_lines,
    repeated)`` as int64 arrays and an int: ``cum[i]`` is the summed
    fixed cost of the first ``i`` accesses, the accesses that missed
    every private level are listed by position and line for the shared
    replay, and ``repeated`` counts the accesses of repeated points (see
    :func:`_repeated_points`), charged as first-level hits without
    running the level pass on them.  With ``tail_latency`` set (an
    all-private path) the missing accesses cost memory latency instead
    and the lists are empty.
    """
    import numpy as np

    from repro.kernels import cachesim

    num_points, width = rows.shape
    n = num_points * width
    cost = np.full(n, issue, dtype=np.int64)
    positions = None  # stream positions of level_stream; None = all of them
    level_stream = rows.ravel()
    repeated = 0
    if private_path and num_points > 1:
        first, first_latency = private_path[0][0], private_path[0][1]
        again = _repeated_points(rows, first.ways)
        repeated = int(np.count_nonzero(again)) * width
        if repeated:
            first.hits += repeated
            cost.reshape(num_points, width)[again] += first_latency
            kept = np.flatnonzero(~again)
            positions = (kept[:, None] * width + np.arange(width)).ravel()
            level_stream = rows[kept].ravel()
    for cache, latency, _uid, _shared in private_path:
        if len(level_stream) == 0:
            break
        hits = np.asarray(cachesim.simulate_level(cache, level_stream), dtype=bool)
        if positions is None:
            hit_pos = np.flatnonzero(hits)
            positions = np.flatnonzero(~hits)
        else:
            hit_pos = positions[hits]
            positions = positions[~hits]
        cost[hit_pos] += latency
        level_stream = level_stream[~hits]
    if positions is None:
        positions = np.arange(n, dtype=np.int64)
    if tail_latency is not None:
        cost[positions] += tail_latency
        positions = level_stream = np.empty(0, dtype=np.int64)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cost, out=cum[1:])
    return cum, positions, level_stream, repeated


def _chunk_steps(cum, shared_pos, offs, quantum: int):
    """One core's replay schedule, built per round from its chunks.

    A *probe chunk* is a quantum-aligned chunk of a round holding at
    least one shared probe.  Returns four lists: per round, the fixed
    cost up to its first probe chunk (the whole round's cost when it has
    none) and, one longer, the round's first chunk index; per probe
    chunk, its *step* — the fixed cost from its start to the next probe
    chunk's start, or to the round's end after the last — and, one
    longer, the index of its first probe.  A chunk's heap key plus its
    step plus its probes' latencies is the next chunk's key.
    """
    import numpy as np

    bounds = np.asarray(offs, dtype=np.int64)
    num_rounds = len(bounds) - 1
    if not len(shared_pos):
        lead = cum[bounds[1:]] - cum[bounds[:-1]]
        return lead.tolist(), [0] * (num_rounds + 1), [], [0]
    probe_round = np.searchsorted(bounds, shared_pos, side="right") - 1
    round_start = bounds[probe_round]
    chunk_of = round_start + (shared_pos - round_start) // quantum * quantum
    new_chunk = np.ones(len(chunk_of), dtype=bool)
    new_chunk[1:] = chunk_of[1:] != chunk_of[:-1]
    first_probe = np.flatnonzero(new_chunk)
    starts = chunk_of[first_probe]
    chunk_round = probe_round[first_probe]
    round_chunks = np.searchsorted(chunk_round, np.arange(num_rounds + 1))
    step_end = bounds[chunk_round + 1]
    same_round = chunk_round[1:] == chunk_round[:-1]
    step_end[:-1][same_round] = starts[1:][same_round]
    steps = cum[step_end] - cum[starts]
    lead_end = bounds[1:].copy()
    probed = round_chunks[1:] > round_chunks[:-1]
    lead_end[probed] = starts[round_chunks[:-1][probed]]
    lead = cum[lead_end] - cum[bounds[:-1]]
    probe_bounds = np.append(first_probe, len(shared_pos))
    return lead.tolist(), round_chunks.tolist(), steps.tolist(), probe_bounds.tolist()


class _CoreReplay(NamedTuple):
    """One core's part of the shared replay."""

    lead: list[int]  # per round (see _chunk_steps)
    round_chunks: list[int]
    steps: list[int]  # per probe chunk
    probe_bounds: list[int]
    lines: list[int]  # per probe
    path: tuple  # per shared level: (sets, num_sets, ways, latency, level)
    caches: list  # per shared level
    hits: list[int]  # per shared level, counted by the replay


def _replay_shared(per_core, num_rounds: int, config: SimConfig, memory_latency: int):
    """Advance core clocks round by round, probing shared caches in
    oracle heap order.

    Only probe chunks enter the heap; every other chunk's cost is folded
    into the steps of :func:`_chunk_steps`.  A popped core keeps running
    while its next chunk's key sorts before the heap top, which is the
    chunk the oracle would pop next.  Shared hits are counted per core
    and level; misses follow from them, and evictions from the change in
    each component's occupancy.
    """
    num_cores = len(per_core)
    core_time = [0] * num_cores
    barriers = 0
    barrier_cycles = 0
    total_accesses = 0
    cores = []
    occupancy = {}  # id(component) -> (component, resident lines before)
    for cum, shared_pos, shared_lines, offs, shared_path in per_core:
        total_accesses += offs[-1]
        caches = [entry[0] for entry in shared_path]
        path = tuple(
            (cache.sets, cache.num_sets, cache.ways, latency, level)
            for level, (cache, latency, _uid, _shared) in enumerate(shared_path)
        )
        cores.append(_CoreReplay(
            *_chunk_steps(cum, shared_pos, offs, config.quantum),
            shared_lines.tolist(), path, caches, [0] * len(path),
        ))
        for cache in caches:
            occupancy.setdefault(id(cache), (cache, cache.occupancy()))

    for round_index in range(num_rounds):
        heap: list[tuple[int, int, int, int]] = []  # (time, core, chunk, stop)
        for core, replay in enumerate(cores):
            if round_index >= len(replay.lead):
                continue
            chunk, stop = replay.round_chunks[round_index : round_index + 2]
            if chunk == stop:
                core_time[core] += replay.lead[round_index]
            else:
                heap.append((core_time[core] + replay.lead[round_index], core, chunk, stop))
        heapq.heapify(heap)
        while heap:
            now, core, chunk, stop = heapq.heappop(heap)
            _lead, _rc, steps, probe_bounds, lines, path, _caches, hits = cores[core]
            rival_time, rival_core = heap[0][:2] if heap else (None, None)
            while True:
                for line in lines[probe_bounds[chunk] : probe_bounds[chunk + 1]]:
                    for sets, num_sets, ways, latency, level in path:
                        bucket = sets[line % num_sets]
                        if line in bucket:
                            del bucket[line]
                            bucket[line] = None
                            hits[level] += 1
                            now += latency
                            break
                        bucket[line] = None
                        if len(bucket) > ways:
                            del bucket[next(iter(bucket))]
                    else:
                        now += memory_latency
                now += steps[chunk]
                chunk += 1
                if chunk == stop:
                    core_time[core] = now
                    break
                if rival_time is not None and (
                    now > rival_time or (now == rival_time and core > rival_core)
                ):
                    heapq.heappush(heap, (now, core, chunk, stop))
                    break
        if round_index + 1 < num_rounds:
            barriers += 1
            slowest = max(core_time)
            barrier_cycles += sum(slowest - t for t in core_time)
            core_time = [slowest + config.barrier_overhead] * num_cores

    _settle_shared_counts(cores, occupancy)
    return core_time, total_accesses, barriers, barrier_cycles


def _settle_shared_counts(cores: list[_CoreReplay], occupancy: dict) -> None:
    """Add the replay's hits, misses and evictions to the shared caches.

    A core's probes all reach its first shared level and each level's
    misses reach the next.  Hits never change a set's size and a miss
    grows it by one unless it evicts, so a component's evictions are its
    replay misses less its growth in occupancy.
    """
    new_misses = dict.fromkeys(occupancy, 0)
    for replay in cores:
        reached = replay.probe_bounds[-1]
        for cache, level_hits in zip(replay.caches, replay.hits):
            cache.hits += level_hits
            cache.misses += reached - level_hits
            new_misses[id(cache)] += reached - level_hits
            reached -= level_hits
    for key, (cache, before) in occupancy.items():
        cache.evictions += new_misses[key] - (cache.occupancy() - before)


def _collect_result(
    plan: ExecutablePlan,
    msim: MachineSim,
    core_time: list[int],
    total_accesses: int,
    barriers: int,
    barrier_cycles: int,
) -> SimResult:
    levels = []
    for level_name, components in msim.level_components().items():
        levels.append(
            LevelStats(
                level_name,
                sum(c.hits for c in components),
                sum(c.misses for c in components),
            )
        )
    levels.sort(key=lambda s: _level_rank(s.level))
    last_misses = levels[-1].misses if levels else total_accesses
    return SimResult(
        label=plan.label,
        machine_name=msim.machine.name,
        cycles=max(core_time) if core_time else 0,
        core_cycles=tuple(core_time),
        levels=tuple(levels),
        memory_accesses=last_misses,
        total_accesses=total_accesses,
        barriers=barriers,
        barrier_cycles=barrier_cycles,
    )


def _level_rank(level: str) -> int:
    try:
        return int(level.lstrip("L"))
    except ValueError:
        return 99
