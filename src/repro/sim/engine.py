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
simply sorted key order.  It therefore simulates each core's private
levels over the whole concatenated trace in one pass per level
(:mod:`repro.kernels.cachesim`), precomputes per-access fixed costs, and
replays only the chunks containing shared-cache probes through a heap —
touching the shared dict caches in exactly the oracle's order, which
makes the result bit-identical (cycles, per-level hits/misses/evictions,
final cache state).  ``SimConfig.backend`` selects: ``python`` is the
oracle, ``numpy`` the vectorized batch engine, ``auto`` (default) picks
the batch engine when numpy imports and contention modeling is off
(``port_occupancy == 0``), and the oracle otherwise.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass

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

    issue = config.issue_cycles
    memory_latency = msim.memory_latency
    per_core = []
    with obs.span("sim.private_levels"):
        for core, stream in enumerate(streams):
            path = msim.core_paths[core]
            split = next(
                (k for k, entry in enumerate(path) if entry[3]), len(path)
            )
            private_path, shared_path = path[:split], path[split:]
            cum, shared_pos, shared_lines = _private_pass(
                private_path, stream, issue,
                memory_latency if not shared_path else None,
            )
            probe_path = tuple((entry[0], entry[1]) for entry in shared_path)
            per_core.append(
                (cum, shared_pos, shared_lines, offsets[core], probe_path)
            )

    with obs.span("sim.replay"):
        num_rounds = max((len(offs) - 1 for offs in offsets), default=0)
        core_time, total, barriers, barrier_cycles = _replay_shared(
            per_core, num_rounds, config, memory_latency
        )
    return _collect_result(plan, msim, core_time, total, barriers, barrier_cycles)


def _private_pass(private_path, stream, issue: int, tail_latency):
    """Per-access fixed costs after batching the private levels.

    Returns ``(cum, shared_pos, shared_lines)``: ``cum[i]`` is the summed
    fixed cost of the first ``i`` accesses (as plain ints), and the
    accesses that missed every private level are listed by position and
    line for the shared replay.  With ``tail_latency`` set (an all-private
    path) those accesses cost memory latency instead and the lists are
    empty.
    """
    import numpy as np

    from repro.kernels import cachesim

    n = len(stream)
    cost = np.full(n, issue, dtype=np.int64)
    idx = None  # positions still missing; None = all, aligned with stream
    level_stream = stream
    for cache, latency, _uid, _shared in private_path:
        if len(level_stream) == 0:
            break
        hits = cachesim.simulate_level(cache, level_stream)
        if isinstance(hits, list):
            hits = np.asarray(hits, dtype=bool)
        if idx is None:
            hit_idx = np.flatnonzero(hits)
            idx = np.flatnonzero(~hits)
        else:
            hit_idx = idx[hits]
            idx = idx[~hits]
        cost[hit_idx] += latency
        level_stream = level_stream[~hits]
    if idx is None:
        idx = np.arange(n, dtype=np.int64)
        level_stream = stream
    if tail_latency is not None:
        cost[idx] += tail_latency
        shared_pos: list[int] = []
        shared_lines: list[int] = []
    else:
        shared_pos = idx.tolist()
        shared_lines = level_stream.tolist()
    cum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(cost))).tolist()
    return cum, shared_pos, shared_lines


def _replay_shared(per_core, num_rounds: int, config: SimConfig, memory_latency: int):
    """Advance core clocks round by round, probing shared caches in
    oracle heap order; only chunks containing shared probes enter the
    heap, every other chunk's cost comes from the prefix sums."""
    quantum = config.quantum
    num_cores = len(per_core)
    core_time = [0] * num_cores
    barriers = 0
    barrier_cycles = 0
    total_accesses = 0

    for round_index in range(num_rounds):
        heap: list[tuple[int, int, int]] = []
        cursor: dict[int, tuple[int, int]] = {}  # core -> (next probe, stop)
        for core in range(num_cores):
            cum, shared_pos, _lines, offs, _path = per_core[core]
            if round_index + 1 >= len(offs):
                continue
            start, end = offs[round_index], offs[round_index + 1]
            seg_len = end - start
            if seg_len == 0:
                continue
            total_accesses += seg_len
            lo = bisect_left(shared_pos, start)
            hi = bisect_left(shared_pos, end)
            if lo == hi:
                core_time[core] += cum[end] - cum[start]
                continue
            chunk = ((shared_pos[lo] - start) // quantum) * quantum
            key = core_time[core] + cum[start + chunk] - cum[start]
            heap.append((key, core, chunk))
            cursor[core] = (lo, hi)
        heapq.heapify(heap)
        while heap:
            now, core, chunk = heapq.heappop(heap)
            cum, shared_pos, shared_lines, offs, probe_path = per_core[core]
            start, end = offs[round_index], offs[round_index + 1]
            seg_len = end - start
            chunk_end = min(chunk + quantum, seg_len)
            cost = cum[start + chunk_end] - cum[start + chunk]
            pointer, stop = cursor[core]
            bound = start + chunk_end
            while pointer < stop and shared_pos[pointer] < bound:
                line = shared_lines[pointer]
                latency = memory_latency
                for cache, cache_latency in probe_path:
                    bucket = cache.sets[line % cache.num_sets]
                    if line in bucket:
                        del bucket[line]
                        bucket[line] = None
                        cache.hits += 1
                        latency = cache_latency
                        break
                    cache.misses += 1
                    bucket[line] = None
                    if len(bucket) > cache.ways:
                        del bucket[next(iter(bucket))]
                        cache.evictions += 1
                cost += latency
                pointer += 1
            now += cost
            if pointer < stop:
                cursor[core] = (pointer, stop)
                next_chunk = ((shared_pos[pointer] - start) // quantum) * quantum
                key = now + cum[start + next_chunk] - cum[start + chunk_end]
                heapq.heappush(heap, (key, core, next_chunk))
            else:
                core_time[core] = now + cum[start + seg_len] - cum[start + chunk_end]
        if round_index + 1 < num_rounds:
            barriers += 1
            slowest = max(core_time)
            barrier_cycles += sum(slowest - t for t in core_time)
            core_time = [slowest + config.barrier_overhead] * num_cores
    return core_time, total_accesses, barriers, barrier_cycles


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
