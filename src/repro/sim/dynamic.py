"""Dynamic (self-scheduling) execution — the paper's related-work foil.

The paper notes that its "initial experience with dynamic scheduling
schemes like [Markatos & LeBlanc] did not generate good results ...
mostly due to the cost of dynamic iteration distribution."  This module
simulates exactly that alternative: a central queue of iteration chunks;
whenever a core drains its chunk it grabs the next one, paying a dispatch
overhead.  Load balance is perfect by construction, but data-block
sharing lands on whichever core happens to be free — the opposite of
topology-aware placement.
"""

from __future__ import annotations

import heapq

from repro.errors import SimulationError
from repro.ir.loops import LoopNest
from repro.sim.engine import SimConfig, _level_rank
from repro.sim.hierarchy import MachineSim
from repro.sim.stats import LevelStats, SimResult
from repro.sim.trace import MemoryLayout, line_stream
from repro.topology.tree import Machine


def simulate_dynamic(
    nest: LoopNest,
    machine: Machine,
    chunk_iterations: int = 64,
    dispatch_overhead: int = 200,
    config: SimConfig | None = None,
) -> SimResult:
    """Simulate central-queue self-scheduling of a nest.

    ``chunk_iterations`` is the grab granularity; ``dispatch_overhead``
    is the cycles a core pays per grab (queue lock + distribution cost,
    the term the paper blames).  Returns the same :class:`SimResult` the
    static engine produces.
    """
    if chunk_iterations <= 0:
        raise SimulationError("chunk size must be positive")
    if dispatch_overhead < 0:
        raise SimulationError("dispatch overhead must be non-negative")
    config = config or SimConfig()
    msim = MachineSim(machine)
    layout = MemoryLayout.for_nest(nest, msim.line_size)

    # Pre-render the full lexicographic trace once; chunks are slices.
    nest.validate_access_bounds()
    lines = line_stream(nest, layout, msim.line_shift)(nest.iterations())

    refs = len(nest.accesses)
    chunk_len = chunk_iterations * refs
    num_chunks = (len(lines) + chunk_len - 1) // chunk_len
    next_chunk = 0

    issue = config.issue_cycles
    access = msim.access
    heap = [(0, core) for core in range(machine.num_cores)]
    heapq.heapify(heap)
    finish = [0] * machine.num_cores
    total = 0
    while heap:
        now, core = heapq.heappop(heap)
        if next_chunk >= num_chunks:
            finish[core] = now
            continue
        start = next_chunk * chunk_len
        next_chunk += 1
        now += dispatch_overhead
        for line in lines[start : start + chunk_len]:
            now += access(core, line) + issue
        total += len(lines[start : start + chunk_len])
        heapq.heappush(heap, (now, core))

    levels = [
        LevelStats(name, sum(c.hits for c in comps), sum(c.misses for c in comps))
        for name, comps in msim.level_components().items()
    ]
    levels.sort(key=lambda s: _level_rank(s.level))
    return SimResult(
        label="dynamic",
        machine_name=machine.name,
        cycles=max(finish) if finish else 0,
        core_cycles=tuple(finish),
        levels=tuple(levels),
        memory_accesses=levels[-1].misses if levels else total,
        total_accesses=total,
        barriers=0,
        barrier_cycles=0,
    )
