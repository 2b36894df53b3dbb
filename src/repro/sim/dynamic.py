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
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

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


# -- dynamic-behaviour model (drives repro.remap) ---------------------------
#
# The self-scheduling simulator above answers "what does dynamic
# *distribution* cost"; the classes below answer the complementary
# question the online remapper needs: "what does a workload's behaviour
# look like *over time*".  A :class:`BehaviorModel` turns a phase script
# (imbalance/sharing levels) plus optional core loss/hot-plug events
# into a deterministic stream of :class:`ExecutionSample` observations,
# the input of :class:`repro.remap.ExecutionWatcher`.


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a workload's execution.

    ``imbalance`` is the per-core load skew the phase exhibits
    ((max-mean)/mean of core cycles) and ``sharing`` the fraction of
    cross-core data sharing, both in [0, 1].  ``steps`` is how many
    observation windows the phase lasts.
    """

    name: str
    steps: int
    imbalance: float
    sharing: float

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise SimulationError(f"phase {self.name!r}: steps must be positive")
        if not 0 <= self.imbalance <= 1 or not 0 <= self.sharing <= 1:
            raise SimulationError(
                f"phase {self.name!r}: imbalance/sharing must be in [0, 1]"
            )


@dataclass(frozen=True)
class CoreEvent:
    """A core going away or coming back at a given step.

    ``cores`` are *physical* ids of the model's base machine — the same
    numbering the remapper's dead-set tracks — independent of any
    renumbering a pruned machine performs.
    """

    step: int
    kind: str  # "loss" | "hotplug"
    cores: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("loss", "hotplug"):
            raise SimulationError(f"unknown core event kind {self.kind!r}")
        if not self.cores:
            raise SimulationError("core event needs at least one core")


@dataclass(frozen=True)
class ExecutionSample:
    """One observation window of a running nest.

    ``active_cores`` are physical core ids; ``core_cycles`` aligns with
    them.  ``sharing`` is the observed cross-core sharing fraction.
    """

    step: int
    nest: str
    phase: str
    active_cores: tuple[int, ...]
    core_cycles: tuple[int, ...]
    sharing: float

    def imbalance(self) -> float:
        """(max - mean) / mean of the per-core cycles."""
        if not self.core_cycles:
            return 0.0
        mean = sum(self.core_cycles) / len(self.core_cycles)
        if mean <= 0:
            return 0.0
        return (max(self.core_cycles) - mean) / mean


class BehaviorModel:
    """Deterministic phased execution stream for one nest.

    The per-core base load comes either from a real
    :func:`simulate_dynamic` run (:meth:`from_simulation`) or a flat
    synthetic vector; each phase modulates it with a linear skew sized
    to the phase's target imbalance plus small seeded jitter, so the
    watcher sees realistic, non-constant signals while the whole stream
    stays reproducible.
    """

    def __init__(
        self,
        nest_name: str,
        machine: Machine,
        phases: Sequence[PhaseSpec],
        core_events: Sequence[CoreEvent] = (),
        base_cycles: Sequence[int] | None = None,
        seed: int = 0,
    ):
        if not phases:
            raise SimulationError("behavior model needs at least one phase")
        self.nest_name = nest_name
        self.machine = machine
        self.phases = tuple(phases)
        self.core_events = tuple(sorted(core_events, key=lambda e: e.step))
        n = machine.num_cores
        if base_cycles is None:
            base_cycles = [10_000] * n
        if len(base_cycles) != n:
            raise SimulationError(
                f"base_cycles has {len(base_cycles)} entries for {n} cores"
            )
        self.base_cycles = tuple(int(c) for c in base_cycles)
        self.seed = seed

    @classmethod
    def from_simulation(
        cls,
        nest: LoopNest,
        machine: Machine,
        phases: Sequence[PhaseSpec],
        core_events: Sequence[CoreEvent] = (),
        seed: int = 0,
        **sim_kwargs,
    ) -> "BehaviorModel":
        """Seed the base per-core load from a real dynamic simulation."""
        result = simulate_dynamic(nest, machine, **sim_kwargs)
        return cls(
            nest.name,
            machine,
            phases,
            core_events,
            base_cycles=result.core_cycles,
            seed=seed,
        )

    def total_steps(self) -> int:
        return sum(p.steps for p in self.phases)

    def samples(self) -> Iterator[ExecutionSample]:
        """The observation stream, one sample per step."""
        rng = random.Random(self.seed)
        active = set(range(self.machine.num_cores))
        events = list(self.core_events)
        step = 0
        for phase in self.phases:
            for _ in range(phase.steps):
                while events and events[0].step <= step:
                    event = events.pop(0)
                    if event.kind == "loss":
                        active -= set(event.cores)
                    else:
                        active |= set(event.cores)
                if not active:
                    raise SimulationError(f"no active cores left at step {step}")
                cores = tuple(sorted(active))
                n = len(cores)
                # Linear skew across active cores: mean multiplier is 1,
                # max is 1 + imbalance (matching the phase's target),
                # plus ±2% seeded jitter.
                cycles = []
                for rank, core in enumerate(cores):
                    skew = phase.imbalance * (2 * rank / (n - 1) - 1) if n > 1 else 0.0
                    jitter = 1 + rng.uniform(-0.02, 0.02)
                    cycles.append(max(1, int(self.base_cycles[core] * (1 + skew) * jitter)))
                sharing = min(1.0, max(0.0, phase.sharing + rng.uniform(-0.02, 0.02)))
                yield ExecutionSample(
                    step=step,
                    nest=self.nest_name,
                    phase=phase.name,
                    active_cores=cores,
                    core_cycles=tuple(cycles),
                    sharing=sharing,
                )
                step += 1
