"""The incremental remapper: event -> minimal pipeline replay.

The whole trick rides on the stage keys of
:class:`~repro.pipeline.core.MappingPipeline`: each stage keys on its
cumulative knob tuple and on only the machine fact it reads, so

* **phase changes** alter knobs and dirty the stages from the earliest
  changed knob's onward — for only the affected nests;
* **topology events** (core loss, hot-plug, edits) alter the machine
  digest, which only ``distribute`` and ``schedule`` key on.  Blocksize
  keys on the L1 capacity (and only while ``block_size`` is unset),
  tagging and dependence on no machine, so the prefix replays through
  plain key hits unless the L1 capacity moved.

Nothing is copied between keys: the remapper only transitions its state
(:func:`transition`) and re-runs the pipeline through the shared store
(:func:`replay`), which counts what hit and what recomputed.  Both are
also what the service's ``POST /remap`` runs.  The replayed artifacts
are the ones a cold map of the post-event state computes, so every
remapped plan is bit-identical to a cold plan —
``tests/remap/test_differential.py`` pins that.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import RemapError
from repro.ir.loops import LoopNest, Program
from repro.mapping.distribute import ExecutablePlan, MappingResult
from repro.pipeline.core import MappingPipeline
from repro.pipeline.knobs import Knobs
from repro.pipeline.store import ArtifactStore
from repro.remap.events import (
    CoreHotplug,
    CoreLoss,
    PhaseChange,
    RemapEvent,
    TopologyEdit,
    event_kind,
)
from repro.topology.tree import Machine

__all__ = [
    "RemapOutcome",
    "RemapState",
    "Remapper",
    "cold_plan",
    "replay",
    "transition",
]


@dataclass(frozen=True)
class RemapState:
    """What an event transitions: the base machine, the physical cores
    lost from it, and each nest's knobs."""

    base: Machine
    dead: frozenset[int]
    knobs: dict[str, Knobs]

    @property
    def machine(self) -> Machine:
        """The mapper's view: the base machine without the dead cores."""
        return self.base.without_cores(sorted(self.dead))


def transition(
    state: RemapState, event: RemapEvent
) -> tuple[RemapState, tuple[str, ...]]:
    """The post-event state, and the nests whose mapping it dirties."""
    everything = tuple(state.knobs)
    if isinstance(event, PhaseChange):
        if event.nest is not None and event.nest not in state.knobs:
            raise RemapError(f"no nest {event.nest!r} in program")
        names = everything if event.nest is None else (event.nest,)
        knobs = dict(state.knobs)
        for name in names:
            knobs[name] = knobs[name].decode(event.knob_changes)
        return dataclasses.replace(state, knobs=knobs), names
    if isinstance(event, CoreLoss):
        live = set(state.base.core_ids()) - state.dead
        bad = sorted(set(event.cores) - live)
        if bad:
            raise RemapError(f"core loss for unknown or already-dead cores {bad}")
        if live <= set(event.cores):
            raise RemapError("cannot lose every core")
        return dataclasses.replace(state, dead=state.dead | set(event.cores)), everything
    if isinstance(event, CoreHotplug):
        bad = sorted(set(event.cores) - state.dead)
        if bad:
            raise RemapError(f"hot-plug for cores that never went away: {bad}")
        return dataclasses.replace(state, dead=state.dead - set(event.cores)), everything
    if isinstance(event, TopologyEdit):
        return RemapState(event.machine, frozenset(), state.knobs), everything
    raise RemapError(f"not a remap event: {event!r}")


def replay(
    program: Program,
    machine: Machine,
    knobs: dict[str, Knobs],
    store: ArtifactStore,
    kind: str,
) -> tuple[dict[str, MappingResult], int, int]:
    """Map each named nest with its knobs through ``store``.

    Returns the results and how many stage visits hit the store
    (replayed) and missed it (recomputed).
    """
    counts = {True: 0, False: 0}

    def observe(stage: str, hit: bool) -> None:
        counts[hit] += 1

    with obs.span("remap.apply", event=kind, machine=machine.name, nests=len(knobs)) as sp:
        results = {
            name: MappingPipeline(
                machine, nest_knobs, store=store, observer=observe
            ).map_nest(program, program.nest(name))
            for name, nest_knobs in knobs.items()
        }
        sp.tag(replayed=counts[True], recomputed=counts[False])
    obs.count("remap.stages_replayed", counts[True])
    obs.count("remap.stages_recomputed", counts[False])
    obs.count(f"remap.events.{kind}")
    return results, counts[True], counts[False]


@dataclass(frozen=True)
class RemapOutcome:
    """What one applied event did."""

    kind: str
    machine: Machine
    affected: tuple[str, ...]
    plans: dict = field(repr=False)  # nest name -> ExecutablePlan (affected only)
    knobs: dict = field(repr=False)  # nest name -> Knobs at event time (affected only)
    stages_replayed: int
    stages_recomputed: int
    elapsed_ms: float


class Remapper:
    """Holds the live mapping state of one program and applies events.

    State is a :class:`RemapState` plus the shared artifact store and
    the current plans.  :meth:`apply` transitions the state and re-runs
    the pipeline for the affected nests only; everything reusable comes
    out of the store.
    """

    def __init__(
        self,
        program: Program,
        machine: Machine,
        knobs: Knobs | None = None,
        store: ArtifactStore | None = None,
    ):
        if not program.nests:
            raise RemapError("program has no loop nests to remap")
        self.program = program
        base = knobs if knobs is not None else Knobs()
        self.state = RemapState(
            machine, frozenset(), {nest.name: base for nest in program.nests}
        )
        self.store = store if store is not None else ArtifactStore(capacity=512)
        self.plans: dict[str, ExecutablePlan] = {}
        self.events_applied = 0
        self.prime()

    # -- state queries ---------------------------------------------------

    @property
    def machine(self) -> Machine:
        """The current (possibly pruned) mapper view of the machine."""
        return self.state.machine

    @property
    def dead(self) -> frozenset[int]:
        return self.state.dead

    def knobs_for(self, nest_name: str) -> Knobs:
        return self.state.knobs[nest_name]

    def plan_for(self, nest_name: str) -> ExecutablePlan:
        return self.plans[nest_name]

    # -- execution -------------------------------------------------------

    def prime(self) -> float:
        """Cold-map every nest of the program; returns elapsed ms."""
        started = time.perf_counter()
        machine = self.machine
        for nest in self.program.nests:
            pipe = MappingPipeline(machine, self.knobs_for(nest.name), store=self.store)
            self.plans[nest.name] = pipe.map_nest(self.program, nest).plan()
        return (time.perf_counter() - started) * 1000

    def apply(self, event: RemapEvent) -> RemapOutcome:
        """Transition state per ``event`` and remap the affected nests."""
        started = time.perf_counter()
        kind = event_kind(event)
        self.state, affected = transition(self.state, event)
        machine = self.machine
        knobs = {name: self.state.knobs[name] for name in affected}
        results, replayed, recomputed = replay(
            self.program, machine, knobs, self.store, kind
        )
        for name, result in results.items():
            self.plans[name] = result.plan()
        self.events_applied += 1
        return RemapOutcome(
            kind=kind,
            machine=machine,
            affected=affected,
            plans={name: self.plans[name] for name in affected},
            knobs=knobs,
            stages_replayed=replayed,
            stages_recomputed=recomputed,
            elapsed_ms=(time.perf_counter() - started) * 1000,
        )


def cold_plan(
    program: Program, nest: LoopNest, machine: Machine, knobs: Knobs
) -> ExecutablePlan:
    """A from-scratch plan of the given state (no store): the
    differential ground truth every remapped plan is compared against."""
    return MappingPipeline(machine, knobs, store=None).map_nest(program, nest).plan()
