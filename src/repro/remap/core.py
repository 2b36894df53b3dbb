"""The incremental remapper: event -> minimal pipeline replay.

The whole trick rides on the stage-key design of PR 5.  A stage key is

    (stage, program digest, nest, machine digest, knob tuple, epoch)

so the two event families invalidate differently:

* **Phase changes** alter knobs.  The knob tuples are cumulative, so the
  new keys share the prefix up to the earliest changed knob's stage and
  the :class:`~repro.pipeline.core.MappingPipeline` replays that prefix
  straight from the :class:`~repro.pipeline.store.ArtifactStore` — no
  remapper work needed beyond re-running the pipeline with new knobs,
  and only for the affected nests.
* **Topology events** (core loss, hot-plug, edits) alter the machine
  digest, which appears in *every* key — a naive re-run recomputes all
  five stages.  But the first three stages never look at the tree:
  blocksize reads only the L1 capacity, tagging reads the nest and the
  block partition, dependence reads the nest and the groups.  So
  :func:`carry_prefix` copies those artifacts from the old machine's
  keys to the new machine's keys (guarded on the L1 capacity being
  unchanged, the prefix's only topology input), and the pipeline then
  *hits* the carried prefix and recomputes only distribute→schedule.

Either way the replayed artifacts are byte-identical to what a cold map
of the post-event state would compute, so every remapped plan is
bit-identical to a cold plan — ``tests/remap/test_differential.py``
pins that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import RemapError
from repro.experiments.cache import machine_digest
from repro.ir.loops import LoopNest, Program
from repro.mapping.distribute import ExecutablePlan
from repro.pipeline.core import MappingPipeline
from repro.pipeline.knobs import STAGE_ORDER, Knobs
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

__all__ = ["RemapOutcome", "Remapper", "carry_prefix", "cold_plan"]

#: The machine-independent prefix of the chain (see module docstring).
CARRY_STAGES = STAGE_ORDER[:3]  # blocksize, tagging, dependence


def _l1_size(machine: Machine) -> int | None:
    path = machine.cache_path(machine.core_ids()[0])
    return path[0].spec.size_bytes if path else None


def carry_prefix(
    store: ArtifactStore,
    program: Program,
    nest: LoopNest,
    old_machine: Machine,
    new_machine: Machine,
    old_knobs: Knobs,
    new_knobs: Knobs,
) -> int:
    """Re-key the machine-independent prefix old machine -> new machine.

    Copies the blocksize/tagging/dependence artifacts for one nest from
    the old machine's stage keys to the new machine's, stopping at the
    first stage whose artifact is absent or whose knob tuple changed.
    Returns how many artifacts were carried.

    The carry is refused outright when the resolved block size could
    differ: the blocksize stage reads the L1 capacity, so unless the
    ``block_size`` knob pins it, both machines must agree on L1 size —
    then (and only then) every carried artifact equals what a cold map
    of the new machine would compute, which is what keeps remapped plans
    bit-identical to cold ones.
    """
    if old_knobs.block_size is None or new_knobs.block_size is None:
        if _l1_size(old_machine) != _l1_size(new_machine):
            return 0
    old_pipe = MappingPipeline(old_machine, old_knobs, store=store)
    new_pipe = MappingPipeline(new_machine, new_knobs, store=store)
    old_base = old_pipe._base_key(program, nest)
    new_base = new_pipe._base_key(program, nest)
    carried = 0
    for stage in CARRY_STAGES:
        if old_knobs.stage_tuple(stage) != new_knobs.stage_tuple(stage):
            break
        artifact = store.peek(old_pipe.stage_key(stage, old_base))
        if artifact is None:
            break
        new_key = new_pipe.stage_key(stage, new_base)
        if store.peek(new_key) is None:
            store.put(new_key, artifact)
        carried += 1
    return carried


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
    carried: int
    elapsed_ms: float


class Remapper:
    """Holds the live mapping state of one program and applies events.

    State is (base machine, dead physical-core set, per-nest knobs,
    shared artifact store, current plans).  :meth:`apply` transitions
    the state and re-runs the pipeline for the affected nests only;
    everything reusable comes out of the store.
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
        self.base_machine = machine
        self.dead: set[int] = set()
        base = knobs if knobs is not None else Knobs()
        self._knobs: dict[str, Knobs] = {nest.name: base for nest in program.nests}
        self.store = store if store is not None else ArtifactStore(capacity=512)
        self.plans: dict[str, ExecutablePlan] = {}
        self.events_applied = 0
        self.prime()

    # -- state queries ---------------------------------------------------

    @property
    def machine(self) -> Machine:
        """The current (possibly pruned) mapper view of the machine."""
        return self.base_machine.without_cores(sorted(self.dead))

    def knobs_for(self, nest_name: str) -> Knobs:
        return self._knobs[nest_name]

    def plan_for(self, nest_name: str) -> ExecutablePlan:
        return self.plans[nest_name]

    # -- execution -------------------------------------------------------

    def prime(self) -> float:
        """Cold-map every nest of the program; returns elapsed ms."""
        started = time.perf_counter()
        machine = self.machine
        for nest in self.program.nests:
            pipe = MappingPipeline(machine, self._knobs[nest.name], store=self.store)
            self.plans[nest.name] = pipe.map_nest(self.program, nest).plan()
        return (time.perf_counter() - started) * 1000

    def apply(self, event: RemapEvent) -> RemapOutcome:
        """Transition state per ``event`` and remap the affected nests."""
        started = time.perf_counter()
        kind = event_kind(event)
        old_machine = self.machine
        old_knobs = dict(self._knobs)
        affected = self._transition(event)
        new_machine = self.machine

        carried = 0
        if machine_digest(new_machine) != machine_digest(old_machine):
            for nest in self.program.nests:
                carried += carry_prefix(
                    self.store,
                    self.program,
                    nest,
                    old_machine,
                    new_machine,
                    old_knobs[nest.name],
                    self._knobs[nest.name],
                )

        replayed = recomputed = 0

        def observe(stage: str, hit: bool) -> None:
            nonlocal replayed, recomputed
            if hit:
                replayed += 1
            else:
                recomputed += 1

        with obs.span(
            "remap.apply", event=kind, machine=new_machine.name, nests=len(affected)
        ) as sp:
            for name in affected:
                nest = next(n for n in self.program.nests if n.name == name)
                pipe = MappingPipeline(
                    new_machine, self._knobs[name], store=self.store, observer=observe
                )
                self.plans[name] = pipe.map_nest(self.program, nest).plan()
            sp.tag(replayed=replayed, recomputed=recomputed, carried=carried)
        obs.count("remap.stages_replayed", replayed)
        obs.count("remap.stages_recomputed", recomputed)
        obs.count(f"remap.events.{kind}")
        self.events_applied += 1

        return RemapOutcome(
            kind=kind,
            machine=new_machine,
            affected=tuple(affected),
            plans={name: self.plans[name] for name in affected},
            knobs={name: self._knobs[name] for name in affected},
            stages_replayed=replayed,
            stages_recomputed=recomputed,
            carried=carried,
            elapsed_ms=(time.perf_counter() - started) * 1000,
        )

    def _transition(self, event: RemapEvent) -> list[str]:
        """Mutate (base machine, dead set, knobs); return affected nests."""
        all_nests = [n.name for n in self.program.nests]
        if isinstance(event, PhaseChange):
            if event.nest is not None:
                if event.nest not in self._knobs:
                    raise RemapError(f"no nest {event.nest!r} in program")
                names = [event.nest]
            else:
                names = all_nests
            for name in names:
                self._knobs[name] = self._knobs[name].replace(**event.knob_changes)
            return names
        if isinstance(event, CoreLoss):
            live = set(self.base_machine.core_ids()) - self.dead
            bad = sorted(set(event.cores) - live)
            if bad:
                raise RemapError(f"core loss for unknown or already-dead cores {bad}")
            if live <= set(event.cores):
                raise RemapError("cannot lose every core")
            self.dead |= set(event.cores)
            return all_nests
        if isinstance(event, CoreHotplug):
            bad = sorted(set(event.cores) - self.dead)
            if bad:
                raise RemapError(f"hot-plug for cores that never went away: {bad}")
            self.dead -= set(event.cores)
            return all_nests
        if isinstance(event, TopologyEdit):
            self.base_machine = event.machine
            self.dead = set()
            return all_nests
        raise RemapError(f"not a remap event: {event!r}")


def cold_plan(
    program: Program, nest: LoopNest, machine: Machine, knobs: Knobs
) -> ExecutablePlan:
    """A from-scratch plan of the given state (no store): the
    differential ground truth every remapped plan is compared against."""
    return MappingPipeline(machine, knobs, store=None).map_nest(program, nest).plan()
