"""The events an online remapper reacts to.

Three things change under a running workload (ROADMAP: "phase changes,
core loss/hot-plug, or topology edits"), and each dirties a different
suffix of the five-stage pipeline:

* :class:`PhaseChange` — the workload's observed behaviour shifted, so
  the mapper *knobs* should shift with it.  The stage keys embed
  cumulative knob tuples, so this dirties exactly the stages downstream
  of the earliest changed knob — for only the affected nests.
* :class:`CoreLoss` / :class:`CoreHotplug` — cores go away or come
  back.  The machine digest changes, and only ``distribute`` and
  ``schedule`` key on it; blocksize, tagging and dependence keep their
  keys, and replay, as long as core 0's L1 capacity (all blocksize
  reads) stays put.
* :class:`TopologyEdit` — the mapper's machine view is replaced
  wholesale (cache scaling, level truncation, a different tree).  Same
  invalidation as core loss, unless the block size is unset and the
  edit changes the L1 capacity: then every stage recomputes.

Core ids in events are always *physical* ids of the base machine, never
the renumbered ids of an already-pruned machine — the remap state holds
the dead-set and derives the pruned view itself
(:func:`repro.remap.core.transition`).

:func:`parse_event` / :func:`event_to_dict` are the wire codec shared by
the service protocol and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import MappingError, RemapError, TopologyError, UnknownMachineError
from repro.pipeline.knobs import Knobs
from repro.topology.resolve import machine_from_fields
from repro.topology.tree import Machine

__all__ = [
    "CoreHotplug",
    "CoreLoss",
    "PhaseChange",
    "RemapEvent",
    "TopologyEdit",
    "event_kind",
    "event_to_dict",
    "parse_event",
]


@dataclass(frozen=True)
class PhaseChange:
    """The workload entered a phase that wants different knobs.

    ``knobs`` is a sorted tuple of ``(name, value)`` changes (kept as a
    tuple so events are hashable), checked by the one knob codec
    (:meth:`~repro.pipeline.knobs.Knobs.decode`, which refuses what
    ``/map`` refuses); ``nest`` optionally
    restricts the change to one nest — ``None`` means every nest of the
    program.
    """

    knobs: tuple[tuple[str, object], ...]
    nest: str | None = None

    def __post_init__(self) -> None:
        try:
            Knobs().decode(self.knob_changes)
        except MappingError as error:
            raise RemapError(str(error)) from None

    @staticmethod
    def of(nest: str | None = None, **knobs) -> "PhaseChange":
        return PhaseChange(tuple(sorted(knobs.items())), nest=nest)

    @property
    def knob_changes(self) -> dict:
        return dict(self.knobs)


@dataclass(frozen=True)
class CoreLoss:
    """Physical cores went offline."""

    cores: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_cores(self.cores)


@dataclass(frozen=True)
class CoreHotplug:
    """Previously-lost physical cores came back."""

    cores: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_cores(self.cores)


@dataclass(frozen=True)
class TopologyEdit:
    """The mapper's machine view is replaced with ``machine``.

    Replacing the base machine also clears the dead-set: the new tree's
    physical ids need not correspond to the old one's.
    """

    machine: Machine


RemapEvent = Union[PhaseChange, CoreLoss, CoreHotplug, TopologyEdit]

_KINDS = {
    PhaseChange: "phase_change",
    CoreLoss: "core_loss",
    CoreHotplug: "core_hotplug",
    TopologyEdit: "topology_edit",
}


def _check_cores(cores: tuple[int, ...]) -> None:
    if not cores:
        raise RemapError("core event needs at least one core")
    if any(isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in cores):
        raise RemapError(f"core ids must be non-negative integers, got {cores}")
    if len(set(cores)) != len(cores):
        raise RemapError(f"duplicate core ids in {cores}")


def event_kind(event: RemapEvent) -> str:
    """The wire ``kind`` string of an event."""
    try:
        return _KINDS[type(event)]
    except KeyError:
        raise RemapError(f"not a remap event: {event!r}") from None


def event_to_dict(event: RemapEvent) -> dict:
    """Canonical wire form (JSON-serializable except TopologyEdit's tree,
    which is rendered as the machine name — the service wire carries the
    topology spec string instead, see ``parse_remap_request``)."""
    kind = event_kind(event)
    if isinstance(event, PhaseChange):
        out: dict = {"kind": kind, "knobs": dict(event.knobs)}
        if event.nest is not None:
            out["nest"] = event.nest
        return out
    if isinstance(event, (CoreLoss, CoreHotplug)):
        return {"kind": kind, "cores": list(event.cores)}
    return {"kind": kind, "machine": event.machine.name}


def parse_event(raw: dict) -> RemapEvent:
    """Decode a wire event dict (the CLI's ``--event`` JSON).

    ``topology_edit`` events name the new machine by the same fields as
    a service request (``machine`` or ``topology``, and ``scale``), read
    by :func:`~repro.topology.resolve.machine_fields`.
    """
    if not isinstance(raw, dict):
        raise RemapError(f"event must be an object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind == "phase_change":
        knobs = raw.get("knobs")
        if not isinstance(knobs, dict):
            raise RemapError("phase_change event needs a 'knobs' object")
        nest = raw.get("nest")
        if nest is not None and not isinstance(nest, str):
            raise RemapError("'nest' must be a string")
        return PhaseChange(tuple(sorted(knobs.items())), nest=nest)
    if kind in ("core_loss", "core_hotplug"):
        cores = raw.get("cores")
        if not isinstance(cores, list):
            raise RemapError(f"{kind} event needs a 'cores' list")
        cls = CoreLoss if kind == "core_loss" else CoreHotplug
        return cls(tuple(cores))
    if kind == "topology_edit":
        try:
            return TopologyEdit(machine_from_fields(raw))
        except UnknownMachineError:
            raise
        except TopologyError as error:
            raise RemapError(f"topology_edit: {error}") from None
    raise RemapError(f"unknown event kind {kind!r}")

