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

from repro.errors import MappingError, RemapError
from repro.pipeline.knobs import Knobs
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
    (:meth:`~repro.pipeline.knobs.Knobs.decode`); ``nest`` optionally
    restricts the change to one nest — ``None`` means every nest of the
    program.
    """

    knobs: tuple[tuple[str, object], ...]
    nest: str | None = None

    def __post_init__(self) -> None:
        try:
            Knobs().decode(self.knob_changes)
        except MappingError as error:
            raise RemapError(f"phase change: {error}") from None

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
    if any(not isinstance(c, int) or c < 0 for c in cores):
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

    ``topology_edit`` events carry a topology spec string under
    ``"topology"`` (plus an optional ``"scale"`` divisor, matching the
    service's machine parsing) or a builtin machine name under
    ``"machine"``.
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
        machine = _parse_edit_machine(raw)
        return TopologyEdit(machine)
    raise RemapError(f"unknown event kind {kind!r}")


def _parse_edit_machine(raw: dict) -> Machine:
    spec = raw.get("topology")
    name = raw.get("machine")
    if (spec is None) == (name is None):
        raise RemapError("topology_edit needs exactly one of 'topology' or 'machine'")
    if spec is not None:
        if not isinstance(spec, str):
            raise RemapError("'topology' must be a spec string")
        from repro.topology.parser import parse_topology

        machine = parse_topology(spec)
    else:
        if not isinstance(name, str):
            raise RemapError("'machine' must be a name string")
        from repro.topology.resolve import resolve_machine

        machine = resolve_machine(name)
    scale = raw.get("scale")
    if scale is not None:
        if not isinstance(scale, (int, float)) or scale <= 0:
            raise RemapError("'scale' must be a positive number")
        if scale != 1:
            machine = machine.with_scaled_caches(1.0 / float(scale))
    return machine
