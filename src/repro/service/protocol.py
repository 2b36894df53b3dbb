"""Request/response schema and content keys for the mapping service.

A mapping request carries three things: *what to map* (``lang`` source
text or a serialized program — the :mod:`repro.runtime.serialize` wire
format), *where to run it* (a named machine from
:mod:`repro.topology.machines` or an inline topology spec string for
:mod:`repro.topology.parser`), and *how* (the mapper knobs of
Section 4.1).  :func:`parse_request` validates a decoded JSON body into
a :class:`MappingRequest`, whose :attr:`MappingRequest.cache_key` is the
canonical ``(nest digest, topology digest, knob tuple)`` triple that
keys both cache tiers.

Errors are :class:`ServiceError` subclasses carrying the HTTP status the
server should answer with, so the transport layer never needs to guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.experiments.cache import machine_digest
from repro.ir.loops import LoopNest, Program
from repro.lang import compile_source
from repro.pipeline.knobs import Knobs
from repro.runtime.serialize import program_digest, program_from_dict
from repro.topology.tree import Machine

__all__ = [
    "KNOB_DEFAULTS",
    "BadRequest",
    "Knobs",
    "MappingRequest",
    "Overloaded",
    "RemapRequest",
    "ServiceError",
    "Unavailable",
    "parse_remap_request",
    "parse_request",
]

#: Knob names accepted in a request's ``knobs`` object, with defaults.
#: ``block_size=None`` means the Section 4.1 heuristic.  Values mirror
#: :class:`repro.pipeline.knobs.Knobs` — the canonical knob dataclass
#: every cache key in the repo derives from — but the wire surface stays
#: the historical seven (``max_groups`` is not a request knob; clients
#: get the default).
KNOB_DEFAULTS: dict[str, Any] = {
    "block_size": None,
    "balance_threshold": 0.10,
    "alpha": 0.5,
    "beta": 0.5,
    "local_scheduling": True,
    "dependence_policy": "barrier",
    "cluster_strategy": "greedy",
}


class ServiceError(ReproError):
    """Base class for service-level failures; carries an HTTP status."""

    status = 500

    def __init__(self, message: str, retry_after: int | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class BadRequest(ServiceError):
    """The request body is malformed or references unknown entities."""

    status = 400


class Overloaded(ServiceError):
    """The admission queue is full; retry after ``retry_after`` seconds."""

    status = 429

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message, retry_after=max(1, int(retry_after)))


class Unavailable(ServiceError):
    """The service is draining or a request timed out internally."""

    status = 503


@dataclass
class MappingRequest:
    """One validated mapping request, ready for the engine."""

    program: Program
    nest: LoopNest
    machine: Machine
    knobs: Knobs
    deadline_ms: float | None = None
    no_cache: bool = False
    debug_sleep_ms: float = 0.0
    program_key: str = field(default="", repr=False)
    topology_key: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        if not self.program_key:
            self.program_key = program_digest(self.program)
        if not self.topology_key:
            self.topology_key = machine_digest(self.machine)

    @property
    def nest_key(self) -> str:
        """Digest of (program, nest): the "nest digest" of the cache key."""
        return f"{self.program_key[:24]}:{self.nest.name}"

    @property
    def cache_key(self) -> tuple:
        """(nest digest, topology digest, knob tuple)."""
        return (self.nest_key, self.topology_key, self.knobs.as_tuple())


def _require(payload: dict, kind: type, key: str, default: Any = None) -> Any:
    value = payload.get(key, default)
    if value is None:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise BadRequest(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_knobs(payload: dict) -> Knobs:
    raw = payload.get("knobs", {})
    if not isinstance(raw, dict):
        raise BadRequest("'knobs' must be an object")
    unknown = set(raw) - set(KNOB_DEFAULTS)
    if unknown:
        raise BadRequest(
            f"unknown knobs {sorted(unknown)}; known: {sorted(KNOB_DEFAULTS)}"
        )
    values = dict(KNOB_DEFAULTS)
    values.update(raw)
    try:
        return Knobs(
            block_size=(
                None if values["block_size"] is None else int(values["block_size"])
            ),
            balance_threshold=float(values["balance_threshold"]),
            alpha=float(values["alpha"]),
            beta=float(values["beta"]),
            local_scheduling=bool(values["local_scheduling"]),
            dependence_policy=str(values["dependence_policy"]),
            cluster_strategy=str(values["cluster_strategy"]),
        )
    except ReproError as error:
        # Knobs.__post_init__ rejects bad policies/strategies/sizes with
        # the same messages the service historically produced.
        raise BadRequest(str(error)) from None
    except (TypeError, ValueError) as error:
        raise BadRequest(f"malformed knobs: {error}") from None


def _parse_program(payload: dict) -> Program:
    source = payload.get("source")
    serialized = payload.get("program")
    if (source is None) == (serialized is None):
        raise BadRequest("provide exactly one of 'source' or 'program'")
    if source is not None:
        if not isinstance(source, str):
            raise BadRequest("'source' must be a string of lang text")
        try:
            return compile_source(source, name=str(payload.get("name", "request")))
        except ReproError as error:
            raise BadRequest(f"source does not compile: {error}") from None
    if not isinstance(serialized, dict):
        raise BadRequest("'program' must be a serialized program object")
    try:
        return program_from_dict(serialized)
    except ReproError as error:
        raise BadRequest(f"malformed serialized program: {error}") from None


def _parse_machine(payload: dict) -> Machine:
    name = payload.get("machine")
    spec = payload.get("topology")
    if (name is None) == (spec is None):
        raise BadRequest("provide exactly one of 'machine' or 'topology'")
    try:
        if name is not None:
            if not isinstance(name, str):
                raise BadRequest("'machine' must be a machine name")
            from repro.topology.resolve import resolve_machine

            machine = resolve_machine(name)
        else:
            if not isinstance(spec, str):
                raise BadRequest("'topology' must be a topology spec string")
            from repro.topology.parser import parse_topology

            machine = parse_topology(spec)
    except ServiceError:
        raise
    except ReproError as error:
        raise BadRequest(str(error)) from None
    scale = _require(payload, float, "scale", 1.0)
    if scale <= 0:
        raise BadRequest(f"scale must be positive, got {scale}")
    if scale != 1.0:
        machine = machine.with_scaled_caches(1.0 / scale)
    return machine


def _select_nest(program: Program, payload: dict) -> LoopNest:
    selector = payload.get("nest", 0)
    if isinstance(selector, bool) or not isinstance(selector, (int, str)):
        raise BadRequest("'nest' must be an index or a nest name")
    if isinstance(selector, str):
        try:
            return program.nest(selector)
        except ReproError as error:
            raise BadRequest(str(error)) from None
    if not 0 <= selector < len(program.nests):
        raise BadRequest(
            f"nest index {selector} out of range; program has "
            f"{len(program.nests)} nest(s)"
        )
    return program.nests[selector]


def parse_request(
    payload: Any,
    default_deadline_ms: float | None = None,
    allow_debug: bool = False,
) -> MappingRequest:
    """Validate a decoded JSON body into a :class:`MappingRequest`.

    ``default_deadline_ms`` applies when the request names no deadline;
    ``allow_debug`` gates the test-only ``debug_sleep_ms`` field (ignored
    unless the server was started with debugging on).
    """
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    program = _parse_program(payload)
    machine = _parse_machine(payload)
    nest = _select_nest(program, payload)
    knobs = _parse_knobs(payload)
    deadline_ms = _require(payload, float, "deadline_ms", default_deadline_ms)
    if deadline_ms is not None and deadline_ms < 0:
        raise BadRequest(f"deadline_ms must be >= 0, got {deadline_ms}")
    no_cache = payload.get("no_cache", False)
    if not isinstance(no_cache, bool):
        raise BadRequest("'no_cache' must be a boolean")
    debug_sleep_ms = _require(payload, float, "debug_sleep_ms", 0.0) or 0.0
    if debug_sleep_ms and not allow_debug:
        raise BadRequest("debug_sleep_ms requires a server started with --debug")
    return MappingRequest(
        program=program,
        nest=nest,
        machine=machine,
        knobs=knobs,
        deadline_ms=deadline_ms,
        no_cache=no_cache,
        debug_sleep_ms=debug_sleep_ms,
    )


# -- /remap ----------------------------------------------------------------

#: Knobs a phase-change event may adjust: the wire surface plus the
#: tagging guard (phase shifts legitimately coarsen/refine grouping).
_EVENT_KNOBS = set(KNOB_DEFAULTS) | {"max_groups"}

_INT_EVENT_KNOBS = frozenset({"block_size", "max_groups"})
_FLOAT_EVENT_KNOBS = frozenset({"balance_threshold", "alpha", "beta"})
_BOOL_EVENT_KNOBS = frozenset({"local_scheduling"})


@dataclass
class RemapRequest:
    """One validated remap request: pre-event and post-event states.

    ``pre`` is the state the caller was running under (base machine
    minus ``dead_cores``, the request knobs); ``post`` is the state the
    event transitions to.  The engine carries the machine-independent
    stage prefix from pre-keys to post-keys and maps ``post`` — the
    response's plan is always a plan *of the post state*.
    """

    pre: MappingRequest
    post: MappingRequest
    event: dict  # canonical echo, JSON-serializable


def _parse_core_list(raw: Any, field_name: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or any(
        isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in raw
    ):
        raise BadRequest(f"{field_name!r} must be a list of non-negative core ids")
    if len(set(raw)) != len(raw):
        raise BadRequest(f"duplicate core ids in {field_name!r}")
    return tuple(sorted(raw))


def _coerce_event_knob(name: str, value: Any):
    try:
        if name in _INT_EVENT_KNOBS:
            return None if value is None else int(value)
        if name in _FLOAT_EVENT_KNOBS:
            return float(value)
        if name in _BOOL_EVENT_KNOBS:
            if not isinstance(value, bool):
                raise BadRequest(f"knob {name!r} must be a boolean")
            return value
        return str(value)
    except (TypeError, ValueError) as error:
        raise BadRequest(f"malformed knob {name!r}: {error}") from None


def _prune(machine: Machine, dead: tuple[int, ...], what: str) -> Machine:
    try:
        return machine.without_cores(dead)
    except ReproError as error:
        raise BadRequest(f"{what}: {error}") from None


def parse_remap_request(
    payload: Any,
    default_deadline_ms: float | None = None,
    allow_debug: bool = False,
) -> RemapRequest:
    """Validate a ``/remap`` body into a :class:`RemapRequest`.

    The body is a regular ``/map`` body — describing the *base* machine
    and the knobs the caller was mapped with — plus:

    * ``dead_cores`` (optional): physical core ids already offline
      before this event (the caller's accumulated dead-set);
    * ``event`` (required): ``{"kind": "phase_change", "knobs": {...}}``,
      ``{"kind": "core_loss"|"core_hotplug", "cores": [...]}``, or
      ``{"kind": "topology_edit", "topology": spec | "machine": name
      [, "scale": s]}``.

    Core ids are always physical ids of the *base* machine.
    """
    base = parse_request(payload, default_deadline_ms, allow_debug)
    raw_event = payload.get("event")
    if not isinstance(raw_event, dict):
        raise BadRequest("'event' must be an object")
    dead = _parse_core_list(payload.get("dead_cores", []), "dead_cores")
    base_cores = set(base.machine.core_ids())
    if set(dead) - base_cores:
        raise BadRequest(
            f"dead_cores {sorted(set(dead) - base_cores)} not in the base machine"
        )
    pre_machine = _prune(base.machine, dead, "dead_cores")

    from repro.remap.events import (
        CoreHotplug,
        CoreLoss,
        PhaseChange,
        TopologyEdit,
        event_to_dict,
        parse_event,
    )

    try:
        event = parse_event(raw_event)
    except ReproError as error:
        raise BadRequest(str(error)) from None

    post_knobs = base.knobs
    if isinstance(event, PhaseChange):
        unknown = sorted(set(event.knob_changes) - _EVENT_KNOBS)
        if unknown:
            raise BadRequest(
                f"unknown event knobs {unknown}; known: {sorted(_EVENT_KNOBS)}"
            )
        changes = {
            name: _coerce_event_knob(name, value)
            for name, value in event.knob_changes.items()
        }
        try:
            post_knobs = base.knobs.replace(**changes)
        except ReproError as error:
            raise BadRequest(str(error)) from None
        post_machine = pre_machine
        echo: dict = {"kind": "phase_change", "knobs": changes}
    elif isinstance(event, CoreLoss):
        overlap = sorted(set(event.cores) & set(dead))
        if overlap:
            raise BadRequest(f"core_loss for already-dead cores {overlap}")
        if set(event.cores) - base_cores:
            raise BadRequest(
                f"core_loss for unknown cores "
                f"{sorted(set(event.cores) - base_cores)}"
            )
        post_machine = _prune(base.machine, tuple(sorted(set(dead) | set(event.cores))), "core_loss")
        echo = event_to_dict(event)
    elif isinstance(event, CoreHotplug):
        missing = sorted(set(event.cores) - set(dead))
        if missing:
            raise BadRequest(f"core_hotplug for cores not in dead_cores: {missing}")
        post_machine = _prune(base.machine, tuple(sorted(set(dead) - set(event.cores))), "core_hotplug")
        echo = event_to_dict(event)
    elif isinstance(event, TopologyEdit):
        post_machine = event.machine
        echo = event_to_dict(event)
    else:  # pragma: no cover - parse_event is exhaustive
        raise BadRequest(f"unknown event kind {raw_event.get('kind')!r}")

    pre = MappingRequest(
        program=base.program,
        nest=base.nest,
        machine=pre_machine,
        knobs=base.knobs,
        program_key=base.program_key,
    )
    post = MappingRequest(
        program=base.program,
        nest=base.nest,
        machine=post_machine,
        knobs=post_knobs,
        deadline_ms=base.deadline_ms,
        no_cache=base.no_cache,
        debug_sleep_ms=base.debug_sleep_ms,
        program_key=base.program_key,
    )
    return RemapRequest(pre=pre, post=post, event=echo)
