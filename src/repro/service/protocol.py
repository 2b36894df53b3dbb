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

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.ir.loops import LoopNest, Program
from repro.lang import compile_source
from repro.pipeline.knobs import Knobs
from repro.runtime.serialize import program_digest, program_from_dict
from repro.topology.resolve import machine_fields, machine_from_fields
from repro.topology.tree import Machine, machine_digest

__all__ = [
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
    """The request's knobs over the :class:`Knobs` defaults."""
    try:
        return Knobs().decode(payload.get("knobs", {}))
    except ReproError as error:
        raise BadRequest(str(error)) from None


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
    try:
        return machine_from_fields(payload)
    except ReproError as error:
        raise BadRequest(str(error)) from None


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


@dataclass
class RemapRequest:
    """One validated remap request: the post-event state to map.

    ``post`` is the request with the machine and knobs the event
    transitions to — the response's plan is always a plan *of the post
    state*; ``pre_machine`` names the machine the caller ran on before;
    ``post_fields`` states the post state in the body's own fields
    (``machine`` or ``topology``, ``scale``, ``dead_cores``, ``knobs``),
    so merged into the next body it is that body's pre state.
    """

    post: MappingRequest
    pre_machine: str
    event: dict  # canonical echo, JSON-serializable
    post_fields: dict


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
    * ``event`` (required): ``{"kind": "phase_change", "knobs": {...}
      [, "nest": name]}``, ``{"kind": "core_loss"|"core_hotplug",
      "cores": [...]}``, or ``{"kind": "topology_edit", "topology": spec
      | "machine": name [, "scale": s]}``.

    Core ids are always physical ids of the *base* machine.  The event
    goes through the remapper's own transition
    (:func:`repro.remap.core.transition`), so both surfaces accept and
    refuse the same events.
    """
    from repro.remap.core import RemapState, transition
    from repro.remap.events import TopologyEdit, event_to_dict, parse_event

    base = parse_request(payload, default_deadline_ms, allow_debug)
    raw_event = payload.get("event")
    if not isinstance(raw_event, dict):
        raise BadRequest("'event' must be an object")
    dead = payload.get("dead_cores", [])
    if not isinstance(dead, list) or any(
        isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in dead
    ) or len(set(dead)) != len(dead):
        raise BadRequest("'dead_cores' must be a list of distinct core ids")
    knobs = {nest.name: base.knobs for nest in base.program.nests}
    pre = RemapState(base.machine, frozenset(dead), knobs)
    try:
        event = parse_event(raw_event)
        post, _affected = transition(pre, event)
        pre_machine, post_machine = pre.machine, post.machine
    except ReproError as error:
        raise BadRequest(str(error)) from None
    post_knobs = post.knobs[base.nest.name]
    named_by = raw_event if isinstance(event, TopologyEdit) else payload
    return RemapRequest(
        post=dataclasses.replace(
            base, machine=post_machine, knobs=post_knobs, topology_key=""
        ),
        pre_machine=pre_machine.name,
        event=event_to_dict(event),
        post_fields={
            **machine_fields(named_by),
            "dead_cores": sorted(post.dead),
            "knobs": post_knobs.encode(),
        },
    )
