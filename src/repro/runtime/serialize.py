"""JSON (de)serialization of plans, programs and results.

A compiled mapping is an artifact worth persisting: build farms map once
and run many times; experiment pipelines archive what they executed.
``plan_to_json``/``plan_from_json`` round-trip an
:class:`~repro.mapping.distribute.ExecutablePlan` given the program it
belongs to (the ``(start, length)`` iteration runs are data; the nest
and machine are reconstructed from their own sources and validated
against the recorded box and fingerprints).  ``result_to_dict`` flattens a
:class:`~repro.sim.stats.SimResult` for logging.

``program_to_dict``/``program_from_dict`` round-trip a whole
:class:`~repro.ir.loops.Program` — arrays, params, and each nest's
iteration space and affine accesses.  This is the wire format of the
mapping service (:mod:`repro.service`): clients that already lowered
their source (or never had :mod:`repro.lang` text to begin with) submit
the IR itself, and :func:`program_digest` gives both sides a canonical
content key for caching.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import IRError, MappingError, SimulationError
from repro.ir.accesses import ArrayAccess, IndirectAccess, IndirectExpr
from repro.ir.arrays import Array
from repro.ir.loops import LoopNest, Program
from repro.mapping.distribute import ExecutablePlan
from repro.poly.affine import AffineExpr
from repro.poly.constraints import Constraint
from repro.poly.intset import IntSet
from repro.poly.runs import RunCodec
from repro.sim.stats import SimResult
from repro.topology.tree import Machine

FORMAT_VERSION = 2

#: Format tag for serialized programs (independent of the plan format).
PROGRAM_FORMAT_VERSION = 1


def _tree_shape(node) -> str:
    if node.kind == "core":
        return "c"
    return "(" + ",".join(_tree_shape(child) for child in node.children) + ")"


def _machine_fingerprint(machine: Machine) -> dict:
    # Pruned/asymmetric trees (e.g. ``Machine.without_cores``) have no
    # per-level degree vector; a bracketed shape signature keeps the
    # fingerprint discriminating without changing the uniform format.
    degrees: object
    if machine.is_level_uniform():
        degrees = list(machine.clustering_degrees())
    else:
        degrees = _tree_shape(machine.root)
    return {
        "name": machine.name,
        "cores": machine.num_cores,
        "levels": list(machine.cache_levels()),
        "degrees": degrees,
        "total_cache_bytes": machine.total_cache_bytes(),
    }


#: Format tag for serialized machines (``repro topo ingest --json``).
MACHINE_FORMAT_VERSION = 1


def machine_to_dict(machine: Machine) -> dict:
    """The full machine tree as a plain JSON-serializable dict.

    Unlike :func:`_machine_fingerprint` (a summary for validation) this
    is lossless: :func:`machine_from_dict` rebuilds an equal tree, so an
    ingested topology can be archived next to the plans mapped on it.
    """

    def node(n) -> dict:
        if n.kind == "core":
            return {"kind": "core", "core_id": n.core_id}
        out: dict = {"kind": n.kind}
        if n.kind == "cache":
            out["spec"] = {
                "level": n.spec.level,
                "size_bytes": n.spec.size_bytes,
                "associativity": n.spec.associativity,
                "line_size": n.spec.line_size,
                "latency": n.spec.latency,
            }
        out["children"] = [node(child) for child in n.children]
        return out

    return {
        "format": MACHINE_FORMAT_VERSION,
        "name": machine.name,
        "clock_ghz": machine.clock_ghz,
        "memory_latency": machine.memory_latency,
        "sockets": machine.sockets,
        "root": node(machine.root),
    }


def machine_from_dict(payload: dict) -> Machine:
    """Rebuild a :class:`Machine` serialized by :func:`machine_to_dict`."""
    from repro.topology.cache import CacheSpec
    from repro.topology.tree import TopologyNode

    if not isinstance(payload, dict) or "root" not in payload:
        raise SimulationError("machine payload: missing 'root'")
    version = payload.get("format", MACHINE_FORMAT_VERSION)
    if version != MACHINE_FORMAT_VERSION:
        raise SimulationError(f"machine payload: unsupported format {version!r}")

    def node(raw: dict) -> TopologyNode:
        kind = raw.get("kind")
        if kind == "core":
            return TopologyNode.core(int(raw["core_id"]))
        children = [node(child) for child in raw.get("children", ())]
        if kind == "cache":
            spec = raw.get("spec") or {}
            return TopologyNode.cache(
                CacheSpec(
                    level=str(spec["level"]),
                    size_bytes=int(spec["size_bytes"]),
                    associativity=int(spec["associativity"]),
                    line_size=int(spec["line_size"]),
                    latency=int(spec["latency"]),
                ),
                children,
            )
        if kind == "memory":
            return TopologyNode.memory(children)
        raise SimulationError(f"machine payload: unknown node kind {kind!r}")

    try:
        return Machine(
            name=str(payload.get("name", "machine")),
            clock_ghz=float(payload.get("clock_ghz", 1.0)),
            memory_latency=int(payload.get("memory_latency", 1)),
            root=node(payload["root"]),
            sockets=int(payload.get("sockets", 1)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SimulationError(f"machine payload: {error}") from None


def plan_to_dict(plan: ExecutablePlan) -> dict:
    """The plan as a plain JSON-serializable dict (fingerprints, the
    nest's bounding box, and per core, per round, ``[start, length]``
    runs over the box); :func:`plan_to_json` is its dumped form."""
    return {
        "format": FORMAT_VERSION,
        "label": plan.label,
        "nest": plan.nest.name,
        "dims": list(plan.nest.dims),
        "box": [list(bounds) for bounds in plan.codec.box],
        "machine": _machine_fingerprint(plan.machine),
        "rounds": [
            [[list(run) for run in rnd] for rnd in core_rounds]
            for core_rounds in plan.rounds
        ],
    }


def plan_to_json(plan: ExecutablePlan) -> str:
    """Serialize a plan (see :func:`plan_to_dict`)."""
    return json.dumps(plan_to_dict(plan))


def plan_from_json(
    text: str | bytes, program: Program, machine: Machine
) -> ExecutablePlan:
    """Reconstruct a plan against a program and machine.

    The recorded nest name, bounding box and machine fingerprint must
    match — a plan computed for one topology must not silently execute
    against another.  Any malformed payload raises
    :class:`~repro.errors.SimulationError`.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as error:  # bad JSON, bad UTF-8, too deep
        raise SimulationError(f"malformed plan JSON: {error}") from None
    name = payload.get("nest") if isinstance(payload, dict) else None
    nest = next((n for n in program.nests if n.name == name), None)
    if nest is None:
        raise SimulationError(f"plan names no nest of program {program.name!r}: {name!r}")
    return plan_from_dict(payload, nest, machine)


def plan_from_dict(payload: object, nest: LoopNest, machine: Machine) -> ExecutablePlan:
    """Reconstruct a :func:`plan_to_dict` payload for ``nest`` on
    ``machine``, checking every field and the cover of the iteration
    space; raises :class:`~repro.errors.SimulationError` on any defect."""
    if not isinstance(payload, dict):
        raise SimulationError("plan payload must be a JSON object")
    if payload.get("format") != FORMAT_VERSION:
        raise SimulationError(
            f"unsupported plan format {payload.get('format')!r}"
        )
    for key, kind in (("label", str), ("dims", list), ("box", list),
                      ("machine", dict), ("rounds", list)):
        if not isinstance(payload.get(key), kind):
            raise SimulationError(f"plan payload: {key!r} must be a {kind.__name__}")
    if payload.get("nest") != nest.name:
        raise SimulationError(
            f"plan is for nest {payload.get('nest')!r}, not {nest.name!r}"
        )
    if list(nest.dims) != payload["dims"]:
        raise SimulationError(
            f"nest {nest.name!r} dims {nest.dims} do not match recorded "
            f"{payload['dims']}"
        )
    box = [list(bounds) for bounds in RunCodec.of(nest.space).box]
    if payload["box"] != box:
        raise SimulationError(
            f"nest {nest.name!r} box {box} does not match recorded {payload['box']}"
        )
    recorded = payload["machine"]
    actual = _machine_fingerprint(machine)
    for key in ("cores", "levels", "degrees"):
        if recorded.get(key) != actual[key]:
            raise SimulationError(
                f"machine mismatch on {key}: plan was built for "
                f"{recorded.get(key)}, target has {actual[key]}"
            )
    if len(payload["rounds"]) > machine.num_cores:
        raise SimulationError(
            f"plan has {len(payload['rounds'])} cores, target has {machine.num_cores}"
        )
    rounds = tuple(
        tuple(_decode_round(rnd) for rnd in _list_of(core_rounds, "core"))
        for core_rounds in payload["rounds"]
    )
    plan = ExecutablePlan(machine, nest, rounds, payload["label"])
    try:
        plan.verify_complete()  # run values, bounds and the exact cover
    except MappingError as error:
        raise SimulationError(f"invalid plan: {error}") from None
    return plan


def _list_of(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise SimulationError(f"plan payload: each {what} must be a list")
    return value


def _decode_round(rnd: object) -> tuple[tuple, ...]:
    """One round's ``[start, length]`` runs as tuples (their values are
    checked by the cover check)."""
    runs = _list_of(rnd, "round")
    if not all(isinstance(run, list) and len(run) == 2 for run in runs):
        raise SimulationError("plan payload: runs must be [start, length] pairs")
    return tuple(map(tuple, runs))


def _expr_to_dict(expr: AffineExpr) -> dict:
    return {"coeffs": dict(expr.coeffs), "constant": expr.constant}


def _expr_from_dict(raw: dict) -> AffineExpr:
    coeffs = raw.get("coeffs", {})
    if not isinstance(coeffs, dict):
        raise IRError("affine expression coeffs must be an object")
    return AffineExpr(
        {str(name): int(coeff) for name, coeff in coeffs.items()},
        int(raw.get("constant", 0)),
    )


def _subscript_to_dict(subscript) -> dict:
    # Indirect subscripts get an explicit "kind" tag; affine ones keep
    # the historical untagged form so affine programs serialize (and
    # digest) byte-identically to the pre-indirect format.
    if isinstance(subscript, IndirectExpr):
        return {
            "kind": "indirect",
            "array": subscript.array.name,
            "subscripts": [_expr_to_dict(s) for s in subscript.subscripts],
        }
    return _expr_to_dict(subscript)


def _access_to_dict(access) -> dict:
    out = {
        "array": access.array.name,
        "is_write": access.is_write,
        "subscripts": [_subscript_to_dict(s) for s in access.subscripts],
    }
    if isinstance(access, IndirectAccess):
        out["kind"] = "indirect"
    return out


def _nest_to_dict(nest: LoopNest) -> dict:
    return {
        "name": nest.name,
        "dims": list(nest.dims),
        "parallel": nest.parallel,
        "constraints": [
            {"kind": con.kind, **_expr_to_dict(con.expr)}
            for con in nest.space.constraints
        ],
        "accesses": [_access_to_dict(access) for access in nest.accesses],
    }


def program_to_dict(program: Program) -> dict:
    """The program as a plain JSON-serializable dict (the service wire
    format; see :func:`program_from_dict` for the inverse)."""
    return {
        "format": PROGRAM_FORMAT_VERSION,
        "name": program.name,
        "params": dict(program.params),
        "arrays": [
            {
                "name": array.name,
                "extents": list(array.extents),
                "element_size": array.element_size,
                # Index-array contents are part of the program for
                # indirect accesses; omitted entirely when absent so the
                # affine wire format is unchanged.
                **({"data": list(array.data)} if array.data is not None else {}),
            }
            for array in program.arrays.values()
        ],
        "nests": [_nest_to_dict(nest) for nest in program.nests],
    }


def program_to_json(program: Program) -> str:
    """Serialize a whole program (arrays, params, nests, accesses)."""
    return json.dumps(program_to_dict(program))


def program_from_dict(payload: dict) -> Program:
    """Reconstruct a :class:`~repro.ir.loops.Program` from its dict form.

    Validation is the IR's own: reconstructed accesses and nests go
    through the same constructors as frontend-lowered ones, so a payload
    that decodes successfully is a well-formed program (consistent array
    declarations, in-dims subscripts, and so on).
    """
    if not isinstance(payload, dict):
        raise IRError("serialized program must be a JSON object")
    if payload.get("format") != PROGRAM_FORMAT_VERSION:
        raise IRError(
            f"unsupported program format {payload.get('format')!r}"
        )
    try:
        arrays = {
            raw["name"]: Array(
                str(raw["name"]),
                tuple(int(e) for e in raw["extents"]),
                int(raw.get("element_size", 8)),
                data=(
                    tuple(int(v) for v in raw["data"])
                    if raw.get("data") is not None
                    else None
                ),
            )
            for raw in payload["arrays"]
        }
        nests = []
        for raw_nest in payload["nests"]:
            dims = tuple(str(d) for d in raw_nest["dims"])
            constraints = [
                Constraint(_expr_from_dict(raw), str(raw.get("kind", Constraint.GE)))
                for raw in raw_nest["constraints"]
            ]
            space = IntSet(dims, constraints)
            accesses = []
            for raw_access in raw_nest["accesses"]:
                name = raw_access["array"]
                if name not in arrays:
                    raise IRError(f"access references undeclared array {name!r}")
                subscripts = []
                for raw_sub in raw_access["subscripts"]:
                    if raw_sub.get("kind") == "indirect":
                        index_name = raw_sub["array"]
                        if index_name not in arrays:
                            raise IRError(
                                f"indirect subscript references undeclared "
                                f"array {index_name!r}"
                            )
                        subscripts.append(
                            IndirectExpr(
                                arrays[index_name],
                                [_expr_from_dict(s) for s in raw_sub["subscripts"]],
                            )
                        )
                    else:
                        subscripts.append(_expr_from_dict(raw_sub))
                cls = (
                    IndirectAccess
                    if raw_access.get("kind") == "indirect"
                    else ArrayAccess
                )
                accesses.append(
                    cls(
                        arrays[name],
                        dims,
                        subscripts,
                        is_write=bool(raw_access.get("is_write", False)),
                    )
                )
            nests.append(
                LoopNest(
                    str(raw_nest["name"]),
                    space,
                    accesses,
                    parallel=bool(raw_nest.get("parallel", True)),
                )
            )
        params = {
            str(name): int(value)
            for name, value in payload.get("params", {}).items()
        }
        return Program(str(payload["name"]), list(arrays.values()), nests, params)
    except (KeyError, TypeError, ValueError) as error:
        raise IRError(f"malformed serialized program: {error}") from None


def program_from_json(text: str) -> Program:
    """Inverse of :func:`program_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise IRError(f"malformed program JSON: {error}") from None
    return program_from_dict(payload)


def program_digest(program: Program) -> str:
    """Canonical content digest of a program (sorted-key JSON, SHA-256).

    Two programs digest equal iff their serialized forms are identical;
    the service keys its mapping cache on (this, topology digest, knobs).
    """
    canonical = json.dumps(
        program_to_dict(program), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_to_dict(result: SimResult) -> dict:
    """Flatten a simulation result for logs/JSON."""
    return {
        "label": result.label,
        "machine": result.machine_name,
        "cycles": result.cycles,
        "total_accesses": result.total_accesses,
        "memory_accesses": result.memory_accesses,
        "barriers": result.barriers,
        "levels": {
            stats.level: {"hits": stats.hits, "misses": stats.misses}
            for stats in result.levels
        },
    }
