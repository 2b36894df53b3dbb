"""One front door for every way to name a machine.

Every ``--machine`` flag in the tree (CLI, service, remapper, experiment
harness) accepts the same spec grammar, resolved here:

* ``harpertown`` — a builtin from :mod:`repro.topology.machines`,
  case-insensitive;
* ``zoo:<name>`` — a fixture-corpus machine (case-insensitive), see
  :mod:`repro.topology.ingest.zoo`;
* ``sysfs:<path>`` — ingest a live ``/sys``, a copied dump directory,
  or a ``.tar``/``.tar.gz`` archive of one;
* ``lscpu:<path>`` — ingest a saved ``lscpu -J`` document.

Unknown names raise :class:`UnknownMachineError` carrying the full menu
(builtins first, then ``zoo:`` entries), which CLIs turn into a usage
error (exit 2) instead of a generic failure.

JSON bodies (a service request, a ``topology_edit`` event, a ``/remap``
answer's post state) name a machine by the fields ``machine`` (a spec
above) or ``topology`` (a spec string for
:func:`~repro.topology.parser.parse_topology`) plus an optional
``scale`` divisor; :func:`machine_fields` checks them and
:func:`machine_from_fields` builds the machine they name.
"""

from __future__ import annotations

from repro.errors import TopologyError, UnknownMachineError
from repro.topology.tree import Machine


def known_machine_names() -> list[str]:
    """Builtin names plus ``zoo:<name>`` entries, in menu order."""
    from repro.topology.ingest.zoo import zoo_names
    from repro.topology.machines import builtin_names

    return list(builtin_names()) + [f"zoo:{name}" for name in zoo_names()]


def resolve_machine(spec: str, smt_policy: str | None = None) -> Machine:
    """Resolve a machine spec string to a :class:`Machine`.

    ``smt_policy`` overrides the sibling-folding policy for the
    ``sysfs:``/``lscpu:`` forms (zoo machines carry their policy in the
    manifest; builtins have no SMT).
    """
    spec = spec.strip()
    if not spec:
        raise UnknownMachineError(spec, known_machine_names())

    scheme, _, rest = spec.partition(":")
    scheme = scheme.lower()
    if scheme == "zoo" and rest:
        from repro.topology.ingest.zoo import zoo_entries, zoo_machine

        if rest.lower() not in {name.lower() for name in zoo_entries()}:
            raise UnknownMachineError(spec, known_machine_names())
        return zoo_machine(rest)
    if scheme in ("sysfs", "lscpu") and rest:
        from repro.topology.ingest import (
            NormalizeOptions,
            ingest_lscpu,
            ingest_sysfs,
        )

        options = NormalizeOptions(smt_policy=smt_policy) if smt_policy else None
        loader = ingest_sysfs if scheme == "sysfs" else ingest_lscpu
        return loader(rest, options)

    from repro.topology.machines import machine_by_name

    try:
        return machine_by_name(spec)
    except UnknownMachineError:
        raise
    except TopologyError:
        raise UnknownMachineError(spec, known_machine_names()) from None


def machine_fields(raw: dict) -> dict:
    """The checked machine fields of a JSON body, in canonical form.

    Exactly one of ``machine`` and ``topology`` must be a string;
    ``scale`` must be a positive number (not a bool) and defaults to 1
    when absent or ``null``.  The result holds the one name field and
    ``scale`` as a float, so a body that carries it names the same
    machine again.
    """
    name, spec = raw.get("machine"), raw.get("topology")
    if (name is None) == (spec is None):
        raise TopologyError("provide exactly one of 'machine' or 'topology'")
    if name is not None and not isinstance(name, str):
        raise TopologyError("'machine' must be a machine name")
    if spec is not None and not isinstance(spec, str):
        raise TopologyError("'topology' must be a topology spec string")
    scale = raw.get("scale")
    if scale is None:
        scale = 1
    if isinstance(scale, bool) or not isinstance(scale, (int, float)) or scale <= 0:
        raise TopologyError(f"scale must be a positive number, got {scale!r}")
    named = {"machine": name} if name is not None else {"topology": spec}
    return {**named, "scale": float(scale)}


def machine_from_fields(raw: dict) -> Machine:
    """The machine the fields of a JSON body name (see :func:`machine_fields`)."""
    fields = machine_fields(raw)
    if "machine" in fields:
        machine = resolve_machine(fields["machine"])
    else:
        from repro.topology.parser import parse_topology

        machine = parse_topology(fields["topology"])
    if fields["scale"] != 1.0:
        machine = machine.with_scaled_caches(1.0 / fields["scale"])
    return machine
