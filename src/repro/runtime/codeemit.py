"""Per-core code emission (the paper's Omega ``codegen`` output stage).

After distribution and scheduling, the paper generates, for every core,
code that enumerates the iterations of its iteration groups in schedule
order and hands it back to the Phoenix intermediate format.  We emit the
equivalent artifact as Python source: one generator per core that walks
its rounds' ``(start, length)`` runs, turns each linear index back into
an iteration point of the nest's bounding box, and yields explicit
``('barrier', k)`` markers between rounds so a runtime can synchronize.
The source grows with the number of runs, not of iterations.
"""

from __future__ import annotations

from repro.mapping.distribute import ExecutablePlan
from repro.poly.codegen import compile_enumerator

_INDENT = "    "


def _point_source(plan: ExecutablePlan) -> str:
    """Source of the iteration point at linear index ``index``."""
    codec = plan.codec
    coords = []
    for k, (lo, extent, stride) in enumerate(zip(codec.lows, codec.extents, codec.strides)):
        coord = "index" if stride == 1 else f"index // {stride}"
        if k:  # the outermost quotient is already below its extent
            coord += f" % {extent}"
        coords.append(coord if lo == 0 else f"{lo} + {coord}")
    return "(" + ", ".join(coords) + ("," if len(coords) == 1 else "") + ")"


def emit_core_sources(plan: ExecutablePlan) -> list[str]:
    """One generator function source per core (``core_<k>``)."""
    point = _point_source(plan)
    sources = []
    for core, core_rounds in enumerate(plan.rounds):
        lines = [f"def core_{core}():"]
        lines.append(f'{_INDENT}"""Iterations of core {core} ({plan.label}), in schedule order."""')
        body_emitted = False
        for round_index, rnd in enumerate(core_rounds):
            if round_index > 0:
                lines.append(f"{_INDENT}yield ('barrier', {round_index})")
                body_emitted = True
            if rnd:
                lines.append(f"{_INDENT}for start, length in {tuple(rnd)!r}:")
                lines.append(f"{_INDENT * 2}for index in range(start, start + length):")
                lines.append(f"{_INDENT * 3}yield ('iter', {point})")
                body_emitted = True
        if not body_emitted:
            lines.append(f"{_INDENT}return")
            lines.append(f"{_INDENT}yield")
        sources.append("\n".join(lines) + "\n")
    return sources


def emit_plan_module(plan: ExecutablePlan) -> str:
    """A complete module with all cores plus a CORES dispatch table."""
    sources = emit_core_sources(plan)
    header = (
        f'"""Generated by repro.runtime.codeemit for plan {plan.label!r} '
        f'on {plan.machine.name!r}."""\n\n'
    )
    table = (
        "CORES = ["
        + ", ".join(f"core_{k}" for k in range(len(plan.rounds)))
        + "]\n"
    )
    return header + "\n\n".join(sources) + "\n" + table


def compile_core(plan: ExecutablePlan, core: int):
    """Compile and return one core's generated enumerator."""
    source = emit_core_sources(plan)[core]
    return compile_enumerator(source, f"core_{core}")
