"""Memory layout and address-trace construction for executable plans.

A :class:`MemoryLayout` assigns each array a line-aligned base address.
:func:`build_traces` turns an :class:`~repro.mapping.distribute.ExecutablePlan`
into per-core, per-round flat lists of cache-line numbers: each round's
runs are expanded to iterations, and each iteration accesses the nest's
references in program order, one access per reference to the line
holding the referenced element.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import SimulationError
from repro.ir.arrays import Array
from repro.ir.loops import LoopNest
from repro.mapping.distribute import ExecutablePlan
from repro.util.mathutil import ceil_div


class MemoryLayout:
    """Line-aligned, densely packed base addresses for a set of arrays."""

    __slots__ = ("bases", "line_size", "total_bytes")

    def __init__(self, arrays: Sequence[Array], line_size: int, start: int = 0):
        if line_size <= 0 or line_size & (line_size - 1):
            raise SimulationError("line size must be a positive power of two")
        self.line_size = line_size
        self.bases: dict[str, int] = {}
        cursor = ceil_div(start, line_size) * line_size
        for array in arrays:
            if array.name in self.bases:
                raise SimulationError(f"duplicate array {array.name!r} in layout")
            self.bases[array.name] = cursor
            cursor += ceil_div(array.size_bytes, line_size) * line_size
        self.total_bytes = cursor

    @staticmethod
    def for_nest(nest: LoopNest, line_size: int) -> "MemoryLayout":
        return MemoryLayout(nest.arrays(), line_size)

    def address_of(self, array: Array, element_offset: int) -> int:
        return self.bases[array.name] + element_offset * array.element_size


def record_access_offsets(nest: LoopNest):
    """Deterministic per-iteration access trace of a nest.

    Yields ``(iteration, offsets)`` in execution order, where
    ``offsets[r]`` is the flat element offset touched by the nest's
    ``r``-th access.  This is the recorded execution the trace-based
    tagging fallback instruments: it is a pure function of the nest (and
    its index-array data), so replaying it is bit-reproducible.
    Validate bounds before calling — the evaluators are unchecked.
    """
    evaluators = [offset for _, offset, _ in nest.offset_evaluators()]
    for point in nest.iterations():
        yield point, tuple(offset(point) for offset in evaluators)


def build_traces(
    plan: ExecutablePlan, layout: MemoryLayout, line_shift: int
) -> list[list[list[int]]]:
    """``traces[core][round]`` = flat list of line numbers in issue order."""
    nest = plan.nest
    nest.validate_access_bounds()
    if not nest.is_affine():
        return _build_traces_concrete(plan, layout, line_shift)
    # Pre-resolve each access to a byte-address linear form so the hot
    # loop is pure integer arithmetic.
    resolved = []
    for access in nest.accesses:
        constant, coeffs = access.offset_form()
        elem = access.array.element_size
        base = layout.bases[access.array.name] + constant * elem
        resolved.append((base, tuple(c * elem for c in coeffs)))

    traces: list[list[list[int]]] = []
    for core_rounds in plan.rounds:
        core_trace: list[list[int]] = []
        for rnd in core_rounds:
            lines: list[int] = []
            append = lines.append
            for point in plan.codec.points(rnd):
                for base, coeffs in resolved:
                    addr = base
                    for c, x in zip(coeffs, point):
                        addr += c * x
                    append(addr >> line_shift)
            core_trace.append(lines)
        traces.append(core_trace)
    return traces


def _build_traces_concrete(
    plan: ExecutablePlan, layout: MemoryLayout, line_shift: int
) -> list[list[list[int]]]:
    """Trace construction for nests with indirect accesses.

    Same issue order and line numbering as the affine path, but each
    access is evaluated concretely (index-array lookups included) instead
    of through a closed linear form.
    """
    nest = plan.nest
    resolved = []
    for (name, offset_of, _), access in zip(nest.offset_evaluators(), nest.accesses):
        elem = access.array.element_size
        base = layout.bases[name]
        resolved.append((base, elem, offset_of))

    traces: list[list[list[int]]] = []
    for core_rounds in plan.rounds:
        core_trace: list[list[int]] = []
        for rnd in core_rounds:
            lines: list[int] = []
            append = lines.append
            for point in plan.codec.points(rnd):
                for base, elem, offset_of in resolved:
                    append((base + offset_of(point) * elem) >> line_shift)
            core_trace.append(lines)
        traces.append(core_trace)
    return traces
