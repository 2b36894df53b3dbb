"""Memory layout and address-trace construction for executable plans.

A :class:`MemoryLayout` assigns each array a line-aligned base address.
:func:`build_traces` turns an :class:`~repro.mapping.distribute.ExecutablePlan`
into per-core, per-round flat lists of cache-line numbers: each round's
runs are expanded to iterations, and each iteration accesses the nest's
references in program order, one access per reference to the line
holding the referenced element.  :func:`line_stream` is the per-point
code, shared with the self-scheduling simulator; it evaluates affine and
indirect references alike through
:meth:`~repro.ir.loops.LoopNest.offset_evaluators`.
:func:`repro.kernels.cachesim.build_traces_numpy` is the vectorized twin.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

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


def line_stream(nest: LoopNest, layout: MemoryLayout, line_shift: int):
    """``points -> line numbers of every access``, point-major and
    access-minor, through the nest's scalar offset evaluators (built once
    here).  Validate bounds before calling — the evaluators are unchecked."""
    element_sizes = {array.name: array.element_size for array in nest.arrays()}
    refs = [
        (layout.bases[name], element_sizes[name], offset)
        for name, offset, _ in nest.offset_evaluators()
    ]

    def lines_of(points: Iterable[tuple[int, ...]]) -> list[int]:
        lines: list[int] = []
        append = lines.append
        for point in points:
            for base, elem, offset in refs:
                append((base + offset(point) * elem) >> line_shift)
        return lines

    return lines_of


def build_traces(
    plan: ExecutablePlan, layout: MemoryLayout, line_shift: int
) -> list[list[list[int]]]:
    """``traces[core][round]`` = flat list of line numbers in issue order."""
    nest = plan.nest
    nest.validate_access_bounds()
    lines_of = line_stream(nest, layout, line_shift)
    return [[lines_of(plan.codec.points(rnd)) for rnd in rounds] for rounds in plan.rounds]
