"""Dependence analysis for affine loop nests.

Two layers, as in classical compilers:

* :func:`gcd_filter` — the cheap GCD test.  ``False`` proves independence;
  ``True`` means "may depend".
* the exact polyhedral test — build the dependence polyhedron
  ``{(I, I') | I, I' in K, R1(I) = R2(I'), I lex< I'}`` level by level and
  check integer emptiness (exact, because our enumeration is exact).

:func:`has_loop_carried_dependence` is what the parallelization step uses
to decide whether a nest is fully parallel (Section 3.1: 86% of parallel
loops in the paper's benchmarks are).  :func:`iteration_dependences`
enumerates the actual (source, sink) pairs; the group dependence graph of
Section 3.5.2 is built from it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import DependenceError
from repro.ir.accesses import ArrayAccess
from repro.ir.loops import LoopNest
from repro.poly.constraints import Constraint
from repro.poly.intset import IntSet


@dataclass(frozen=True)
class DependencePair:
    """An ordered dependence: ``sink`` must execute after ``source``."""

    source: tuple[int, ...]
    sink: tuple[int, ...]
    array: str
    kind: str  # 'flow', 'anti', or 'output'

    @property
    def distance(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.source, self.sink))


def gcd_filter(a1: ArrayAccess, a2: ArrayAccess) -> bool:
    """GCD dependence test.

    Returns ``False`` when the Diophantine system ``R1(I) = R2(I')`` has no
    integer solution at all (hence no dependence); ``True`` otherwise.
    Indirect accesses have no Diophantine form, so any same-array pair
    involving one is conservatively "may depend".
    """
    if a1.array != a2.array:
        return False
    if not (a1.is_affine and a2.is_affine):
        return True
    for s1, s2 in zip(a1.subscripts, a2.subscripts):
        coeffs = list(s1.coeffs.values()) + list(s2.coeffs.values())
        if not coeffs:
            if s1.constant != s2.constant:
                return False
            continue
        g = 0
        for c in coeffs:
            g = math.gcd(g, abs(c))
        if (s2.constant - s1.constant) % g != 0:
            return False
    return True


def _primed(name: str) -> str:
    return f"{name}__p"


def dependence_polyhedron(
    nest: LoopNest, a1: ArrayAccess, a2: ArrayAccess, level: int
) -> IntSet:
    """Dependence polyhedron at carrying ``level``.

    Points ``(I, I')`` with both iterations in ``K``, ``R1(I) = R2(I')``,
    equal on the first ``level`` loop dims and ``I[level] < I'[level]``.
    """
    if not (a1.is_affine and a2.is_affine):
        raise DependenceError(
            "dependence polyhedra exist only for affine access pairs; "
            "indirect nests use the concrete enumeration"
        )
    dims = nest.dims
    pdims = tuple(_primed(d) for d in dims)
    rename = dict(zip(dims, pdims))
    cons = list(nest.space.constraints)
    cons += [c.rename(rename) for c in nest.space.constraints]
    for s1, s2 in zip(a1.subscripts, a2.subscripts):
        cons.append(Constraint.eq(s1, s2.rename(rename)))
    for k in range(level):
        cons.append(Constraint.eq(dims[k], _primed(dims[k])))
    cons.append(Constraint.lt(dims[level], _primed(dims[level])))
    return IntSet(dims + pdims, cons)


def _dependence_kind(a1: ArrayAccess, a2: ArrayAccess) -> str | None:
    if a1.is_write and a2.is_write:
        return "output"
    if a1.is_write:
        return "flow"
    if a2.is_write:
        return "anti"
    return None  # read-read: not a dependence


def has_loop_carried_dependence(nest: LoopNest) -> bool:
    """True if some pair of accesses forms a loop-carried dependence."""
    if not nest.is_affine():
        return next(_concrete_dependences(nest, limit=1), None) is not None
    for a1 in nest.accesses:
        for a2 in nest.accesses:
            if _dependence_kind(a1, a2) is None:
                continue
            if not gcd_filter(a1, a2):
                continue
            for level in range(nest.depth):
                if not dependence_polyhedron(nest, a1, a2, level).is_empty():
                    return True
    return False


def iteration_dependences(
    nest: LoopNest, limit: int | None = None
) -> Iterator[DependencePair]:
    """Enumerate loop-carried dependence pairs (source lex< sink).

    Pairs are deduplicated across access pairs and carrying levels; when
    the same iteration pair is both a flow and an anti dependence, the
    first kind encountered wins (the schedulers only need the edge).
    ``limit`` caps the number of yielded pairs.

    Nests with indirect accesses have no dependence polyhedra; they take
    the concrete path: every access is evaluated in execution order and
    the exact per-element chains (write -> reads, read -> next write,
    write -> next write) are emitted.  The chains order every conflicting
    iteration pair transitively, which is all the group dependence graph
    and the schedulers consume.
    """
    if not nest.is_affine():
        yield from _concrete_dependences(nest, limit)
        return
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    yielded = 0
    depth = nest.depth
    for a1 in nest.accesses:
        for a2 in nest.accesses:
            kind = _dependence_kind(a1, a2)
            if kind is None or not gcd_filter(a1, a2):
                continue
            for level in range(depth):
                poly = dependence_polyhedron(nest, a1, a2, level)
                for point in poly.points():
                    source, sink = point[:depth], point[depth:]
                    key = (source, sink)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield DependencePair(source, sink, a1.array.name, kind)
                    yielded += 1
                    if limit is not None and yielded >= limit:
                        return


def _concrete_dependences(
    nest: LoopNest, limit: int | None = None
) -> Iterator[DependencePair]:
    """Exact dependence chains from concrete evaluation.

    Walks the iteration space in execution order, tracking per touched
    element the last write and the reads since it.  Each write emits an
    output edge from the previous write and anti edges from those reads;
    each read emits a flow edge from the last write.  Same-iteration
    conflicts are not loop-carried and are skipped.  Raises
    :class:`IRError` when a reference can leave its array (the
    evaluators are unchecked).
    """
    nest.validate_access_bounds()
    evaluators = nest.offset_evaluators()
    last_write: dict[tuple[str, int], tuple[int, ...]] = {}
    readers: dict[tuple[str, int], list[tuple[int, ...]]] = {}
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    yielded = 0
    for point in nest.iterations():
        for name, offset_of, is_write in evaluators:
            key = (name, offset_of(point))
            if is_write:
                sources: list[tuple[tuple[int, ...], str]] = []
                previous = last_write.get(key)
                if previous is not None and previous != point:
                    sources.append((previous, "output"))
                for reader in readers.get(key, ()):
                    if reader != point:
                        sources.append((reader, "anti"))
                for source, kind in sources:
                    pair_key = (source, point)
                    if pair_key in seen:
                        continue
                    seen.add(pair_key)
                    yield DependencePair(source, point, name, kind)
                    yielded += 1
                    if limit is not None and yielded >= limit:
                        return
                last_write[key] = point
                readers[key] = []
            else:
                previous = last_write.get(key)
                if previous is not None and previous != point:
                    pair_key = (previous, point)
                    if pair_key not in seen:
                        seen.add(pair_key)
                        yield DependencePair(previous, point, name, "flow")
                        yielded += 1
                        if limit is not None and yielded >= limit:
                            return
                bucket = readers.setdefault(key, [])
                if not bucket or bucket[-1] != point:
                    bucket.append(point)
