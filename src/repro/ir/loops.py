"""Loop nests and whole programs in the middle-end IR.

A :class:`LoopNest` is the unit the paper's pass operates on: an iteration
space ``K`` (a bounded :class:`~repro.poly.intset.IntSet` whose dims are
the loop variables, outermost first) plus the accesses (affine or
indirect) each iteration performs.  Strided source loops are normalized
to unit stride by the frontend before reaching this IR.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from repro.errors import IRError
from repro.ir.accesses import Access, IndirectAccess, IndirectExpr
from repro.ir.arrays import Array
from repro.poly.intset import IntSet


class LoopNest:
    """One parallel candidate loop nest."""

    __slots__ = ("name", "dims", "space", "accesses", "parallel")

    def __init__(
        self,
        name: str,
        space: IntSet,
        accesses: Sequence[Access],
        parallel: bool = True,
    ):
        accesses = tuple(accesses)
        for access in accesses:
            if access.loop_dims != space.dims:
                raise IRError(
                    f"access {access!r} is over dims {access.loop_dims}, "
                    f"nest {name!r} has dims {space.dims}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dims", space.dims)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "accesses", accesses)
        object.__setattr__(self, "parallel", parallel)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LoopNest is immutable")

    @property
    def depth(self) -> int:
        return len(self.dims)

    def iterations(self) -> Iterator[tuple[int, ...]]:
        """Iterations of ``K`` in original (lexicographic) execution order."""
        return self.space.points()

    def iteration_count(self) -> int:
        return self.space.count()

    def arrays(self) -> tuple[Array, ...]:
        """Distinct arrays referenced by this nest, in first-use order.

        Index arrays read through indirect subscripts count as referenced
        even when no standalone access names them.
        """
        seen: dict[str, Array] = {}
        for access in self.accesses:
            seen.setdefault(access.array.name, access.array)
            if isinstance(access, IndirectAccess):
                for index_array in access.index_arrays():
                    seen.setdefault(index_array.name, index_array)
        return tuple(seen.values())

    def is_affine(self) -> bool:
        """True when every access has an affine closed form.

        The polyhedral passes (dependence polyhedra, permutation, tiling)
        need that form; offset evaluation does not.
        """
        return all(a.is_affine for a in self.accesses)

    def offset_evaluators(self):
        """``(array name, iteration -> flat element offset, is_write)`` per access.

        The one scalar way to evaluate a reference, affine or indirect:
        each closure is specialized to the access's nonzero coefficients
        (:meth:`~repro.ir.accesses.Access.offset_terms`) plus its
        index-array gathers.  Unchecked — validate with
        :meth:`validate_access_bounds` first.
        """
        return [
            (access.array.name, _offset_function(*access.offset_terms()), access.is_write)
            for access in self.accesses
        ]

    def reads(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if not a.is_write)

    def writes(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.is_write)

    def validate_access_bounds(self) -> None:
        """Prove every reference stays inside its array, or raise.

        Uses the iteration space's (sound, over-approximating) bounding
        box, so a pass here guarantees the unchecked offset evaluators
        (:meth:`offset_evaluators`,
        :func:`repro.kernels.offsets.offset_columns`) never alias or wrap
        a negative index; a raise may be spurious for non-rectangular
        spaces but is never unsafely silent.
        """
        box = self.space.bounding_box()

        def affine_span(subscript) -> tuple[int, int]:
            lo = hi = subscript.constant
            for k, dim in enumerate(self.dims):
                coeff = subscript.coeff(dim)
                lo += min(coeff * box[k][0], coeff * box[k][1])
                hi += max(coeff * box[k][0], coeff * box[k][1])
            return lo, hi

        for access in self.accesses:
            for dim_index, subscript in enumerate(access.subscripts):
                extent = access.array.extents[dim_index]
                if isinstance(subscript, IndirectExpr):
                    index_array = subscript.array
                    for inner_dim, inner in enumerate(subscript.subscripts):
                        lo, hi = affine_span(inner)
                        inner_extent = index_array.extents[inner_dim]
                        if lo < 0 or hi >= inner_extent:
                            raise IRError(
                                f"nest {self.name!r}: index reference {subscript} "
                                f"dimension {inner_dim} spans [{lo}, {hi}] outside "
                                f"[0, {inner_extent - 1}]"
                            )
                    # Any stored index value may be selected, so all of
                    # them must land inside the target dimension (sound;
                    # at worst conservative for unreachable entries).
                    lo, hi = min(index_array.data), max(index_array.data)
                    if lo < 0 or hi >= extent:
                        raise IRError(
                            f"nest {self.name!r}: index array {index_array.name!r} "
                            f"holds values spanning [{lo}, {hi}], outside "
                            f"[0, {extent - 1}] of {access.array.name!r} "
                            f"dimension {dim_index}"
                        )
                    continue
                lo, hi = affine_span(subscript)
                if lo < 0 or hi >= extent:
                    raise IRError(
                        f"nest {self.name!r}: reference {access!r} dimension "
                        f"{dim_index} spans [{lo}, {hi}] outside [0, {extent - 1}]"
                    )

    def touched_elements(self, iteration: tuple[int, ...]) -> list[tuple[str, tuple[int, ...], bool]]:
        """(array name, element index, is_write) for each access at ``iteration``."""
        return [(a.array.name, a.element(iteration), a.is_write) for a in self.accesses]

    def __repr__(self) -> str:
        return (
            f"LoopNest({self.name!r}, dims={self.dims}, "
            f"{len(self.accesses)} accesses, parallel={self.parallel})"
        )


def _affine_function(constant: int, coeffs: Sequence[int]):
    """``point -> constant + coeffs . point``, with zero coefficients
    dropped and up to three terms unrolled."""
    terms = [(k, c) for k, c in enumerate(coeffs) if c]
    if not terms:
        return lambda p: constant
    if len(terms) == 1:
        ((i, a),) = terms
        return lambda p: constant + a * p[i]
    if len(terms) == 2:
        (i, a), (j, b) = terms
        return lambda p: constant + a * p[i] + b * p[j]
    if len(terms) == 3:
        (i, a), (j, b), (k, c) = terms
        return lambda p: constant + a * p[i] + b * p[j] + c * p[k]

    def offset(p):
        total = constant
        for k, c in terms:
            total += c * p[k]
        return total

    return offset


def _offset_function(constant: int, coeffs: Sequence[int], gathers) -> Callable:
    """The scalar evaluator of one access's offset terms."""
    affine = _affine_function(constant, coeffs)
    if not gathers:
        return affine
    lookups = [
        (stride, data, _affine_function(inner, factors))
        for stride, data, inner, factors in gathers
    ]
    if len(lookups) == 1:
        ((stride, data, index),) = lookups
        return lambda p: affine(p) + stride * data[index(p)]

    def offset(p):
        total = affine(p)
        for stride, data, index in lookups:
            total += stride * data[index(p)]
        return total

    return offset


class Program:
    """A compiled program: declared arrays plus its loop nests."""

    __slots__ = ("name", "arrays", "nests", "params")

    def __init__(
        self,
        name: str,
        arrays: Sequence[Array],
        nests: Sequence[LoopNest],
        params: dict[str, int] | None = None,
    ):
        array_map: dict[str, Array] = {}
        for array in arrays:
            if array.name in array_map:
                raise IRError(f"duplicate array {array.name!r}")
            array_map[array.name] = array
        for nest in nests:
            for access in nest.accesses:
                referenced = [access.array]
                if isinstance(access, IndirectAccess):
                    referenced.extend(access.index_arrays())
                for array in referenced:
                    declared = array_map.get(array.name)
                    if declared is None:
                        raise IRError(
                            f"nest {nest.name!r} references undeclared array {array.name!r}"
                        )
                    if declared != array:
                        raise IRError(
                            f"nest {nest.name!r} disagrees with declaration of {array.name!r}"
                        )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arrays", dict(array_map))
        object.__setattr__(self, "nests", tuple(nests))
        object.__setattr__(self, "params", dict(params or {}))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Program is immutable")

    def total_data_bytes(self) -> int:
        """Size of all declared data (the paper's 'total data manipulated')."""
        return sum(a.size_bytes for a in self.arrays.values())

    def nest(self, name: str) -> LoopNest:
        for nest in self.nests:
            if nest.name == name:
                return nest
        raise IRError(f"no nest named {name!r}")

    def __repr__(self) -> str:
        return f"Program({self.name!r}, {len(self.arrays)} arrays, {len(self.nests)} nests)"
