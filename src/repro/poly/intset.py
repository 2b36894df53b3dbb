"""Convex sets of integer points (the paper's ``K``, ``D`` sets).

An :class:`IntSet` is an ordered tuple of dimension names plus a conjunction
of affine constraints.  The two fundamental services the mapping algorithms
need are

* **exact enumeration** of the integer points in lexicographic dimension
  order (used to tag iterations, Section 3.3), and
* **bound extraction** per dimension (used by :mod:`repro.poly.codegen` to
  emit loop nests, the Omega ``codegen`` analogue of Section 3.4).

Both are built on Fourier-Motzkin (FM) elimination.  FM over the rationals
is a relaxation, so we organize enumeration so that every *original*
constraint is enforced exactly (with integer ceil/floor) at the level of its
innermost variable; FM-derived constraints only prune the search.  The
result: enumeration is exact, while :meth:`IntSet.project_onto` (pure FM) is
a rational over-approximation, which is documented and sufficient for every
use in this library.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.errors import EmptySetError, PolyhedralError, UnboundedSetError
from repro.poly.affine import AffineExpr
from repro.poly.constraints import Constraint
from repro.util.mathutil import ceil_div, floor_div, sign


@dataclass(frozen=True)
class LevelBounds:
    """Bounds for one dimension given values for all outer dimensions.

    ``lowers`` holds pairs ``(c, e)`` meaning ``x >= ceil(e / c)`` with
    ``c > 0``; ``uppers`` holds pairs ``(c, e)`` meaning ``x <= floor(e / c)``
    with ``c > 0``; ``equalities`` holds pairs ``(c, e)`` meaning
    ``c * x + e == 0``.  Every expression ``e`` refers only to outer
    dimensions.
    """

    dim: str
    lowers: tuple[tuple[int, AffineExpr], ...] = ()
    uppers: tuple[tuple[int, AffineExpr], ...] = ()
    equalities: tuple[tuple[int, AffineExpr], ...] = ()

    def range_for(self, env: Mapping[str, int]) -> tuple[int, int] | None:
        """Inclusive integer range of the dimension under ``env``.

        Returns ``None`` when an equality is unsatisfiable (non-integral) at
        this point.  Raises :class:`UnboundedSetError` when a side has no
        bound and no equality pins the value.
        """
        lo: int | None = None
        hi: int | None = None
        for c, e in self.equalities:
            rest = e.evaluate(env)
            if rest % c != 0:
                return None
            value = -rest // c
            lo = value if lo is None else max(lo, value)
            hi = value if hi is None else min(hi, value)
        for c, e in self.lowers:
            bound = ceil_div(e.evaluate(env), c)
            lo = bound if lo is None else max(lo, bound)
        for c, e in self.uppers:
            bound = floor_div(e.evaluate(env), c)
            hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise UnboundedSetError(
                f"dimension {self.dim!r} is unbounded "
                f"({'below' if lo is None else 'above'})"
            )
        return (lo, hi)


class IntSet:
    """A convex set of integer points over named dimensions."""

    __slots__ = ("dims", "constraints", "_levels", "_empty_cache", "_bbox")

    def __init__(self, dims: Sequence[str], constraints: Iterable[Constraint] = ()):
        dims = tuple(dims)
        if len(set(dims)) != len(dims):
            raise PolyhedralError(f"duplicate dimension names in {dims}")
        kept: list[Constraint] = []
        seen: set[Constraint] = set()
        for con in constraints:
            extra = con.variables() - set(dims)
            if extra:
                raise PolyhedralError(
                    f"constraint {con} uses variables {sorted(extra)} outside dims {dims}"
                )
            if con.is_tautology() or con in seen:
                continue
            seen.add(con)
            kept.append(con)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "constraints", tuple(kept))
        object.__setattr__(self, "_levels", None)
        object.__setattr__(self, "_empty_cache", None)
        object.__setattr__(self, "_bbox", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntSet is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def universe(dims: Sequence[str]) -> IntSet:
        return IntSet(dims)

    @staticmethod
    def empty(dims: Sequence[str]) -> IntSet:
        return IntSet(dims, [Constraint(AffineExpr.const(-1), Constraint.GE)])

    @staticmethod
    def box(dims: Sequence[str], ranges: Sequence[tuple[int, int]]) -> IntSet:
        """Axis-aligned box: ``ranges[k][0] <= dims[k] <= ranges[k][1]``."""
        if len(dims) != len(ranges):
            raise PolyhedralError("box: one (lo, hi) pair per dimension required")
        cons = []
        for name, (lo, hi) in zip(dims, ranges):
            cons.append(Constraint.ge(AffineExpr.var(name), lo))
            cons.append(Constraint.le(AffineExpr.var(name), hi))
        return IntSet(dims, cons)

    # -- algebra ----------------------------------------------------------------

    def with_constraints(self, extra: Iterable[Constraint]) -> IntSet:
        """This set intersected with additional constraints."""
        return IntSet(self.dims, list(self.constraints) + list(extra))

    def intersect(self, other: IntSet) -> IntSet:
        if self.dims != other.dims:
            raise PolyhedralError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return self.with_constraints(other.constraints)

    def fix(self, name: str, value: int) -> IntSet:
        """Restrict a dimension to a single value (the dimension remains)."""
        if name not in self.dims:
            raise PolyhedralError(f"unknown dimension {name!r}")
        return self.with_constraints([Constraint.eq(AffineExpr.var(name), value)])

    def rename_dims(self, mapping: Mapping[str, str]) -> IntSet:
        new_dims = tuple(mapping.get(d, d) for d in self.dims)
        return IntSet(new_dims, [c.rename(mapping) for c in self.constraints])

    def eliminate(self, name: str) -> IntSet:
        """Fourier-Motzkin elimination of one dimension.

        The result is the rational shadow: every integer point of ``self``
        maps into it, but it may contain integer points with no integer
        pre-image (documented over-approximation).
        """
        if name not in self.dims:
            raise PolyhedralError(f"unknown dimension {name!r}")
        remaining, eliminated = _fm_eliminate(self.constraints, name)
        new_cons = remaining + eliminated
        return IntSet(tuple(d for d in self.dims if d != name), new_cons)

    def project_onto(self, keep: Sequence[str]) -> IntSet:
        """Eliminate every dimension not in ``keep`` (rational shadow)."""
        keep_set = set(keep)
        missing = keep_set - set(self.dims)
        if missing:
            raise PolyhedralError(f"unknown dimensions {sorted(missing)}")
        result = self
        for name in self.dims:
            if name not in keep_set:
                result = result.eliminate(name)
        # Reorder dims to the requested order.
        return IntSet(tuple(keep), result.constraints)

    # -- membership / enumeration ------------------------------------------------

    def contains(self, point: Sequence[int] | Mapping[str, int]) -> bool:
        env = self._env_of(point)
        return all(c.satisfied_by(env) for c in self.constraints)

    def _env_of(self, point: Sequence[int] | Mapping[str, int]) -> dict[str, int]:
        if isinstance(point, Mapping):
            return dict(point)
        if len(point) != len(self.dims):
            raise PolyhedralError(
                f"point has {len(point)} coordinates, set has {len(self.dims)} dims"
            )
        return dict(zip(self.dims, point))

    def level_bounds(self) -> tuple[LevelBounds, ...]:
        """Per-dimension bounds for lexicographic enumeration / codegen.

        Level ``k`` gives bounds for ``dims[k]`` as expressions in
        ``dims[:k]``.  Every original constraint is represented exactly at
        the level of its innermost dimension; FM-derived constraints are
        added at outer levels to prune infeasible prefixes early.
        """
        if self._levels is not None:
            return self._levels
        pool: list[Constraint] = [c for c in self.constraints if not c.is_tautology()]
        levels: list[LevelBounds] = []
        for k in range(len(self.dims) - 1, -1, -1):
            name = self.dims[k]
            inner = set(self.dims[k + 1 :])
            here = [c for c in pool if name in c.variables() and not (c.variables() & inner)]
            here_set = set(here)
            pool = [c for c in pool if c not in here_set]
            lowers: list[tuple[int, AffineExpr]] = []
            uppers: list[tuple[int, AffineExpr]] = []
            equalities: list[tuple[int, AffineExpr]] = []
            for con in here:
                c = con.coeff(name)
                rest = con.expr - AffineExpr({name: c})
                if con.kind == Constraint.EQ:
                    equalities.append((c, rest) if c > 0 else (-c, -rest))
                elif c > 0:
                    lowers.append((c, -rest))
                else:
                    uppers.append((-c, rest))
            levels.append(LevelBounds(name, tuple(lowers), tuple(uppers), tuple(equalities)))
            # FM-eliminate this dim from `here` to prune outer levels.
            _, derived = _fm_eliminate(here, name)
            for con in derived:
                if con.is_contradiction():
                    pool.append(con)
                elif not con.is_tautology() and con not in pool:
                    pool.append(con)
        # Constraints left in the pool involve no dims at all; constants.
        for con in pool:
            if con.variables():
                raise PolyhedralError(f"internal: leftover constraint {con}")
            if con.is_contradiction():
                # Encode emptiness as an impossible bound at the outermost level.
                outer = levels[-1]
                levels[-1] = LevelBounds(
                    outer.dim,
                    outer.lowers + ((1, AffineExpr.const(1)),),
                    outer.uppers + ((1, AffineExpr.const(0)),),
                    outer.equalities,
                )
        result = tuple(reversed(levels))
        object.__setattr__(self, "_levels", result)
        return result

    def box_ranges(self) -> list[tuple[int, int]] | None:
        """Per-dimension ``(lo, hi)`` when the set is a constant box.

        Returns ``None`` when some level bound mentions an outer dimension
        (or the set has no dimensions).  Levels are read outermost first
        and the scan stops at the first empty one, exactly as the
        :meth:`points` sweep does: an empty set comes back as all-empty
        ranges ``(0, -1)`` whatever its inner levels say, and the scan
        raises :class:`UnboundedSetError` only where the sweep would.
        """
        if not self.dims:
            return None
        ranges: list[tuple[int, int]] = []
        for level in self.level_bounds():
            bounds = level.lowers + level.uppers + level.equalities
            if any(expr.variables() for _, expr in bounds):
                return None
            rng = level.range_for({})
            if rng is None or rng[0] > rng[1]:
                return [(0, -1)] * len(self.dims)
            ranges.append(rng)
        return ranges

    def points(self) -> Iterator[tuple[int, ...]]:
        """Enumerate integer points in lexicographic order of ``dims``.

        The iterator raises :class:`UnboundedSetError` (on first use) if
        the set is unbounded in any dimension reachable during the sweep.
        """
        if not self.dims:
            satisfied = all(c.satisfied_by({}) for c in self.constraints)
            return iter([()] if satisfied else [])
        try:
            box = self.box_ranges()
        except UnboundedSetError:
            box = None  # the sweep raises it again, lazily
        if box is not None:
            return itertools.product(*(range(lo, hi + 1) for lo, hi in box))
        # ``zip`` makes 1-tuples and ``prefix.__add__`` extends them, so each
        # innermost range is emitted at C speed.
        return itertools.chain.from_iterable(
            map(prefix.__add__, zip(range(lo, hi + 1)))
            for prefix, lo, hi in self.rows()
        )

    def rows(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """``(prefix, lo, hi)`` per non-empty innermost range, in lex order.

        Sweeps the outer ``d - 1`` levels only; the innermost level is
        evaluated once per prefix, never walked point by point.
        """
        levels = self.level_bounds()
        last = len(levels) - 1
        env: dict[str, int] = {}

        def rec(k: int, prefix: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int, int]]:
            rng = levels[k].range_for(env)
            if rng is None:
                return
            lo, hi = rng
            if k == last:
                if lo <= hi:
                    yield prefix, lo, hi
                return
            name = levels[k].dim
            for value in range(lo, hi + 1):
                env[name] = value
                yield from rec(k + 1, prefix + (value,))
            env.pop(name, None)

        return rec(0, ())

    def first_point(self) -> tuple[int, ...]:
        """Lexicographically smallest point; raises if the set is empty."""
        for point in self.points():
            return point
        raise EmptySetError(f"set over {self.dims} has no integer points")

    def is_empty(self) -> bool:
        """Exact integer emptiness (requires the set to be bounded)."""
        if self._empty_cache is None:
            try:
                self.first_point()
                result = False
            except EmptySetError:
                result = True
            object.__setattr__(self, "_empty_cache", result)
        return self._empty_cache

    def count(self) -> int:
        """Number of integer points, without enumerating them.

        A box multiplies its extents; any other set sweeps its outer levels
        and adds the length of each innermost range.  Requires boundedness.
        """
        box = self.box_ranges()
        if box is not None:
            return math.prod(hi - lo + 1 for lo, hi in box)
        if not self.dims:
            return len(list(self.points()))
        return sum(hi - lo + 1 for _, lo, hi in self.rows())

    def bounding_box(self) -> list[tuple[int, int]]:
        """Per-dimension (lo, hi) ranges from the rational shadow.

        Sound over-approximation: every integer point of the set lies in
        the box.  Raises :class:`UnboundedSetError` for unbounded dims and
        :class:`EmptySetError` when a projection is empty.  Computed once
        per set.
        """
        if self._bbox is None:
            box: list[tuple[int, int]] = []
            for name in self.dims:
                projection = self.project_onto([name])
                levels = projection.level_bounds()
                rng = levels[0].range_for({})
                if rng is None or rng[0] > rng[1]:
                    raise EmptySetError(f"dimension {name!r} has an empty range")
                box.append(rng)
            object.__setattr__(self, "_bbox", tuple(box))
        return list(self._bbox)

    def is_bounded(self) -> bool:
        """True if lexicographic enumeration never hits an unbounded level."""
        try:
            self.count()
            return True
        except UnboundedSetError:
            return False

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSet):
            return NotImplemented
        return self.dims == other.dims and set(self.constraints) == set(other.constraints)

    def __hash__(self) -> int:
        return hash((self.dims, frozenset(self.constraints)))

    def __repr__(self) -> str:
        cons = " and ".join(str(c) for c in self.constraints) or "true"
        return f"IntSet({{({', '.join(self.dims)}) | {cons}}})"


def _fm_eliminate(
    constraints: Iterable[Constraint], name: str
) -> tuple[list[Constraint], list[Constraint]]:
    """One FM elimination step.

    Returns ``(untouched, derived)``: constraints not mentioning ``name``
    and the new constraints implied by eliminating ``name``.
    """
    untouched: list[Constraint] = []
    lowers: list[Constraint] = []   # c > 0
    uppers: list[Constraint] = []   # c < 0
    equalities: list[Constraint] = []
    for con in constraints:
        c = con.coeff(name)
        if c == 0:
            untouched.append(con)
        elif con.kind == Constraint.EQ:
            equalities.append(con)
        elif c > 0:
            lowers.append(con)
        else:
            uppers.append(con)

    derived: list[Constraint] = []
    if equalities:
        eq = equalities[0]
        c = eq.coeff(name)
        cc, sgn = abs(c), sign(c)
        rest_all = lowers + uppers + equalities[1:]
        for con in rest_all:
            k = con.coeff(name)
            new_expr = con.expr * cc - eq.expr * (sgn * k)
            derived.append(Constraint(new_expr, con.kind))
        return untouched, [d for d in derived if not d.is_tautology()]

    for low in lowers:
        c1 = low.coeff(name)
        for up in uppers:
            c2 = -up.coeff(name)
            # c1*x + r1 >= 0 and -c2*x + r2 >= 0  =>  c2*r1 + c1*r2 >= 0
            r1 = low.expr - AffineExpr({name: c1})
            r2 = up.expr + AffineExpr({name: c2})
            derived.append(Constraint(r1 * c2 + r2 * c1, Constraint.GE))
    return untouched, [d for d in derived if not d.is_tautology()]
