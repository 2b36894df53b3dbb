"""Iteration runs: ordered point sequences as ``(start, length)`` pairs.

A plan gives each core its iterations in an exact order.  Written point
by point that is one tuple per iteration; the paper instead hands each
core generated loop code (Omega ``codegen``).  Runs sit in between.
Every point of a nest's bounding box has a row-major linear index, and a
maximal stretch of consecutive indices ``start, start + 1, ...,
start + length - 1`` in a point sequence is one run.  Tagging and
scheduling keep groups contiguous, so a round of tens of thousands of
points is usually a few runs.

A :class:`RunCodec` linearizes one box:

* :meth:`RunCodec.encode` turns points, in any order, into maximal runs
  in the same order, and :meth:`RunCodec.points` turns runs back into
  points (:meth:`RunCodec.expand` and :meth:`RunCodec.columns` give the
  indices and coordinates as arrays);
* :meth:`RunCodec.space_runs` gives an iteration space's own runs (its
  innermost rows, merged);
* :meth:`RunCodec.merge` checks that runs are well formed and disjoint,
  and :meth:`RunCodec.check_cover` that they hold every point of a space
  exactly once.  Both sort a copy of the runs; no point is enumerated.

Operations that read point streams (:func:`runs_of`,
:meth:`RunCodec.linearize`, :meth:`RunCodec.encode_enumerated`) have a
NumPy path and a pure-Python path with identical results;
:func:`repro.kernels.have_numpy` picks one at call time.
:meth:`RunCodec.expand` and :meth:`RunCodec.columns` serve the NumPy
trace builders only.  Everything else works on run tuples in Python.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import chain

from repro.errors import EmptySetError
from repro import kernels
from repro.poly.intset import IntSet

#: One run: the linear indices ``start .. start + length - 1``.
Run = tuple[int, int]


def runs_of(indices: Iterable[int]) -> tuple[Run, ...]:
    """Maximal runs of consecutive increasing indices, in sequence order."""
    if kernels.have_numpy():
        import numpy as np

        idx = np.asarray(indices, dtype=np.int64)
        if not len(idx):
            return ()
        heads = np.concatenate(([0], np.flatnonzero(np.diff(idx) != 1) + 1))
        lengths = np.diff(np.append(heads, len(idx)))
        return tuple(zip(idx[heads].tolist(), lengths.tolist()))
    runs: list[Run] = []
    start = prev = None
    for index in indices:
        if prev is not None and index == prev + 1:
            prev = index
            continue
        if prev is not None:
            runs.append((start, prev - start + 1))
        start = prev = index
    if prev is not None:
        runs.append((start, prev - start + 1))
    return tuple(runs)


def join_runs(*sequences: Sequence[Run]) -> tuple[Run, ...]:
    """The runs of the concatenated sequences, merged where one ends
    exactly where the next begins (so the result stays maximal)."""
    joined: list[Run] = []
    for start, length in chain.from_iterable(sequences):
        if joined and sum(joined[-1]) == start:
            joined[-1] = (joined[-1][0], joined[-1][1] + length)
        else:
            joined.append((start, length))
    return tuple(joined)


def split_runs(runs: Sequence[Run], sizes: Sequence[int]) -> list[tuple[Run, ...]]:
    """Cut a run sequence into consecutive pieces of ``sizes`` points."""
    pieces: list[tuple[Run, ...]] = []
    queue = list(reversed(runs))
    for size in sizes:
        piece: list[Run] = []
        while size > 0:
            start, length = queue.pop()
            take = min(size, length)
            piece.append((start, take))
            if take < length:
                queue.append((start + take, length - take))
            size -= take
        pieces.append(tuple(piece))
    return pieces


def run_points(runs: Iterable[Run]) -> int:
    """Number of points the runs stand for."""
    return sum(length for _, length in runs)


class RunCodec:
    """Row-major linearization of one box ``[(lo, hi), ...]``."""

    __slots__ = ("box", "lows", "highs", "extents", "strides", "size")

    def __init__(self, box: Sequence[tuple[int, int]]):
        self.box = tuple((lo, hi) for lo, hi in box)
        self.lows = tuple(lo for lo, _ in self.box)
        self.highs = tuple(hi for _, hi in self.box)
        self.extents = tuple(max(0, hi - lo + 1) for lo, hi in self.box)
        self.strides = tuple(
            math.prod(self.extents[k + 1 :]) for k in range(len(self.box))
        )
        self.size = math.prod(self.extents)

    @classmethod
    def of(cls, space: IntSet) -> "RunCodec":
        """The codec of ``space``'s bounding box (an empty box when the
        space is empty)."""
        try:
            box = space.bounding_box()
        except EmptySetError:
            box = [(0, -1)] * len(space.dims)
        return cls(box)

    def __repr__(self) -> str:
        return f"RunCodec({list(self.box)})"

    # -- points -> runs -------------------------------------------------------

    def linearize(self, points: Iterable[tuple[int, ...]]) -> tuple[Sequence[int], int]:
        """Linear indices of the points inside the box, in order, and the
        number of points outside it.

        Raises :class:`ValueError` unless every point is a ``tuple`` of
        ``len(box)`` coordinates whose type is exactly ``int`` (a ``bool``
        or a float equal to an int would otherwise pass as that int).
        """
        if not isinstance(points, (list, tuple)):
            points = list(points)
        depth = len(self.box)
        if set(map(type, points)) - {tuple}:
            raise ValueError("points must be tuples")
        if set(map(len, points)) - {depth}:
            raise ValueError(f"points must have {depth} coordinates")
        coords = list(chain.from_iterable(points))
        kinds = set(map(type, coords)) - {int}
        if kinds:
            names = sorted(kind.__name__ for kind in kinds)
            raise ValueError(f"coordinates must be int, got {names}")
        if kernels.have_numpy():
            import numpy as np

            try:
                grid = np.array(coords, dtype=np.int64).reshape(len(points), depth)
            except OverflowError:  # beyond int64: outside any box we build
                return self._linearize_python(points)
            return self._index_grid(grid)
        return self._linearize_python(points)

    def _linearize_python(self, points) -> tuple[list[int], int]:
        bounds = tuple(zip(self.lows, self.highs, self.strides))
        indices: list[int] = []
        outside = 0
        for point in points:
            index = 0
            for x, (lo, hi, stride) in zip(point, bounds):
                if not lo <= x <= hi:
                    outside += 1
                    break
                index += (x - lo) * stride
            else:
                indices.append(index)
        return indices, outside

    def _index_grid(self, grid):
        """``(indices, outside)`` of an ``(n, depth)`` int64 point array."""
        import numpy as np

        outside = 0
        # Column extremes first (one column at a time: reductions across
        # a short axis are slow); the per-point mask is only built when
        # some point actually lies outside.
        columns = [grid[:, k] for k in range(len(self.box))]
        if len(grid) and any(
            column.min() < lo or column.max() > hi
            for column, lo, hi in zip(columns, self.lows, self.highs)
        ):
            inside = np.ones(len(grid), dtype=bool)
            for column, lo, hi in zip(columns, self.lows, self.highs):
                inside &= (column >= lo) & (column <= hi)
            outside = len(grid) - int(np.count_nonzero(inside))
            columns = [column[inside] for column in columns]
        index = np.zeros(len(grid) - outside, dtype=np.int64)
        for column, lo, stride in zip(columns, self.lows, self.strides):
            index += (column - lo) * stride
        return index, outside

    def encode(self, points: Iterable[tuple[int, ...]]) -> tuple[Run, ...]:
        """Maximal runs of ``points``, in order.  Raises
        :class:`ValueError` on a malformed point or one outside the box."""
        indices, outside = self.linearize(points)
        if outside:
            raise ValueError(f"{outside} point(s) lie outside the box {list(self.box)}")
        return runs_of(indices)

    def encode_enumerated(self, points: Iterable[tuple[int, ...]], count: int) -> tuple[Run, ...]:
        """:meth:`encode` for ``count`` points that come from an
        enumeration of the space (tuples of ints of the right arity, such
        as :meth:`IntSet.points` yields): the types are trusted and the
        coordinates are read at C speed; the box bounds are still checked."""
        if not kernels.have_numpy():
            return self.encode(points)
        import numpy as np

        depth = len(self.box)
        grid = np.fromiter(
            chain.from_iterable(points), dtype=np.int64, count=count * depth
        ).reshape(count, depth)
        indices, outside = self._index_grid(grid)
        if outside:
            raise ValueError(f"{outside} point(s) lie outside the box {list(self.box)}")
        return runs_of(indices)

    # -- runs -> points -------------------------------------------------------

    def expand(self, runs: Sequence[Run]):
        """Linear indices of ``runs`` as one int64 array: one ``repeat``
        plus one ``arange`` (NumPy only)."""
        import numpy as np

        if not runs:
            return np.empty(0, dtype=np.int64)
        pairs = np.fromiter(
            chain.from_iterable(runs), dtype=np.int64, count=2 * len(runs)
        ).reshape(-1, 2)
        lengths = pairs[:, 1]
        ends = np.cumsum(lengths)
        return np.repeat(pairs[:, 0] - (ends - lengths), lengths) + np.arange(
            ends[-1], dtype=np.int64
        )

    def columns(self, indices) -> list:
        """One int64 coordinate array per dimension for an index array
        (NumPy only)."""
        return [
            (indices // stride) % extent + lo
            for lo, extent, stride in zip(self.lows, self.extents, self.strides)
        ]

    def points(self, runs: Sequence[Run]) -> tuple[tuple[int, ...], ...]:
        """The points of ``runs``, in order, one innermost row at a time."""
        if not self.box:
            return ((),) * run_points(runs)
        inner = self.extents[-1]
        inner_lo = self.lows[-1]
        outer = tuple(zip(self.lows[:-1], self.extents[:-1], self.strides[:-1]))
        points: list[tuple[int, ...]] = []
        for start, length in runs:
            index, end = start, start + length
            while index < end:
                column = index % inner
                stop = min(end, index - column + inner)
                prefix = tuple(
                    (index // stride) % extent + lo for lo, extent, stride in outer
                )
                first = inner_lo + column
                points.extend(map(prefix.__add__, zip(range(first, first + stop - index))))
                index = stop
        return tuple(points)

    def point(self, index: int) -> tuple[int, ...]:
        """The point at one linear index."""
        return self.points(((index, 1),))[0]

    # -- spaces and cover -----------------------------------------------------

    def space_runs(self, space: IntSet) -> tuple[Run, ...]:
        """The points of ``space`` (inside this box) in lexicographic
        order, as maximal runs, read off its innermost rows."""
        if not self.box:
            return ((0, 1),) if space.count() else ()
        if self.size and space.box_ranges() == list(self.box):
            return ((0, self.size),)
        inner_lo = self.lows[-1]
        outer = tuple(zip(self.lows, self.strides))
        return join_runs(
            (
                sum((x - low) * stride for x, (low, stride) in zip(prefix, outer))
                + lo - inner_lo,
                hi - lo + 1,
            )
            for prefix, lo, hi in space.rows()
        )

    def check_cover(
        self,
        space: IntSet,
        runs: Sequence[Run],
        error: type[Exception],
        twice: str,
        mismatch: str,
        outside: int = 0,
    ) -> None:
        """Raise ``error`` unless ``runs`` hold each point of ``space``
        exactly once.

        ``outside`` counts points that never became runs because they lie
        outside the box; they are extra.  ``twice`` formats a repeated
        point, ``mismatch`` the counts ``seen``, ``space``, ``missing``
        and ``extra``.  The runs are first checked by :meth:`merge`.
        """
        merged = self.merge(runs, error, twice)
        expected = self.space_runs(space)
        if not outside and merged == expected:
            return
        seen = run_points(merged) + outside
        common = _overlap(merged, expected)
        total = run_points(expected)
        raise error(
            mismatch.format(
                seen=seen, space=total, missing=total - common, extra=seen - common
            )
        )

    def merge(
        self, runs: Sequence[Run], error: type[Exception], twice: str
    ) -> tuple[Run, ...]:
        """Sorted, merged copy of ``runs``.  Raises ``error`` on a run that
        is not a pair of ints with ``length >= 1`` inside ``[0, size)``, and
        on a point held twice (``twice`` formats it)."""
        if set(map(type, runs)) - {tuple, list} or set(map(len, runs)) - {2}:
            raise error("plan runs must be (start, length) pairs")
        kinds = set(map(type, chain.from_iterable(runs))) - {int}
        if kinds:
            names = sorted(kind.__name__ for kind in kinds)
            raise error(f"run values must be int, got {names}")
        if any(length < 1 for _, length in runs):
            raise error("run lengths must be at least 1")
        if any(start < 0 or start + length > self.size for start, length in runs):
            raise error(f"a run lies outside [0, {self.size})")
        # Sorted by start, the runs are disjoint exactly when each starts
        # at or after the end of the one before it.
        ordered = sorted(map(tuple, runs))
        for (start, length), (nxt, _) in zip(ordered, ordered[1:]):
            if nxt < start + length:
                raise error(twice.format(self.point(nxt)))
        return join_runs(ordered)


def _overlap(left: Sequence[Run], right: Sequence[Run]) -> int:
    """Points two sorted, disjoint run sequences have in common."""
    common = i = j = 0
    while i < len(left) and j < len(right):
        lo = max(left[i][0], right[j][0])
        hi = min(sum(left[i]), sum(right[j]))
        common += max(0, hi - lo)
        if sum(left[i]) < sum(right[j]):
            i += 1
        else:
            j += 1
    return common
