"""Vectorized exact-cover check of a box iteration space.

:func:`repro.blocks.groups.check_exact_cover` asks whether a list of
points holds every iteration of ``K`` exactly once.  Its reference is a
Python set comparison against an enumerated ``K``; when ``K`` is a
constant box that question needs no enumeration: every point must lie in
the box, there must be exactly ``|K|`` of them, and their row-major
linear indices must each occur once.

:func:`box_cover_exact` may only *accept*.  ``False`` means "not shown",
and the caller then runs the set check, which owns every error message.

This module imports NumPy at module level; import it only after
:func:`repro.kernels.have_numpy` said yes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np


def box_cover_exact(
    box: Sequence[tuple[int, int]], points: Sequence[tuple[int, ...]]
) -> bool:
    """True when ``points`` hold every point of ``box`` exactly once.

    Only well-formed input is accepted: each point a ``tuple`` of
    ``len(box)`` coordinates whose type is exactly ``int``.  The types
    are checked before any conversion because ``np.array(..., int64)``
    silently turns ``1.5`` into ``1`` and parses ``'1'``, and ``True`` is
    an ``int`` subclass that a set check treats as ``1``.  Coordinates
    outside int64 (``OverflowError``) are not accepted either.
    """
    depth = len(box)
    extents = [hi - lo + 1 for lo, hi in box]
    size = math.prod(extents)
    if len(points) != size:
        return False
    if set(map(type, points)) - {tuple} or set(map(len, points)) - {depth}:
        return False
    coords = list(itertools.chain.from_iterable(points))
    if set(map(type, coords)) - {int}:
        return False
    if not size:
        return True
    try:
        grid = np.array(coords, dtype=np.int64).reshape(size, depth)
        lows = np.array([lo for lo, _ in box], dtype=np.int64)
        highs = np.array([hi for _, hi in box], dtype=np.int64)
    except OverflowError:
        return False
    if not ((grid >= lows).all() and (grid <= highs).all()):
        return False
    # Row-major linear index; in the box, every index lies in [0, size).
    strides = np.array(
        [math.prod(extents[k + 1 :]) for k in range(depth)], dtype=np.int64
    )
    index = (grid - lows) @ strides
    return bool((np.bincount(index, minlength=size) == 1).all())
