"""Iteration groups Φ_τ and group sets.

An :class:`IterationGroup` is the set of iterations carrying one tag τ:
all iterations in the group access exactly the data blocks with a 1 in τ.
Beyond the access tag, each group records its *write* tag (blocks some
iteration writes) and *read* tag, which the block-granularity group
dependence graph of Section 3.5.2 is built from.

A :class:`GroupSet` is the full tagging result for one loop nest; it
checks the paper's partition invariants (groups are pairwise disjoint and
collectively cover the iteration space K).
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterator, Sequence

from repro import kernels
from repro.errors import BlockingError
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.tags import render
from repro.ir.loops import LoopNest
from repro.poly.codegen import generate_point_list_enumerator

_SETATTR = object.__setattr__


class IterationGroup:
    """All iterations of a nest sharing one data-block tag."""

    __slots__ = ("tag", "iterations", "write_tag", "read_tag", "ident", "origin")

    # Idents come from an itertools counter, not a hand-incremented class
    # attribute: ``next()`` on it is a single C call, hence atomic under
    # the GIL and safe for future parallel tagging.  Tests (and any other
    # caller needing order-independent idents) rewind it with
    # :meth:`reset_idents`.
    _ident_counter = itertools.count()
    _ident_lock = threading.Lock()
    # Bumped on every reset: caches that hold groups across resets (the
    # pipeline artifact store) key on it so pre-reset entries go stale
    # instead of colliding with freshly numbered groups.
    _ident_epoch = 0

    def __init__(
        self,
        tag: int,
        iterations: Sequence[tuple[int, ...]],
        write_tag: int = 0,
        read_tag: int = 0,
        origin: int | None = None,
    ):
        iterations = tuple(sorted(iterations))
        if not iterations:
            raise BlockingError("iteration group cannot be empty")
        _SETATTR(self, "tag", tag)
        _SETATTR(self, "iterations", iterations)
        _SETATTR(self, "write_tag", write_tag)
        _SETATTR(self, "read_tag", read_tag)
        ident = next(IterationGroup._ident_counter)
        _SETATTR(self, "ident", ident)
        # Lineage for load-balancing splits: parts keep their source
        # group's ident here, so the scheduler can translate dependence
        # edges (which reference pre-split idents) onto the parts.
        _SETATTR(self, "origin", ident if origin is None else origin)

    @classmethod
    def reset_idents(cls, start: int = 0) -> None:
        """Rewind the ident sequence (test isolation / reproducibility).

        Idents are only guaranteed unique among groups created since the
        last reset, so callers must not mix groups from both sides of a
        reset in one mapping pipeline.  The autouse fixture in
        ``tests/conftest.py`` resets before every test, making ident
        assignment independent of test execution order.
        """
        with cls._ident_lock:
            cls._ident_counter = itertools.count(start)
            cls._ident_epoch += 1

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IterationGroup is immutable")

    @property
    def size(self) -> int:
        """S(Φ_τ): the number of iterations in the group."""
        return len(self.iterations)

    def split(self, first_size: int) -> tuple["IterationGroup", "IterationGroup"]:
        """Break the group into two same-tag groups (load balancing step).

        The first part receives the ``first_size`` lexicographically
        smallest iterations.
        """
        if not 0 < first_size < self.size:
            raise BlockingError(
                f"cannot split group of {self.size} iterations at {first_size}"
            )
        return (
            IterationGroup(self.tag, self.iterations[:first_size], self.write_tag, self.read_tag, origin=self.origin),
            IterationGroup(self.tag, self.iterations[first_size:], self.write_tag, self.read_tag, origin=self.origin),
        )

    def enumerator_source(
        self, func_name: str = "enumerate_points", mode: str = "auto"
    ) -> str:
        """Generated code that enumerates this group's iterations.

        Tag-defined groups are irregular (non-convex) in general.  Two
        artifacts are possible: an explicit point table (``"points"``),
        or — when the group decomposes into few integer boxes, which the
        row-major-contiguous groups tagging produces usually do — a union
        of loop nests (``"boxes"``), the exact analogue of what Omega's
        ``codegen`` emits for a union of convex sets.  ``"auto"`` picks
        boxes when the cover is at least 4x smaller than the point count.
        Note box mode enumerates box by box (each box in lexicographic
        order); the point table preserves global lexicographic order.
        """
        from repro.poly.codegen import generate_loop_nest
        from repro.poly.decompose import boxes_from_points, union_from_points

        if mode not in ("auto", "points", "boxes"):
            raise BlockingError(f"unknown enumerator mode {mode!r}")
        if mode in ("auto", "boxes"):
            boxes = boxes_from_points(self.iterations)
            if mode == "boxes" or len(boxes) * 4 <= len(self.iterations):
                dims = tuple(f"i{k}" for k in range(len(self.iterations[0])))
                union = union_from_points(dims, self.iterations)
                return generate_loop_nest(union, func_name)
        return generate_point_list_enumerator(self.iterations, func_name)

    def __repr__(self) -> str:
        return f"IterationGroup(tag={bin(self.tag)}, size={self.size})"


def check_exact_cover(
    nest: LoopNest, points: list, error: type[Exception], twice: str, mismatch: str
) -> str:
    """Raise ``error`` unless ``points`` hold each iteration of K exactly once.

    ``twice`` formats the repeated point, ``mismatch`` the counts ``seen``,
    ``space``, ``missing`` and ``extra``.  A box K with NumPy present first
    takes the vectorized check, which can only accept.  Returns the path
    that decided: ``"numpy"`` or ``"set"``.
    """
    box = nest.space.box_ranges()
    if box is not None and kernels.have_numpy():
        from repro.kernels.cover import box_cover_exact

        if box_cover_exact(box, points):
            return "numpy"
    seen: set[tuple[int, ...]] = set()
    for point in points:
        if point in seen:
            raise error(twice.format(point))
        seen.add(point)
    space = set(nest.iterations())
    if seen != space:
        missing, extra = len(space - seen), len(seen - space)
        raise error(mismatch.format(seen=len(seen), space=len(space), missing=missing, extra=extra))
    return "set"


class GroupSet:
    """The tagging result for one nest: groups plus provenance."""

    __slots__ = ("nest", "partition", "groups")

    def __init__(
        self,
        nest: LoopNest,
        partition: DataBlockPartition,
        groups: Sequence[IterationGroup],
    ):
        object.__setattr__(self, "nest", nest)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "groups", tuple(groups))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GroupSet is immutable")

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[IterationGroup]:
        return iter(self.groups)

    def total_iterations(self) -> int:
        return sum(g.size for g in self.groups)

    def verify_partition(self) -> None:
        """Check the Section 3.3 invariants; raise on violation.

        * groups are pairwise disjoint (distinct tags guarantee this, but
          we check the iterations directly);
        * the union of the groups is exactly the nest's iteration space.
        """
        check_exact_cover(
            self.nest, [p for g in self.groups for p in g.iterations], BlockingError,
            "iteration {} appears in two groups",
            "groups do not partition K: {missing} missing, {extra} extra",
        )
        tags = [g.tag for g in self.groups]
        if len(set(tags)) != len(tags):
            # Same-tag groups only arise from load-balancing splits, which
            # happen after tagging; a fresh GroupSet must have unique tags.
            raise BlockingError("duplicate tags in freshly tagged GroupSet")

    def describe(self, max_rows: int = 16) -> str:
        """Paper-style table of groups and their tags (cf. Figure 10(a))."""
        n = self.partition.num_blocks
        lines = [f"{len(self.groups)} iteration groups over {n} data blocks"]
        for group in self.groups[:max_rows]:
            lines.append(f"  tau={render(group.tag, n)}  size={group.size}")
        if len(self.groups) > max_rows:
            lines.append(f"  ... {len(self.groups) - max_rows} more")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"GroupSet({len(self.groups)} groups, nest={self.nest.name!r})"
