"""Iteration tagging driver and block-size selection (Sections 3.3, 4.1).

:func:`tag_iterations` sweeps a nest's iteration space, computes for every
iteration the set of data blocks its references touch, and groups
iterations by tag.  :func:`choose_block_size` implements the paper's
heuristic for picking the block size: the data touched by the most
aggressive iteration group (one whose iterations touch the maximum number
of distinct blocks a single iteration can touch) must fit in L1.

Tagging is the hottest path of the whole pass (O(K * references) work),
so it is backed by the vectorized kernel layer: ``backend="auto"`` (the
default) uses :func:`repro.kernels.tagging.tag_iterations_numpy` when
NumPy is available, running the scalar reference below for
non-rectangular spaces.  The scalar code is the oracle — the
differential tests in ``tests/kernels/`` pin the two backends to
bit-identical :class:`~repro.blocks.groups.GroupSet`\\ s.

Both backends evaluate references through the one offset evaluator of
their kind (:meth:`~repro.ir.loops.LoopNest.offset_evaluators`,
:func:`repro.kernels.offsets.offset_columns`), so affine and indirect
(``A[idx[i]]``) references take the same path.
"""

from __future__ import annotations

from repro import obs
from repro.errors import BlockingError
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import GroupSet, IterationGroup
from repro.ir.accesses import IndirectAccess
from repro.ir.loops import LoopNest, Program
from repro.kernels import resolve_backend


def tag_iterations(
    nest: LoopNest,
    partition: DataBlockPartition,
    max_groups: int | None = None,
    backend: str = "auto",
) -> GroupSet:
    """Partition a nest's iterations into iteration groups by tag.

    For every iteration I the tag gets bit βj set iff some reference
    ``R_r`` of the nest has ``R_r(I)`` in block βj (both reads and
    writes).  Write and read tags are tracked separately for the group
    dependence graph.  ``max_groups`` guards against block sizes so small
    that the group count explodes (the compile-time cliff the paper
    reports when moving from 2KB to 256-byte blocks).  ``backend``
    selects the kernel implementation (see :mod:`repro.kernels`); every
    backend produces the identical ``GroupSet``.
    """
    if not nest.accesses:
        raise BlockingError(f"nest {nest.name!r} has no array accesses to tag")
    nest.validate_access_bounds()
    indirect = sum(isinstance(a, IndirectAccess) for a in nest.accesses)
    with obs.span(
        "tag.iterations",
        nest=nest.name,
        iterations=nest.iteration_count(),
        indirect=indirect,
    ) as sp:
        result = None
        ran = resolve_backend(backend)
        if ran == "numpy":
            from repro.kernels.tagging import tag_iterations_numpy

            result = tag_iterations_numpy(nest, partition, max_groups)
        if result is None:
            ran = "python"
            result = _tag_iterations_scalar(nest, partition, max_groups)
        sp.tag(backend=ran, groups=len(result.groups))
        obs.count(f"kernels.backend.{ran}")
        obs.count("tag.groups_formed", len(result.groups))
        return result


def _tag_iterations_scalar(
    nest: LoopNest,
    partition: DataBlockPartition,
    max_groups: int | None,
) -> GroupSet:
    """The scalar reference implementation (and numpy-backend oracle)."""
    refs = [
        (
            offset,
            partition.blocks_of_array(name).start,
            partition.elements_per_block(name),
            is_write,
        )
        for name, offset, is_write in nest.offset_evaluators()
    ]
    buckets: dict[int, list[tuple[int, ...]]] = {}
    write_tags: dict[int, int] = {}
    read_tags: dict[int, int] = {}
    for point in nest.iterations():
        tag = 0
        wtag = 0
        rtag = 0
        for offset, first, per_block, is_write in refs:
            bit = 1 << (first + offset(point) // per_block)
            tag |= bit
            if is_write:
                wtag |= bit
            else:
                rtag |= bit
        bucket = buckets.get(tag)
        if bucket is None:
            buckets[tag] = [point]
            write_tags[tag] = wtag
            read_tags[tag] = rtag
            if max_groups is not None and len(buckets) > max_groups:
                raise BlockingError(
                    f"tagging produced more than {max_groups} groups; "
                    "increase the data block size"
                )
        else:
            bucket.append(point)
            write_tags[tag] |= wtag
            read_tags[tag] |= rtag

    groups = [
        IterationGroup(tag, points, write_tags[tag], read_tags[tag])
        for tag, points in buckets.items()
    ]
    # Deterministic order: by first (lexicographically smallest) iteration.
    groups.sort(key=lambda g: g.iterations[0])
    return GroupSet(nest, partition, groups)


def choose_block_size(
    program: Program,
    nest: LoopNest,
    l1_capacity: int,
    default: int = 2048,
    minimum: int = 64,
) -> int:
    """Paper heuristic (Section 4.1) for the data block size.

    The most aggressive iteration group touches as many distinct blocks
    as a single iteration can, which is bounded by the reference count R
    of the nest (each affine reference touches one element, hence one
    block, per iteration).  We require ``R * block_size <= L1`` and
    return the largest power-of-two block size that satisfies it, capped
    at ``default`` (the paper's 2KB default) — "this sets an upper bound,
    and any lower value would be good as well".
    """
    if l1_capacity <= 0:
        raise BlockingError("L1 capacity must be positive")
    references = max(1, len(nest.accesses))
    bound = l1_capacity // references
    size = minimum
    while size * 2 <= min(bound, default):
        size *= 2
    element_sizes = {a.element_size for a in program.arrays.values()}
    for element_size in element_sizes:
        if size % element_size:
            raise BlockingError(
                f"selected block size {size} not a multiple of element size {element_size}"
            )
    return size
