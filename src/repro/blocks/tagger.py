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

Both of the above assume affine references.  :func:`tag_iterations` is
the access-analysis seam (:mod:`repro.blocks.analysis`): nests with
indirect references (``A[idx[i]]``) dispatch to the trace-based tagging
fallback instead, which derives the same ``GroupSet`` shape from a
recorded execution.
"""

from __future__ import annotations

from repro import obs
from repro.errors import BlockingError
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import GroupSet, IterationGroup
from repro.ir.loops import LoopNest, Program
from repro.kernels import resolve_backend

#: (constant, coeffs, first_block, elems_per_block, is_write) per access.
ResolvedAccess = tuple[int, tuple[int, ...], int, int, bool]


def resolve_accesses(nest: LoopNest, partition: DataBlockPartition) -> list[ResolvedAccess]:
    """Pre-resolve per-access metadata out of the hot loop: the linear
    offset form plus the array's block geometry."""
    resolved = []
    for access in nest.accesses:
        constant, coeffs = access.offset_form()
        first = partition.blocks_of_array(access.array.name).start
        per_block = partition.elements_per_block(access.array.name)
        resolved.append((constant, coeffs, first, per_block, access.is_write))
    return resolved


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

    This is the access-analysis seam's entry point: affine nests take the
    static path below, nests with indirect references dispatch to the
    trace-based fallback (:mod:`repro.blocks.analysis`).  Either way the
    resulting ``GroupSet`` feeds the downstream stages unchanged.
    """
    from repro.blocks.analysis import AffineAnalysis, select_analysis

    analysis = select_analysis(nest)
    if not isinstance(analysis, AffineAnalysis):
        return analysis.tag(nest, partition, max_groups=max_groups, backend=backend)
    return _tag_affine(nest, partition, max_groups, backend)


def _tag_affine(
    nest: LoopNest,
    partition: DataBlockPartition,
    max_groups: int | None,
    backend: str,
) -> GroupSet:
    """The static (affine) implementation behind :class:`AffineAnalysis`."""
    if not nest.accesses:
        raise BlockingError(f"nest {nest.name!r} has no array accesses to tag")
    nest.validate_access_bounds()
    resolved = resolve_accesses(nest, partition)
    with obs.span(
        "tag.iterations", nest=nest.name, iterations=nest.iteration_count()
    ) as sp:
        result = None
        ran = "python"
        if resolve_backend(backend) == "numpy":
            from repro.kernels.tagging import tag_iterations_numpy

            result = tag_iterations_numpy(nest, partition, resolved, max_groups)
            if result is not None:
                ran = "numpy"
        if result is None:
            result = _tag_iterations_scalar(nest, partition, resolved, max_groups)
        sp.tag(backend=ran, groups=len(result.groups))
        obs.count(f"kernels.backend.{ran}")
        obs.count("tag.groups_formed", len(result.groups))
        return result


def _tag_iterations_scalar(
    nest: LoopNest,
    partition: DataBlockPartition,
    resolved: list[ResolvedAccess],
    max_groups: int | None,
) -> GroupSet:
    """The scalar reference implementation (and numpy-backend oracle)."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    write_tags: dict[int, int] = {}
    read_tags: dict[int, int] = {}
    for point in nest.iterations():
        tag = 0
        wtag = 0
        rtag = 0
        for constant, coeffs, first, per_block, is_write in resolved:
            offset = constant
            for c, x in zip(coeffs, point):
                offset += c * x
            bit = 1 << (first + offset // per_block)
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
