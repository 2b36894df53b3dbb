"""Vectorized iteration tagging (the bulk form of Section 3.3).

The scalar reference in :mod:`repro.blocks.tagger` walks the iteration
space K one point at a time, evaluating every reference's affine offset
form with Python integers.  Here the whole space is materialized as one
``(K, d)`` ``int64`` grid, each reference's offset form becomes a single
matrix-vector product, and iterations are grouped by the *set* of data
blocks they touch — a ``(K, refs)`` matrix of small block numbers that
sorts far faster than wide bit vectors.  The resulting
:class:`~repro.blocks.groups.GroupSet` is bit-identical to the scalar
one — same tags, same write/read tags, same iteration tuples, same group
order, same idents.

Vectorization applies when the space is rectangular (every loop bound is
a constant — the overwhelmingly common case after frontend
normalization); :func:`tag_iterations_numpy` returns ``None`` otherwise
and the caller runs the scalar reference.  Tags come out as Python
integers of any width, so the number of data blocks is unbounded.

This module imports NumPy at module level; import it only after
:func:`repro.kernels.resolve_backend` picked the numpy backend.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BlockingError
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import GroupSet, IterationGroup
from repro.ir.loops import LoopNest


def iteration_grid(nest: LoopNest) -> "np.ndarray | None":
    """The nest's iteration space as a ``(K, d)`` ``int64`` grid, lex order.

    Returns ``None`` when any loop bound depends on an outer loop
    variable (non-rectangular space) — those nests enumerate through the
    exact scalar path instead.  An empty space yields a ``(0, d)`` grid.
    """
    ranges = nest.space.box_ranges()
    if ranges is None:
        return None
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, len(ranges))


def tag_iterations_numpy(
    nest: LoopNest,
    partition: DataBlockPartition,
    resolved: list[tuple[int, tuple[int, ...], int, int, bool]],
    max_groups: int | None = None,
) -> GroupSet | None:
    """Bulk tagging; ``None`` when this nest/partition cannot vectorize.

    ``resolved`` carries the per-access ``(constant, coeffs, first_block,
    elems_per_block, is_write)`` tuples prepared by the caller (shared
    with the scalar path).  The caller must already have validated access
    bounds, exactly as the scalar reference requires.
    """
    grid = iteration_grid(nest)
    if grid is None:
        # Loop-variant bounds: the scalar tagger is the designed path,
        # not a fallback (``kernels.backend.python`` counts it).
        return None
    count, _ = grid.shape
    if not count:
        return GroupSet(nest, partition, [])
    refs = len(resolved)
    blocks_mat = np.empty((count, refs), dtype=np.int64)
    for column, (constant, coeffs, first, per_block, _) in enumerate(resolved):
        offsets = grid @ np.asarray(coeffs, dtype=np.int64) + constant
        blocks_mat[:, column] = first + offsets // per_block

    # Group iterations by the *set* of touched blocks (equivalent to
    # grouping by tag, since the tag is exactly that set as a bit vector):
    # sort each row, collapse duplicate entries to a sentinel, re-sort to
    # push sentinels right, then order rows so equal sets are adjacent.
    # The stable sort leaves each group's members in ascending enumeration
    # (= lexicographic) order.
    cols = _canonical_set_columns(blocks_mat, partition.num_blocks)
    stride = partition.num_blocks + 1
    new_group = np.empty(count, dtype=bool)
    new_group[0] = True
    if stride ** refs < 2**63:
        # Rows fold into one int64 key, so one stable argsort replaces the
        # column-by-column lexsort and boundaries are scalar compares.
        key = cols[0]
        for c in range(1, refs):
            key = key * stride + cols[c]
        order = np.argsort(key, kind="stable")
        key_ordered = key[order]
        np.not_equal(key_ordered[1:], key_ordered[:-1], out=new_group[1:])
    else:
        touched = np.stack(cols, axis=1)
        order = np.lexsort(tuple(touched[:, c] for c in range(refs - 1, -1, -1)))
        ordered = touched[order]
        np.any(ordered[1:] != ordered[:-1], axis=1, out=new_group[1:])
    starts = np.flatnonzero(new_group)
    num_groups = len(starts)
    if max_groups is not None and num_groups > max_groups:
        raise BlockingError(
            f"tagging produced more than {max_groups} groups; "
            "increase the data block size"
        )

    # Per-group write/read tags from deduplicated (group, block) pairs:
    # one np.unique per access class replaces per-iteration bit-vector
    # scatters, and the surviving pair count is O(groups * refs), cheap to
    # fold into Python big-int tags.
    group_ids = np.cumsum(new_group) - 1
    ordered_blocks = blocks_mat[order]
    stride = partition.num_blocks + 1
    keyed = group_ids[:, None] * stride + ordered_blocks
    write_cols = [c for c, acc in enumerate(resolved) if acc[4]]
    read_cols = [c for c, acc in enumerate(resolved) if not acc[4]]
    write_tags = _pair_tags(keyed, write_cols, stride, num_groups)
    read_tags = _pair_tags(keyed, read_cols, stride, num_groups)
    tags = [w | r for w, r in zip(write_tags, read_tags)]

    # Gather the grid into group order once; each group is then a
    # contiguous slice of the tuple list, already lexicographically
    # sorted (zip-of-columns is the fastest ndarray -> tuples path).
    ordered_grid = grid[order]
    dims = grid.shape[1]
    points = list(zip(*(ordered_grid[:, k].tolist() for k in range(dims))))
    starts_list = starts.tolist()
    ends_list = starts_list[1:] + [count]
    firsts = order[starts].tolist()

    # Scalar reference semantics: groups ordered by their first
    # (lexicographically smallest) iteration, idents assigned in that
    # order (first-occurrence order of the tags).
    by_first = sorted(range(num_groups), key=firsts.__getitem__)
    groups = []
    for u in by_first:
        group_points = points[starts_list[u] : ends_list[u]]
        groups.append(
            IterationGroup(tags[u], group_points, write_tags[u], read_tags[u])
        )
    return GroupSet(nest, partition, groups)


#: Optimal compare-exchange networks for tiny row widths; row-wise
#: ``np.sort`` costs per-row dispatch that a handful of vectorized
#: min/max column passes avoids entirely.
_SORT_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (3, 4), (2, 4), (2, 3), (1, 4), (0, 3), (0, 2), (1, 3), (1, 2)),
    6: (
        (1, 2), (4, 5), (0, 2), (3, 5), (0, 1), (3, 4),
        (2, 5), (0, 3), (1, 4), (2, 4), (1, 3), (2, 3),
    ),
}


def _sort_columns(cols: list["np.ndarray"]) -> list["np.ndarray"]:
    network = _SORT_NETWORKS.get(len(cols))
    if network is None:
        matrix = np.sort(np.stack(cols, axis=1), axis=1)
        return [matrix[:, c] for c in range(len(cols))]
    for i, j in network:
        lo = np.minimum(cols[i], cols[j])
        hi = np.maximum(cols[i], cols[j])
        cols[i], cols[j] = lo, hi
    return cols


def _canonical_set_columns(
    blocks_mat: "np.ndarray", num_blocks: int
) -> list["np.ndarray"]:
    """Each row reduced to its canonical *set* form, as column arrays.

    Rows are sorted, duplicate entries collapsed to the sentinel
    ``num_blocks`` and pushed right by a second sort, so two iterations
    touch the same block set iff their canonical rows are equal.  (The
    multiset of touched blocks may differ where the set does not — e.g.
    ``(b1, b1, b2)`` vs ``(b1, b2, b2)`` — hence the dedupe.)
    """
    refs = blocks_mat.shape[1]
    cols = _sort_columns([blocks_mat[:, c].copy() for c in range(refs)])
    # Walking high-to-low keeps every comparison against original values.
    for c in range(refs - 1, 0, -1):
        cols[c][cols[c] == cols[c - 1]] = num_blocks
    return _sort_columns(cols)


def _pair_tags(
    keyed: "np.ndarray", columns: list[int], stride: int, num_groups: int
) -> list[int]:
    """Per-group tags from ``group_id * stride + block`` pair keys.

    ``columns`` selects the accesses contributing to this tag class
    (writes or reads); the union over a group's members falls out of key
    deduplication.
    """
    tags = [0] * num_groups
    if not columns:
        return tags
    for key in np.unique(keyed[:, columns]).tolist():
        tags[key // stride] |= 1 << (key % stride)
    return tags
