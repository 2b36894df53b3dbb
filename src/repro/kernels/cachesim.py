"""Batched set-associative LRU simulation kernels.

The per-access engine walks every cache line through
:meth:`repro.sim.cachesim.SetAssociativeCache.access` — one dict probe
per access per level, all in interpreted Python.  For *private* cache
levels the outcome of each access is independent of how the engine
interleaves cores (only the owning core ever touches a private
component), so a whole round's trace can be simulated in one vectorized
pass per level.  This module provides that pass.

The batch kernel is **exact**: hits, misses, evictions and the final
resident set (including LRU order) are bit-identical to replaying the
stream through the dict-based reference.  It works by answering, for
each access ``t``, whether the previous access ``p(t)`` to the same
line is still resident — i.e. whether fewer than ``ways`` *distinct*
lines of the same set occurred in between.  Three O(n) filters settle
almost every access:

* no previous access → miss (cold);
* fewer than ``ways`` same-set accesses in between → hit (the reuse
  window is too short to evict anything);
* at least ``ways`` *first-ever* same-set lines in between → miss
  (cold lines alone already evicted it).

The rare leftovers are answered exactly by counting the distinct
intervening lines (an access ``j`` in the window introduces a new line
iff its own previous access predates the window).  When the leftover
work would exceed a small multiple of the stream length — adversarial
mixes of medium-distance reuses — the caller falls back to the scalar
loop, which is always exact (``sim-unresolved`` in the fallback
counters).

Pre-existing cache state (warm runs) is handled by prepending the
resident lines, eldest first, as virtual accesses that are excluded
from the returned outcomes and the counters.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

from repro.kernels import note_fallback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.distribute import ExecutablePlan
    from repro.sim.cachesim import SetAssociativeCache
    from repro.sim.trace import MemoryLayout

#: Streams shorter than this run the scalar loop even on the numpy
#: backend: the kernel's fixed cost (a handful of argsorts) only pays
#: for itself on streams of at least a few hundred accesses.
MIN_NUMPY_STREAM = 1024

#: Abort the exact leftover resolution when the summed same-set
#: reuse-window length exceeds this multiple of the stream length and
#: use the scalar loop instead; keeps the worst case linear.  The
#: resolution is itself vectorized, so the factor is generous.
UNRESOLVED_WORK_FACTOR = 32


def simulate_level(cache: "SetAssociativeCache", lines, use_numpy: bool):
    """Run ``lines`` through one cache component; returns the hit mask.

    Exactly equivalent to ``[cache.access(l) for l in lines]``: counters
    are incremented and the resident sets (with LRU order) updated.  With
    ``use_numpy`` and a long enough stream the vectorized kernel runs and
    the mask comes back as a bool ndarray; otherwise (short stream, or
    the kernel declining an adversarial stream) the tight scalar loop
    runs and the mask is a list of bools.
    """
    n = len(lines)
    if use_numpy and n >= MIN_NUMPY_STREAM:
        result = _simulate_level_numpy(cache, lines)
        if result is not None:
            return result
        note_fallback("sim-unresolved", "sim.level")
        lines = lines.tolist()
    elif use_numpy and n:
        lines = lines.tolist()
    return _simulate_level_scalar(cache, lines)


def _simulate_level_scalar(cache: "SetAssociativeCache", lines) -> list[bool]:
    """The dict LRU loop, inlined (no per-access method call)."""
    sets = cache.sets
    num_sets = cache.num_sets
    ways = cache.ways
    hits: list[bool] = []
    append = hits.append
    n_hit = n_evict = 0
    for line in lines:
        bucket = sets[line % num_sets]
        if line in bucket:
            del bucket[line]
            bucket[line] = None
            n_hit += 1
            append(True)
        else:
            bucket[line] = None
            if len(bucket) > ways:
                del bucket[next(iter(bucket))]
                n_evict += 1
            append(False)
    cache.hits += n_hit
    cache.misses += len(hits) - n_hit
    cache.evictions += n_evict
    return hits


def _simulate_level_numpy(cache: "SetAssociativeCache", lines):
    """Vectorized exact LRU; returns the hit mask or None to decline."""
    import numpy as np

    num_sets = cache.num_sets
    ways = cache.ways
    warm = [line for bucket in cache.sets for line in bucket]
    n_warm = len(warm)
    if n_warm:
        stream = np.concatenate(
            (np.array(warm, dtype=np.int64), lines.astype(np.int64, copy=False))
        )
    else:
        stream = lines.astype(np.int64, copy=False)
    outcome = _lru_filter_pass(stream, num_sets, ways)
    if outcome is None:
        return None
    hit, evict, set_of, prev = outcome
    real_hit = hit[n_warm:]
    n_hits = int(np.count_nonzero(real_hit))
    cache.hits += n_hits
    cache.misses += len(lines) - n_hits
    cache.evictions += int(np.count_nonzero(evict[n_warm:]))
    cache.sets = _resident_sets(stream, set_of, prev, num_sets, ways)
    return real_hit


def _lru_filter_pass(lines, num_sets: int, ways: int):
    """Hit/evict masks for a cold cache over ``lines``; None to decline.

    Returns ``(hit, evict, set_of, prev)`` where ``prev[t]`` is the index
    of the previous access to the same line (-1 when none) — reused by
    the resident-set reconstruction.
    """
    import numpy as np

    n = len(lines)
    if num_sets & (num_sets - 1) == 0:
        set_of = lines & (num_sets - 1)
    else:
        set_of = lines % num_sets

    # Per-set subsequence coordinate r: this access is the r-th of its set.
    order = np.argsort(set_of, kind="stable")
    sorted_sets = set_of[order]
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = sorted_sets[1:] != sorted_sets[:-1]
    seg_id = np.cumsum(seg_start) - 1
    start_idx = np.flatnonzero(seg_start)
    r = np.empty(n, dtype=np.int64)
    r[order] = np.arange(n, dtype=np.int64) - start_idx[seg_id]

    # prev[t]: previous access to the same line, via a stable sort by line.
    by_line = np.argsort(lines, kind="stable")
    sorted_lines = lines[by_line]
    prev = np.full(n, -1, dtype=np.int64)
    same = sorted_lines[1:] == sorted_lines[:-1]
    prev[by_line[1:][same]] = by_line[:-1][same]
    cold = prev == -1

    # A[t]: distinct lines of t's set seen strictly before t (exclusive
    # per-set cumulative count of first occurrences).
    cold_sorted = cold[order]
    cum_cold = np.cumsum(cold_sorted)
    seg_base = np.where(start_idx > 0, cum_cold[start_idx - 1], 0)
    distinct_before = np.empty(n, dtype=np.int64)
    distinct_before[order] = cum_cold - cold_sorted - seg_base[seg_id]

    prev_clip = np.maximum(prev, 0)
    window = r - r[prev_clip] - 1  # same-set accesses strictly between
    hit = np.zeros(n, dtype=bool)
    hit[~cold & (window < ways)] = True
    # Fresh (first-ever) same-set lines inside the window alone evict.
    fresh = distinct_before - (distinct_before[prev_clip] + cold[prev_clip])
    resolved_miss = cold | (fresh >= ways)

    unresolved = np.flatnonzero(~hit & ~resolved_miss)
    if len(unresolved):
        # Exact per-query resolution: the distinct lines strictly inside
        # the window (prev[t], t) are the same-set accesses j there whose
        # own previous access predates the window.  Same-set accesses are
        # contiguous in ``order`` (positions seg_off + r), so each query
        # reads exactly its window — summed window length is the work.
        lens = window[unresolved]
        work = int(lens.sum())
        if work > UNRESOLVED_WORK_FACTOR * n:
            return None
        inv_order = np.empty(n, dtype=np.int64)
        inv_order[order] = np.arange(n, dtype=np.int64)
        seg_off = inv_order[unresolved] - r[unresolved]
        starts = seg_off + r[prev[unresolved]] + 1
        ends = np.cumsum(lens)
        step = np.ones(work, dtype=np.int64)
        step[0] = starts[0]
        step[ends[:-1]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
        positions = order[np.cumsum(step)]
        introduces = prev[positions] < np.repeat(prev[unresolved], lens)
        cum_new = np.concatenate(([0], np.cumsum(introduces)))
        bounds = np.concatenate(([0], ends))
        distinct = cum_new[bounds[1:]] - cum_new[bounds[:-1]]
        hit[unresolved[distinct < ways]] = True

    miss = ~hit
    # A miss evicts exactly when the set is already full; occupancy
    # before t is min(ways, distinct_before[t]).
    evict = miss & (distinct_before >= ways)
    return hit, evict, set_of, prev


def _resident_sets(lines, set_of, prev, num_sets: int, ways: int) -> list[dict]:
    """The final dict state, identical to the scalar loop's.

    Resident lines of a set are its (up to) ``ways`` most recently used
    distinct lines; dict order is ascending last-use, matching the
    reference's insertion discipline.
    """
    import numpy as np

    n = len(lines)
    last = np.ones(n, dtype=bool)
    has_next = prev[prev >= 0]
    last[has_next] = False
    idx = np.flatnonzero(last)  # each line's final occurrence, ascending
    sets_of_last = set_of[idx]
    order = np.argsort(sets_of_last, kind="stable")
    sorted_idx = idx[order]
    sorted_sets = sets_of_last[order]
    buckets: list[dict] = [dict() for _ in range(num_sets)]
    if not len(sorted_idx):
        return buckets
    bounds = np.flatnonzero(np.diff(sorted_sets)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(sorted_idx)]))
    for begin, end in zip(starts.tolist(), ends.tolist()):
        set_no = int(sorted_sets[begin])
        keep = sorted_idx[max(begin, end - ways) : end]
        buckets[set_no] = dict.fromkeys(lines[keep].tolist())
    return buckets


def _round_indices(plan: "ExecutablePlan"):
    """Per core: the linear iteration indices of all its rounds in
    execution order (one ``repeat`` + ``arange`` expansion) and the
    per-round point counts."""
    for core_rounds in plan.rounds:
        counts = [sum(length for _, length in rnd) for rnd in core_rounds]
        yield plan.codec.expand(tuple(chain.from_iterable(core_rounds))), counts


def _linear(columns: list, count: int, coeffs, constant: int):
    """``constant + sum(c * column)`` as an int64 array of ``count``
    values; zero coefficients cost nothing.  Column by column, this
    beats an integer matmul (NumPy has no BLAS for int64)."""
    import numpy as np

    total = np.full(count, constant, dtype=np.int64)
    for column, coeff in zip(columns, coeffs):
        if coeff:
            total += column * coeff
    return total


def _core_traces(plan: "ExecutablePlan", line_shift: int, column_fns: list):
    """``(streams, offsets)`` from one address function per reference;
    each maps ``(coordinate columns, count)`` to an int64 address array."""
    import numpy as np

    num_refs = len(column_fns)
    streams: list = []
    offsets: list[list[int]] = []
    for indices, counts in _round_indices(plan):
        offs = [0]
        for count in counts:
            offs.append(offs[-1] + count * num_refs)
        lines = np.empty((len(indices), num_refs), dtype=np.int64)
        if len(indices) and num_refs:
            columns = plan.codec.columns(indices)
            for ref, fn in enumerate(column_fns):
                lines[:, ref] = fn(columns, len(indices))
            lines >>= line_shift
        streams.append(lines.ravel())  # point-major, access-minor
        offsets.append(offs)
    return streams, offsets


def build_traces_numpy(plan: "ExecutablePlan", layout: "MemoryLayout", line_shift: int):
    """Vectorized :func:`repro.sim.trace.build_traces`, pre-concatenated.

    Returns ``(streams, offsets)``: ``streams[core]`` is one int64 array
    of the core's line numbers across all rounds in issue order, and
    ``offsets[core]`` the cumulative per-round boundaries, so round ``k``
    is ``streams[core][offsets[core][k]:offsets[core][k + 1]]``.  Line
    values and order are identical to the scalar builder's.
    """
    import numpy as np

    nest = plan.nest
    nest.validate_access_bounds()
    if not nest.is_affine():
        return _build_traces_numpy_indirect(plan, layout, line_shift)
    resolved_base = []
    resolved_coeffs = []
    for access in nest.accesses:
        constant, coeffs = access.offset_form()
        elem = access.array.element_size
        resolved_base.append(layout.bases[access.array.name] + constant * elem)
        resolved_coeffs.append(tuple(c * elem for c in coeffs))
    column_fns = [
        partial(_linear, coeffs=coeffs, constant=base)
        for base, coeffs in zip(resolved_base, resolved_coeffs)
    ]
    return _core_traces(plan, line_shift, column_fns)


def _build_traces_numpy_indirect(
    plan: "ExecutablePlan", layout: "MemoryLayout", line_shift: int
):
    """Gather variant of :func:`build_traces_numpy` for indirect nests.

    Affine references keep the linear form; indirect subscripts become a
    vectorized index-array gather (``data[inner_offsets]``).  Issue order
    (point-major, access-minor) and line values match the scalar builder.
    """
    import numpy as np

    nest = plan.nest
    column_fns = []
    for access in nest.accesses:
        elem = access.array.element_size
        base = layout.bases[access.array.name]
        if access.is_affine:
            constant, coeffs = access.offset_form()
            base_addr = base + constant * elem

            def column(columns, count, coeffs=coeffs, base_addr=base_addr, elem=elem):
                return _linear(columns, count, coeffs, 0) * elem + base_addr

        else:
            strides = access.array._strides
            dims = []
            for (kind, constant, coeffs, data), stride in zip(
                access.subscript_forms(), strides
            ):
                data_vec = (
                    np.asarray(data, dtype=np.int64) if kind == "indirect" else None
                )
                dims.append((coeffs, constant, data_vec, stride))

            def column(columns, count, dims=dims, base=base, elem=elem):
                total = np.zeros(count, dtype=np.int64)
                for coeffs, constant, data_vec, stride in dims:
                    values = _linear(columns, count, coeffs, constant)
                    if data_vec is not None:
                        values = data_vec[values]
                    total += values * stride
                return base + total * elem

        column_fns.append(column)
    return _core_traces(plan, line_shift, column_fns)
