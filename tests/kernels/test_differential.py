"""Differential tests: vectorized tagging against the scalar oracle.

Sixty seeded random loop nests (1–3 deep, 2–4 affine accesses over one or
two arrays, random small coefficients and block sizes; about half also
read or write through a seeded 1-D or 2-D index array) are tagged on
both backends, which must produce byte-identical GroupSets (tags,
write/read tags, iteration order, idents).  Tagging is the only mapping
stage with two implementations: clustering and scheduling work on
Python-int tags alone.  The vectorized and scalar trace builders must
also agree on each nest's Base plan.
"""

import random

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from repro.blocks import tagger
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import IterationGroup
from repro.ir.accesses import ArrayAccess, IndirectAccess, IndirectExpr
from repro.ir.arrays import Array
from repro.ir.loops import LoopNest
from repro.kernels.cachesim import build_traces_numpy
from repro.kernels.tagging import tag_iterations_numpy
from repro.mapping.baselines import base_plan
from repro.poly.affine import AffineExpr
from repro.poly.intset import IntSet
from repro.sim.trace import MemoryLayout, build_traces

NUM_NESTS = 60


def random_nest(rng: random.Random) -> tuple[LoopNest, DataBlockPartition]:
    """A random rectangular nest with in-bounds accesses.

    Subscript expressions get random coefficients in [-2, 2]; each
    array's extents are derived from the subscripts' ranges over the
    iteration box (shifting so the minimum lands on index 0), which keeps
    ``validate_access_bounds`` satisfied by construction.  About half the
    seeds add one indirect access (:func:`indirect_access`).
    """
    depth = rng.randint(1, 3)
    dims = tuple(f"i{k}" for k in range(depth))
    bounds = [(0, rng.randint(2, 7)) for _ in range(depth)]
    space = IntSet.box(dims, bounds)

    num_arrays = rng.randint(1, 2)
    ranks = [rng.randint(1, 2) for _ in range(num_arrays)]
    num_accesses = rng.randint(2, 4)
    specs = []
    for index in range(num_accesses):
        arr = rng.randrange(num_arrays)
        subs = []
        for _ in range(ranks[arr]):
            coeffs = [rng.randint(-2, 2) for _ in range(depth)]
            subs.append((rng.randint(-3, 3), coeffs))
        specs.append((arr, subs, index == 0))

    # Subscript range over the box: an affine form is extremal at corners.
    mins: dict[tuple[int, int], int] = {}
    maxs: dict[tuple[int, int], int] = {}
    for arr, subs, _ in specs:
        for d, (constant, coeffs) in enumerate(subs):
            lo = constant + sum(min(c * b[0], c * b[1]) for c, b in zip(coeffs, bounds))
            hi = constant + sum(max(c * b[0], c * b[1]) for c, b in zip(coeffs, bounds))
            key = (arr, d)
            mins[key] = min(mins.get(key, lo), lo)
            maxs[key] = max(maxs.get(key, hi), hi)

    # An array the access draw never picked still needs valid extents.
    arrays = [
        Array(
            f"A{a}",
            tuple(
                maxs.get((a, d), 0) - mins.get((a, d), 0) + 1
                for d in range(ranks[a])
            ),
        )
        for a in range(num_arrays)
    ]
    accesses = []
    for arr, subs, is_write in specs:
        exprs = []
        for d, (constant, coeffs) in enumerate(subs):
            expr = AffineExpr.const(constant - mins[(arr, d)])
            for c, name in zip(coeffs, dims):
                expr = expr + AffineExpr.var(name) * c
            exprs.append(expr)
        accesses.append(ArrayAccess(arrays[arr], dims, exprs, is_write=is_write))
    block_size = rng.choice([64, 128, 256])
    if rng.random() < 0.5:
        access, extra = indirect_access(rng, dims, bounds)
        accesses.insert(rng.randint(0, len(accesses)), access)
        arrays.extend(extra)
    nest = LoopNest("rand", space, accesses)
    partition = DataBlockPartition(tuple(arrays), block_size)
    return nest, partition


def _shifted(rng: random.Random, dims, bounds) -> tuple[AffineExpr, int]:
    """A random affine expression with range ``[0, extent - 1]`` over the
    box, and that extent."""
    coeffs = [rng.randint(-2, 2) for _ in dims]
    lo = sum(min(c * b[0], c * b[1]) for c, b in zip(coeffs, bounds))
    hi = sum(max(c * b[0], c * b[1]) for c, b in zip(coeffs, bounds))
    expr = AffineExpr.const(-lo)
    for c, name in zip(coeffs, dims):
        expr = expr + AffineExpr.var(name) * c
    return expr, hi - lo + 1


def indirect_access(rng: random.Random, dims, bounds):
    """One in-bounds reference ``T[...X[...]...]`` and its two arrays.

    The index array ``X`` is 1-D or 2-D (as in ``csr_sweep``), read at
    affine subscripts and filled with seeded values inside the target
    dimension; a 2-D target ``T`` mixes the indirect subscript with an
    affine one, in either position.
    """
    inner = [_shifted(rng, dims, bounds) for _ in range(rng.randint(1, 2))]
    target_extent = rng.randint(2, 40)
    size = 1
    for _, extent in inner:
        size *= extent
    index = Array(
        "X",
        tuple(extent for _, extent in inner),
        data=[rng.randrange(target_extent) for _ in range(size)],
    )
    subscripts = [IndirectExpr(index, [expr for expr, _ in inner])]
    extents = [target_extent]
    if rng.random() < 0.5:
        expr, extent = _shifted(rng, dims, bounds)
        position = rng.randint(0, 1)
        subscripts.insert(position, expr)
        extents.insert(position, extent)
    target = Array("T", tuple(extents))
    access = IndirectAccess(target, dims, subscripts, is_write=rng.random() < 0.3)
    return access, [target, index]


def groupset_fingerprint(gs):
    return [
        (g.ident, g.tag, g.write_tag, g.read_tag, g.iterations) for g in gs.groups
    ]


@pytest.mark.parametrize("seed", range(NUM_NESTS))
def test_tagging_backends_identical(seed):
    rng = random.Random(seed)
    nest, partition = random_nest(rng)
    nest.validate_access_bounds()

    IterationGroup.reset_idents()
    scalar = tagger.tag_iterations(nest, partition, backend="python")
    IterationGroup.reset_idents()
    vectorized = tag_iterations_numpy(nest, partition)
    assert vectorized is not None, "rectangular nest must vectorize"
    assert groupset_fingerprint(scalar) == groupset_fingerprint(vectorized)
    vectorized.verify_partition()


@pytest.mark.parametrize("seed", range(NUM_NESTS))
def test_trace_builders_identical(seed, fig9_machine):
    nest, _ = random_nest(random.Random(seed))
    plan = base_plan(nest, fig9_machine)
    layout = MemoryLayout.for_nest(nest, 32)
    streams, offsets = build_traces_numpy(plan, layout, 5)
    for core, rounds in enumerate(build_traces(plan, layout, 5)):
        assert streams[core].tolist() == [line for rnd in rounds for line in rnd]
        bounds = [0]
        for rnd in rounds:
            bounds.append(bounds[-1] + len(rnd))
        assert offsets[core] == bounds


def test_both_kinds_of_nest_are_drawn():
    indirect = sum(
        any(isinstance(a, IndirectAccess) for a in random_nest(random.Random(s))[0].accesses)
        for s in range(NUM_NESTS)
    )
    assert 10 <= indirect <= NUM_NESTS - 10
