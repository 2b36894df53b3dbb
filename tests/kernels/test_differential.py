"""Differential tests: vectorized tagging against the scalar oracle.

Sixty seeded random loop nests (1–3 deep, 2–4 affine accesses over one or
two arrays, random small coefficients and block sizes) are tagged on both
backends, which must produce byte-identical GroupSets (tags, write/read
tags, iteration order, idents).  Tagging is the only mapping stage with
two implementations: clustering and scheduling work on Python-int tags
alone.
"""

import random

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from repro.blocks import tagger
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import IterationGroup
from repro.ir.accesses import ArrayAccess
from repro.ir.arrays import Array
from repro.ir.loops import LoopNest
from repro.kernels.tagging import tag_iterations_numpy
from repro.poly.affine import AffineExpr
from repro.poly.intset import IntSet

NUM_NESTS = 60


def random_nest(rng: random.Random) -> tuple[LoopNest, DataBlockPartition]:
    """A random rectangular nest with in-bounds affine accesses.

    Subscript expressions get random coefficients in [-2, 2]; each
    array's extents are derived from the subscripts' ranges over the
    iteration box (shifting so the minimum lands on index 0), which keeps
    ``validate_access_bounds`` satisfied by construction.
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
    nest = LoopNest("rand", space, accesses)
    partition = DataBlockPartition(tuple(arrays), rng.choice([64, 128, 256]))
    return nest, partition


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
    vectorized = tag_iterations_numpy(
        nest, partition, tagger.resolve_accesses(nest, partition)
    )
    assert vectorized is not None, "rectangular nest must vectorize"
    assert groupset_fingerprint(scalar) == groupset_fingerprint(vectorized)
    vectorized.verify_partition()
