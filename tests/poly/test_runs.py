"""Property tests for the iteration-run codec (``repro.poly.runs``).

Point sequences in any order — permutations of ``K``, samples with
repeats, and points off ``K`` or off its bounding box — over box and
triangular spaces.  Every property runs on the NumPy codec and on the
pure-Python one, and the run cover check is compared with a set-based
reference kept here as the oracle.
"""

from __future__ import annotations

import ast
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.poly.affine import AffineExpr
from repro.poly.constraints import Constraint
from repro.poly.intset import IntSet
from repro.poly.runs import RunCodec, join_runs, runs_of, split_runs

DIMS = ("i", "j", "k")


class Rejected(Exception):
    pass


@st.composite
def spaces(draw) -> IntSet:
    """A small box (depth 1-3) or a lower/upper triangle."""
    kind = draw(st.sampled_from(["box", "lower", "upper"]))
    if kind == "box":
        depth = draw(st.integers(1, 3))
        ranges = []
        for _ in range(depth):
            lo = draw(st.integers(-3, 3))
            ranges.append((lo, lo + draw(st.integers(0, 4))))
        return IntSet.box(DIMS[:depth], ranges)
    n = draw(st.integers(1, 6))
    shift = draw(st.integers(-2, 2))
    i, j = AffineExpr.var("i"), AffineExpr.var("j")
    # lower: shift <= j <= i + shift; upper: i + shift <= j <= n - 1 + shift
    inner = (
        [Constraint.ge(j, shift), Constraint.ge(i + shift - j, 0)]
        if kind == "lower"
        else [Constraint.ge(j - i - shift, 0), Constraint.le(j, n - 1 + shift)]
    )
    return IntSet(("i", "j"), [Constraint.ge(i, 0), Constraint.le(i, n - 1), *inner])


@st.composite
def sequences(draw, off_box: bool = True):
    """``(space, points)``: a shuffled ``K``, or a sample with repeats,
    plus (optionally) points off ``K`` inside and outside the box."""
    space = draw(spaces())
    points = list(space.points())
    if draw(st.booleans()):
        seq = draw(st.permutations(points))
    else:
        seq = draw(st.lists(st.sampled_from(points), max_size=3 * len(points)))
    box = space.bounding_box()
    extras = []
    if draw(st.booleans()):
        in_box = [p for p in _box_points(box) if not space.contains(p)]
        if in_box:
            extras += draw(st.lists(st.sampled_from(in_box), max_size=3))
    if off_box and draw(st.booleans()):
        lo, hi = box[0]
        extras.append((draw(st.sampled_from([lo - 1, hi + 1])),) + tuple(
            draw(st.integers(a, b)) for a, b in box[1:]
        ))
    for point in extras:
        seq.insert(draw(st.integers(0, len(seq))), point)
    return space, seq


def _box_points(box):
    if not box:
        return [()]
    return [(x,) + rest for x in range(box[0][0], box[0][1] + 1) for rest in _box_points(box[1:])]


def oracle(space: IntSet, seq) -> tuple[str, int, int] | None:
    """The set-based reference: None when ``seq`` holds each point of
    ``space`` exactly once, else why not."""
    if len(set(seq)) != len(seq):
        return ("twice", 0, 0)
    seen, want = set(seq), set(space.points())
    if seen == want:
        return None
    return ("mismatch", len(want - seen), len(seen - want))


def run_check(space: IntSet, seq) -> tuple[str, int, int] | None:
    codec = RunCodec.of(space)
    indices, outside = codec.linearize(seq)
    try:
        codec.check_cover(
            space, runs_of(indices), Rejected, "twice {}", "mismatch {missing} {extra}",
            outside=outside,
        )
    except Rejected as error:
        kind, *rest = str(error).split(" ", 1)
        if kind == "twice":
            point = ast.literal_eval(rest[0])  # the repeated point, as formatted
            assert seq.count(point) > 1
            return ("twice", 0, 0)
        missing, extra = map(int, rest[0].split())
        return ("mismatch", missing, extra)
    return None


def properties(examples: int):
    """Hypothesis settings for a property run under ``codec_path``: the
    fixture only fixes which codec path runs, so sharing it across the
    generated inputs is intended."""
    return settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


@pytest.fixture(params=["numpy", "python"])
def codec_path(request):
    """Run on the NumPy codec and on the pure-Python one."""
    if request.param == "numpy":
        if not kernels.have_numpy():
            pytest.skip("numpy is not importable")
        yield request.param
        return
    with mock.patch.object(kernels, "have_numpy", lambda: False):
        yield request.param


class TestCodecProperties:
    @properties(150)
    @given(sequences(off_box=False))
    def test_round_trip_exact(self, codec_path, case):
        space, seq = case
        codec = RunCodec.of(space)
        runs = codec.encode(seq)
        assert codec.points(runs) == tuple(seq)
        assert sum(length for _, length in runs) == len(seq)

    @properties(150)
    @given(sequences(off_box=False))
    def test_runs_are_maximal(self, codec_path, case):
        space, seq = case
        runs = RunCodec.of(space).encode(seq)
        assert all(length >= 1 for _, length in runs)
        for (start, length), (nxt, _) in zip(runs, runs[1:]):
            assert start + length != nxt

    @properties(200)
    @given(sequences())
    def test_cover_check_agrees_with_set_oracle(self, codec_path, case):
        space, seq = case
        expected = oracle(space, seq)
        got = run_check(space, seq)
        if expected is None or got is None:
            assert got == expected
        elif expected[0] == "mismatch":
            assert got == expected
        else:
            # A point held twice outside the box is extra, not a repeat:
            # it never became a run.
            assert got[0] == "twice" or got[2] > 0

    @properties(100)
    @given(spaces())
    def test_space_runs_expand_to_k(self, codec_path, space):
        codec = RunCodec.of(space)
        assert codec.points(codec.space_runs(space)) == tuple(space.points())


class TestCodecUnits:
    def test_off_box_point_rejected(self):
        codec = RunCodec([(0, 3), (0, 3)])
        with pytest.raises(ValueError, match="outside the box"):
            codec.encode([(0, 0), (4, 0)])

    @pytest.mark.parametrize(
        "point", [(0, 1.0), (True, 1), (0,), [0, 1]], ids=["float", "bool", "arity", "list"]
    )
    def test_malformed_point_rejected(self, codec_path, point):
        with pytest.raises(ValueError):
            RunCodec([(0, 3), (0, 3)]).encode([(0, 0), point])

    @pytest.mark.parametrize(
        "runs",
        [[(0, 0)], [(-1, 2)], [(15, 2)], [(0, 1.0)], [(True, 1)], [(0, 1, 2)], [(2**70, 1)]],
        ids=["zero-length", "negative-start", "past-end", "float", "bool", "triple", "huge"],
    )
    def test_malformed_runs_rejected(self, codec_path, runs):
        codec = RunCodec([(0, 3), (0, 3)])
        space = IntSet.box(("i", "j"), [(0, 3), (0, 3)])
        with pytest.raises(Rejected):
            codec.check_cover(space, runs, Rejected, "twice {}", "mismatch")

    def test_join_merges_touching_runs(self):
        assert join_runs(((0, 2),), ((2, 3), (9, 1))) == ((0, 5), (9, 1))

    def test_split_cuts_at_point_counts(self):
        assert split_runs(((0, 5), (9, 1)), [2, 4, 0]) == [((0, 2),), ((2, 3), (9, 1)), ()]

    def test_empty_space(self):
        space = IntSet.box(("i",), [(3, 2)])
        codec = RunCodec.of(space)
        assert codec.size == 0 and codec.space_runs(space) == ()
        codec.check_cover(space, [], Rejected, "twice {}", "mismatch")
