"""Property-based tests for the polyhedral substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.poly.affine import AffineExpr
from repro.poly.codegen import compile_enumerator, generate_loop_nest
from repro.poly.constraints import Constraint
from repro.poly.intset import IntSet

VARS = ("i", "j")

coeffs = st.integers(min_value=-4, max_value=4)
consts = st.integers(min_value=-10, max_value=10)


@st.composite
def affine_exprs(draw, dims=VARS):
    return AffineExpr(
        {v: draw(coeffs) for v in dims},
        draw(consts),
    )


@st.composite
def bounded_sets(draw, dims=VARS):
    """A box over ``dims`` intersected with up to 3 random constraints."""
    ranges = [
        (draw(st.integers(-5, 0)), draw(st.integers(1, 6))) for _ in dims
    ]
    base = IntSet.box(list(dims), ranges)
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        expr = draw(affine_exprs(dims))
        kind = draw(st.sampled_from([Constraint.GE, Constraint.EQ]))
        extra.append(Constraint(expr, kind))
    return base.with_constraints(extra)


def reference_points(s):
    """The point-at-a-time recursive sweep: the enumeration oracle."""
    levels = s.level_bounds()

    def rec(k, env, prefix):
        if k == len(levels):
            yield prefix
            return
        rng = levels[k].range_for(env)
        if rng is None:
            return
        for value in range(rng[0], rng[1] + 1):
            env[levels[k].dim] = value
            yield from rec(k + 1, env, prefix + (value,))
        env.pop(levels[k].dim, None)

    return rec(0, {}, ())


class TestAffineAlgebra:
    @given(affine_exprs(), affine_exprs())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(affine_exprs(), affine_exprs(), affine_exprs())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(affine_exprs())
    def test_double_negation(self, a):
        assert -(-a) == a

    @given(affine_exprs(), st.integers(-5, 5))
    def test_scaling_distributes_over_eval(self, a, factor):
        env = {"i": 2, "j": -3}
        assert (a * factor).evaluate(env) == factor * a.evaluate(env)

    @given(affine_exprs(), affine_exprs())
    def test_eval_homomorphism(self, a, b):
        env = {"i": 1, "j": 4}
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)


class TestSetSemantics:
    @settings(max_examples=60, deadline=None)
    @given(bounded_sets())
    def test_enumeration_matches_membership(self, s):
        """Every enumerated point is a member; brute force agrees."""
        pts = list(s.points())
        box = IntSet.box(list(VARS), [(-5, 6), (-5, 6)])
        brute = {p for p in box.points() if s.contains(p)}
        assert set(pts) == brute
        assert s.count() == len(pts)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(bounded_sets(), bounded_sets(("i", "j", "k"))))
    def test_enumeration_matches_reference_sweep(self, s):
        """Same points in the same order as the recursive sweep."""
        pts = list(s.points())
        assert pts == list(reference_points(s))
        assert s.count() == len(pts)

    @settings(max_examples=60, deadline=None)
    @given(bounded_sets())
    def test_enumeration_is_sorted_unique(self, s):
        pts = list(s.points())
        assert pts == sorted(set(pts))

    @settings(max_examples=40, deadline=None)
    @given(bounded_sets())
    def test_codegen_equals_enumeration(self, s):
        fn = compile_enumerator(generate_loop_nest(s))
        assert list(fn()) == list(s.points())

    @settings(max_examples=40, deadline=None)
    @given(bounded_sets())
    def test_projection_is_sound(self, s):
        proj = s.project_onto(["i"])
        for p in s.points():
            assert proj.contains((p[0],))

    @settings(max_examples=40, deadline=None)
    @given(bounded_sets(), bounded_sets())
    def test_intersection_semantics(self, a, b):
        inter = a.intersect(b)
        pts_a = set(a.points())
        pts_b = set(b.points())
        assert set(inter.points()) == (pts_a & pts_b)
