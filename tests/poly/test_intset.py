"""Unit tests for convex integer sets."""

import pytest

from repro.errors import EmptySetError, PolyhedralError, UnboundedSetError
from repro.poly.affine import AffineExpr
from repro.poly.constraints import Constraint
from repro.poly.intset import IntSet

i = AffineExpr.var("i")
j = AffineExpr.var("j")
k = AffineExpr.var("k")


def triangle(n: int = 4) -> IntSet:
    """0 <= i <= n, 0 <= j <= i."""
    return IntSet(
        ["i", "j"],
        [Constraint.ge(i, 0), Constraint.le(i, n), Constraint.ge(j, 0), Constraint.le(j, i)],
    )


class TestConstruction:
    def test_duplicate_dims_rejected(self):
        with pytest.raises(PolyhedralError):
            IntSet(["i", "i"])

    def test_foreign_variable_rejected(self):
        with pytest.raises(PolyhedralError):
            IntSet(["i"], [Constraint.ge(j, 0)])

    def test_tautologies_dropped(self):
        s = IntSet(["i"], [Constraint.ge(AffineExpr.const(5), 0)])
        assert s.constraints == ()

    def test_duplicate_constraints_dropped(self):
        s = IntSet(["i"], [Constraint.ge(i, 0), Constraint.ge(i * 2, 0)])
        assert len(s.constraints) == 1

    def test_box(self):
        s = IntSet.box(["i", "j"], [(0, 2), (1, 3)])
        assert s.count() == 3 * 3

    def test_box_arity_mismatch(self):
        with pytest.raises(PolyhedralError):
            IntSet.box(["i"], [(0, 1), (0, 1)])

    def test_immutable(self):
        s = IntSet.universe(["i"])
        with pytest.raises(AttributeError):
            s.dims = ("j",)


class TestMembership:
    def test_contains_sequence(self):
        assert triangle().contains((2, 1))
        assert not triangle().contains((1, 2))

    def test_contains_mapping(self):
        assert triangle().contains({"i": 3, "j": 3})

    def test_contains_wrong_arity(self):
        with pytest.raises(PolyhedralError):
            triangle().contains((1,))


class TestEnumeration:
    def test_triangle_count(self):
        assert triangle(4).count() == 15

    def test_lexicographic_order(self):
        pts = list(triangle(3).points())
        assert pts == sorted(pts)

    def test_every_point_satisfies_constraints(self):
        s = triangle(5)
        for p in s.points():
            assert s.contains(p)

    def test_empty_set(self):
        assert IntSet.empty(["i", "j"]).count() == 0

    def test_zero_dims_universe(self):
        assert list(IntSet.universe([]).points()) == [()]

    def test_equality_constraint_pins_value(self):
        s = IntSet(["i"], [Constraint.eq(i, 7)])
        assert list(s.points()) == [(7,)]

    def test_equality_indivisible_gives_empty(self):
        s = IntSet(
            ["i", "j"],
            [Constraint.ge(i, 0), Constraint.le(i, 5), Constraint.eq(j * 2, i),
             Constraint.ge(j, 0), Constraint.le(j, 5)],
        )
        # Only even i yield integer j.
        assert [p[0] for p in s.points()] == [0, 2, 4]

    def test_diagonal_strip(self):
        # |i - j| <= 1 within a box.
        s = IntSet.box(["i", "j"], [(0, 3), (0, 3)]).with_constraints(
            [Constraint.le(i - j, 1), Constraint.le(j - i, 1)]
        )
        pts = set(s.points())
        assert (0, 0) in pts and (2, 3) in pts and (0, 2) not in pts

    def test_unbounded_raises(self):
        s = IntSet(["i"], [Constraint.ge(i, 0)])
        with pytest.raises(UnboundedSetError):
            list(s.points())

    def test_unbounded_inner_behind_empty_outer(self):
        # The sweep never reaches j, so neither enumeration nor count raises.
        s = IntSet(["i", "j"], [Constraint.ge(i, 1), Constraint.le(i, 0), Constraint.ge(j, 0)])
        assert list(s.points()) == []
        assert s.count() == 0

    def test_unbounded_raises_lazily(self):
        for s in (
            IntSet(["i"], [Constraint.ge(i, 0)]),
            IntSet(["i", "j"], [Constraint.ge(i, 0), Constraint.le(i, 3), Constraint.ge(j, i)]),
        ):
            points = s.points()
            with pytest.raises(UnboundedSetError):
                next(points)
            with pytest.raises(UnboundedSetError):
                s.count()

    def test_box_ranges(self):
        assert IntSet.box(["i", "j"], [(0, 3), (-2, 5)]).box_ranges() == [(0, 3), (-2, 5)]
        assert IntSet(["i"], [Constraint.eq(i, 7)]).box_ranges() == [(7, 7)]
        assert triangle().box_ranges() is None
        assert IntSet.empty(["i", "j"]).box_ranges() == [(0, -1), (0, -1)]
        assert IntSet.universe([]).box_ranges() is None

    def test_count_is_closed_form(self):
        assert IntSet.box(["i", "j", "k"], [(0, 9999)] * 3).count() == 10**12
        assert triangle(10**4).count() == (10**4 + 1) * (10**4 + 2) // 2

    def test_first_point(self):
        assert triangle().first_point() == (0, 0)

    def test_first_point_empty_raises(self):
        with pytest.raises(EmptySetError):
            IntSet.empty(["i"]).first_point()

    def test_is_empty(self):
        assert IntSet.empty(["i"]).is_empty()
        assert not triangle().is_empty()

    def test_rational_nonintegral_set_is_empty(self):
        # 1 <= 2i <= 1 has the rational solution 1/2 but no integer point.
        s = IntSet(["i"], [Constraint.ge(i * 2, 1), Constraint.le(i * 2, 1)])
        assert s.is_empty()


class TestAlgebra:
    def test_intersect(self):
        a = IntSet.box(["i"], [(0, 10)])
        b = IntSet.box(["i"], [(5, 20)])
        assert a.intersect(b).count() == 6

    def test_intersect_dim_mismatch(self):
        with pytest.raises(PolyhedralError):
            IntSet.universe(["i"]).intersect(IntSet.universe(["j"]))

    def test_fix(self):
        s = triangle(4).fix("i", 2)
        assert list(s.points()) == [(2, 0), (2, 1), (2, 2)]

    def test_fix_unknown_dim(self):
        with pytest.raises(PolyhedralError):
            triangle().fix("z", 0)

    def test_rename_dims(self):
        s = triangle(2).rename_dims({"i": "x", "j": "y"})
        assert s.dims == ("x", "y")
        assert s.count() == triangle(2).count()

    def test_eliminate_is_sound(self):
        s = triangle(4)
        shadow = s.eliminate("j")
        for p in s.points():
            assert shadow.contains((p[0],))

    def test_project_onto_reorders(self):
        s = triangle(4)
        proj = s.project_onto(["j"])
        assert proj.dims == ("j",)
        for p in s.points():
            assert proj.contains((p[1],))

    def test_project_unknown_dim(self):
        with pytest.raises(PolyhedralError):
            triangle().project_onto(["z"])

    def test_bounding_box(self):
        box = triangle(4).bounding_box()
        assert box[0] == (0, 4)
        assert box[1][0] <= 0 and box[1][1] >= 4

    def test_bounding_box_empty(self):
        with pytest.raises(EmptySetError):
            IntSet(
                ["i"], [Constraint.ge(i, 5), Constraint.le(i, 3)]
            ).bounding_box()


class TestStrided:
    def test_strided_set(self):
        # i = 3t, 0 <= t <= 4 encoded as 0 <= i, 3t == i.
        t = AffineExpr.var("t")
        s = IntSet(
            ["t", "i"],
            [Constraint.ge(t, 0), Constraint.le(t, 4), Constraint.eq(i, t * 3)],
        )
        assert [p[1] for p in s.points()] == [0, 3, 6, 9, 12]

    def test_coefficient_bounds(self):
        # 3i <= 10 means i <= 3.
        s = IntSet(["i"], [Constraint.ge(i, 0), Constraint.le(i * 3, 10)])
        assert s.count() == 4


class TestDunder:
    def test_equality(self):
        assert triangle(3) == triangle(3)
        assert triangle(3) != triangle(4)

    def test_hash(self):
        assert hash(triangle(3)) == hash(triangle(3))

    def test_repr(self):
        assert "i" in repr(triangle())
