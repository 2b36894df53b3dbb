"""Unit tests for dependence analysis."""

import pytest

from repro.errors import IRError
from repro.ir.accesses import ArrayAccess
from repro.ir.arrays import Array
from repro.ir.dependences import (
    dependence_polyhedron,
    gcd_filter,
    has_loop_carried_dependence,
    iteration_dependences,
)
from repro.lang import compile_source
from repro.poly.affine import AffineExpr

i = AffineExpr.var("i")


class TestGcdFilter:
    def test_different_arrays_never_depend(self):
        a = ArrayAccess(Array("A", (8,)), ("i",), [i], is_write=True)
        b = ArrayAccess(Array("B", (8,)), ("i",), [i])
        assert not gcd_filter(a, b)

    def test_stride_parity_independence(self):
        # A[2i] vs A[2i+1]: even vs odd elements never meet.
        arr = Array("A", (32,))
        w = ArrayAccess(arr, ("i",), [i * 2], is_write=True)
        r = ArrayAccess(arr, ("i",), [i * 2 + 1])
        assert not gcd_filter(w, r)

    def test_compatible_strides_pass(self):
        arr = Array("A", (32,))
        w = ArrayAccess(arr, ("i",), [i * 2], is_write=True)
        r = ArrayAccess(arr, ("i",), [i * 2 + 4])
        assert gcd_filter(w, r)

    def test_constant_subscripts(self):
        arr = Array("A", (8,))
        a = ArrayAccess(arr, ("i",), [3], is_write=True)
        b = ArrayAccess(arr, ("i",), [4])
        assert not gcd_filter(a, b)
        assert gcd_filter(a, ArrayAccess(arr, ("i",), [3]))


class TestLoopCarried:
    def test_fully_parallel(self, fig4_program):
        assert not has_loop_carried_dependence(fig4_program.nests[0])

    def test_banded_dependence(self, fig5_program):
        assert has_loop_carried_dependence(fig5_program.nests[0])

    def test_reduction_dependence(self):
        prog = compile_source("array S[1]; array A[8]; for (i=0;i<8;i++) S[0] = S[0] + A[i];")
        assert has_loop_carried_dependence(prog.nests[0])

    def test_independent_writes(self):
        prog = compile_source("array A[8]; for (i=0;i<8;i++) A[i] = 1;")
        assert not has_loop_carried_dependence(prog.nests[0])

    def test_inner_level_dependence(self):
        prog = compile_source(
            "array A[8][8]; for (i=0;i<8;i++) for (j=1;j<8;j++) A[i][j] = A[i][j-1] + 1;"
        )
        assert has_loop_carried_dependence(prog.nests[0])


class TestDependencePairs:
    def test_flow_direction(self, dependent_program):
        pairs = list(iteration_dependences(dependent_program.nests[0]))
        assert pairs
        for pair in pairs:
            assert pair.source < pair.sink

    def test_distance(self, dependent_program):
        pairs = list(iteration_dependences(dependent_program.nests[0]))
        assert all(p.distance == (4,) for p in pairs if p.kind == "flow")

    def test_limit(self, dependent_program):
        assert len(list(iteration_dependences(dependent_program.nests[0], limit=3))) == 3

    def test_kinds_present(self, fig5_program):
        kinds = {p.kind for p in iteration_dependences(fig5_program.nests[0])}
        assert "flow" in kinds or "anti" in kinds

    def test_no_pairs_for_parallel(self, fig4_program):
        assert list(iteration_dependences(fig4_program.nests[0])) == []

    def test_polyhedron_level_semantics(self, dependent_program):
        nest = dependent_program.nests[0]
        w = nest.writes()[0]
        r = [a for a in nest.reads() if a.subscripts[0].coeff("j") == 1 and a.subscripts[0].constant == -4][0]
        poly = dependence_polyhedron(nest, w, r, 0)
        for point in poly.points():
            src, sink = point[0], point[1]
            assert src < sink and src == sink - 4


class TestIndirectBounds:
    SOURCE = """
        array X[4];
        array idx[4];
        for (i = 0; i < 4; i++)
          X[idx[i]] = X[idx[i]] + 1;
    """

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_out_of_range_index_raises(self, bad):
        """An index outside X must raise, not evaluate to a wrong (here
        empty) dependence set."""
        nest = compile_source(self.SOURCE, index_data={"idx": [0, 1, bad, 3]}).nests[0]
        with pytest.raises(IRError):
            list(iteration_dependences(nest))
        with pytest.raises(IRError):
            has_loop_carried_dependence(nest)

    def test_in_range_index_depends(self):
        nest = compile_source(self.SOURCE, index_data={"idx": [0, 1, 1, 3]}).nests[0]
        assert has_loop_carried_dependence(nest)
        assert [(p.source, p.sink) for p in iteration_dependences(nest)] == [((1,), (2,))]
