"""Backend selection and graceful-fallback behavior of the kernel layer."""

import pytest

from repro.errors import KernelError
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import IterationGroup
from repro.blocks.tagger import tag_iterations
from repro.ir.accesses import ArrayAccess
from repro.ir.arrays import Array
from repro.ir.loops import LoopNest
from repro.kernels import BACKENDS, have_numpy, resolve_backend
from repro.poly.affine import AffineExpr
from repro.poly.constraints import Constraint
from repro.poly.intset import IntSet


def square_nest(n=8, block_size=64):
    a = Array("A", (n, n))
    b = Array("B", (n, n))
    i, j = AffineExpr.var("i"), AffineExpr.var("j")
    dims = ("i", "j")
    space = IntSet.box(dims, [(0, n - 1), (0, n - 1)])
    accesses = [
        ArrayAccess(a, dims, (i, j), is_write=True),
        ArrayAccess(b, dims, (i, j)),
        ArrayAccess(b, dims, (j, i)),
    ]
    return LoopNest("square", space, accesses), DataBlockPartition((a, b), block_size)


def triangular_nest(n=8, block_size=64):
    """Lower-triangular space: 0 <= j <= i < n (not vectorizable)."""
    a = Array("A", (n, n))
    i, j = AffineExpr.var("i"), AffineExpr.var("j")
    dims = ("i", "j")
    space = IntSet(
        dims,
        [
            Constraint.ge(i, 0),
            Constraint.le(i, n - 1),
            Constraint.ge(j, 0),
            Constraint.le(j, i),
        ],
    )
    accesses = [ArrayAccess(a, dims, (i, j), is_write=True)]
    return LoopNest("tri", space, accesses), DataBlockPartition((a,), block_size)


def groupset_fingerprint(gs):
    return [
        (g.ident, g.tag, g.write_tag, g.read_tag, g.iterations) for g in gs.groups
    ]


class TestResolveBackend:
    def test_known_backends(self):
        assert set(BACKENDS) == {"auto", "python", "numpy"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            resolve_backend("cuda")

    def test_python_always_resolves(self):
        assert resolve_backend("python") == "python"

    def test_auto_prefers_numpy_when_available(self):
        expected = "numpy" if have_numpy() else "python"
        assert resolve_backend("auto") == expected
        assert resolve_backend() == expected

    def test_numpy_raises_when_unavailable(self, monkeypatch):
        import repro.kernels as kernels

        monkeypatch.setattr(kernels, "_numpy_probe", False)
        kernels.reset_fallback_warnings()
        with pytest.warns(RuntimeWarning, match="scalar fallback at resolve_backend"):
            assert resolve_backend("auto") == "python"
        with pytest.raises(KernelError, match="numpy is not importable"):
            resolve_backend("numpy")

    def test_probe_cache_is_consulted(self, monkeypatch):
        import repro.kernels as kernels

        monkeypatch.setattr(kernels, "_numpy_probe", True)
        assert resolve_backend("numpy") == "numpy"


class TestIndirectNestBackend:
    """An indirect nest resolves ``backend`` exactly as an affine one."""

    @pytest.fixture(params=["spmv_random", "galgel"])
    def tagged(self, request):
        from repro.workloads import workload

        app = workload(request.param)
        program, nest = app.program(), app.nest()
        arrays = [program.arrays[a.name] for a in nest.arrays()]
        return nest, DataBlockPartition(arrays, app.block_size())

    def test_unknown_backend_rejected(self, tagged):
        nest, part = tagged
        with pytest.raises(KernelError, match="unknown kernel backend"):
            tag_iterations(nest, part, backend="bogus")

    def test_numpy_without_numpy_rejected(self, tagged, monkeypatch):
        import repro.kernels as kernels

        nest, part = tagged
        monkeypatch.setattr(kernels, "have_numpy", lambda: False)
        with pytest.raises(KernelError, match="numpy is not importable"):
            tag_iterations(nest, part, backend="numpy")


@pytest.mark.skipif(not have_numpy(), reason="fallback paths need numpy present")
class TestGracefulFallback:
    def test_non_rectangular_returns_none(self):
        import warnings

        import repro.kernels as kernels
        from repro.kernels.tagging import tag_iterations_numpy

        nest, part = triangular_nest()
        kernels.reset_fallback_warnings()
        # The scalar tagger is the designed path for loop-variant bounds.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tag_iterations_numpy(nest, part) is None

    def test_numpy_backend_falls_back_silently_on_triangular(self):
        nest, part = triangular_nest()
        IterationGroup.reset_idents()
        scalar = tag_iterations(nest, part, backend="python")
        IterationGroup.reset_idents()
        via_numpy = tag_iterations(nest, part, backend="numpy")
        assert groupset_fingerprint(scalar) == groupset_fingerprint(via_numpy)

    def test_auto_matches_python_on_square(self):
        nest, part = square_nest()
        IterationGroup.reset_idents()
        scalar = tag_iterations(nest, part, backend="python")
        IterationGroup.reset_idents()
        auto = tag_iterations(nest, part, backend="auto")
        assert groupset_fingerprint(scalar) == groupset_fingerprint(auto)

    def test_wide_partition_tags_on_numpy(self):
        """Tag width has no limit: 18,432 blocks vectorize, silently."""
        import warnings

        import repro.kernels as kernels
        from repro import obs
        from repro.obs.sinks import CollectorSink

        nest, part = square_nest(n=96, block_size=8)
        assert part.num_blocks > 16_384
        IterationGroup.reset_idents()
        scalar = tag_iterations(nest, part, backend="python")
        IterationGroup.reset_idents()
        kernels.reset_fallback_warnings()
        col = CollectorSink()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with obs.tracing(col):
                wide = tag_iterations(nest, part, backend="numpy")
        assert col.summary()["counters"].get("kernels.backend.numpy") == 1
        assert groupset_fingerprint(scalar) == groupset_fingerprint(wide)

    def test_max_groups_limit_same_error(self):
        from repro.errors import BlockingError

        nest, part = square_nest(n=8, block_size=64)
        with pytest.raises(BlockingError, match="increase the data block size") as e1:
            tag_iterations(nest, part, max_groups=1, backend="python")
        with pytest.raises(BlockingError, match="increase the data block size") as e2:
            tag_iterations(nest, part, max_groups=1, backend="numpy")
        assert str(e1.value) == str(e2.value)

    def test_grid_empty_space(self):
        from repro.kernels.tagging import iteration_grid

        a = Array("A", (4,))
        i = AffineExpr.var("i")
        space = IntSet.box(("i",), [(3, 1)])
        nest = LoopNest("empty", space, [ArrayAccess(a, ("i",), (i,), is_write=True)])
        grid = iteration_grid(nest)
        assert grid is not None and grid.shape == (0, 1)
