"""Unit tests for memory layout and trace generation."""

import pytest

from repro.errors import SimulationError
from repro.ir.arrays import Array
from repro.mapping.baselines import base_plan
from repro.sim.trace import MemoryLayout, build_traces


class TestLayout:
    def test_line_aligned_bases(self):
        layout = MemoryLayout([Array("A", (10,), 8), Array("B", (4,), 8)], 64)
        assert layout.bases["A"] == 0
        assert layout.bases["B"] % 64 == 0
        assert layout.bases["B"] >= 80

    def test_no_overlap(self):
        arrays = [Array("A", (100,), 8), Array("B", (100,), 8)]
        layout = MemoryLayout(arrays, 64)
        assert layout.bases["B"] >= layout.bases["A"] + 800

    def test_duplicate_rejected(self):
        with pytest.raises(SimulationError):
            MemoryLayout([Array("A", (4,)), Array("A", (4,))], 64)

    def test_bad_line_size(self):
        with pytest.raises(SimulationError):
            MemoryLayout([Array("A", (4,))], 48)

    def test_address_of(self):
        layout = MemoryLayout([Array("A", (10,), 8)], 64)
        assert layout.address_of(Array("A", (10,), 8), 3) == 24

    def test_start_offset(self):
        layout = MemoryLayout([Array("A", (4,), 8)], 64, start=100)
        assert layout.bases["A"] == 128


class TestTraces:
    def test_trace_shape(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        plan = base_plan(nest, fig9_machine)
        layout = MemoryLayout.for_nest(nest, 32)
        traces = build_traces(plan, layout, 5)
        assert len(traces) == 4
        total = sum(len(lines) for core in traces for lines in core)
        assert total == nest.iteration_count() * len(nest.accesses)

    def test_addresses_match_accesses(self, fig4_program, fig9_machine):
        nest = fig4_program.nests[0]
        plan = base_plan(nest, fig9_machine)
        layout = MemoryLayout.for_nest(nest, 32)
        traces = build_traces(plan, layout, 5)
        # Reconstruct expected line for the first iteration of core 0.
        first = plan.core_iterations(0)[0]
        array = nest.accesses[0].array
        expected = (
            layout.bases[array.name]
            + nest.accesses[0].element_offset(first) * array.element_size
        ) >> 5
        assert traces[0][0][0] == expected

    def test_program_order_within_iteration(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        plan = base_plan(nest, fig9_machine)
        layout = MemoryLayout.for_nest(nest, 32)
        traces = build_traces(plan, layout, 5)
        refs = len(nest.accesses)
        first = plan.core_iterations(0)[0]
        got = traces[0][0][:refs]
        expected = [
            (layout.bases["B"] + a.element_offset(first) * 8) >> 5
            for a in nest.accesses
        ]
        assert got == expected


TRIANGLE = """
array A[16][16];
array x[16];
parallel for (i = 0; i < 16; i++)
  for (j = 0; j <= i; j++)
    A[i][j] = A[i][j] + x[j] + A[j][i];
"""


# Tagging a non-rectangular nest takes the scalar path and says so.
@pytest.mark.filterwarnings("ignore:repro.kernels. scalar fallback:RuntimeWarning")
class TestRunTraceDifferential:
    """``build_traces_numpy`` (one ``repeat`` + ``arange`` expansion per
    core, unravelled by the strides) against ``build_traces`` fed by the
    pure-Python codec: same lines, same order, same round boundaries."""

    @pytest.fixture(params=["affine", "indirect", "triangular"])
    def case(self, request, stencil_program):
        """``(nest, program, block size)``."""
        from repro.lang import compile_source
        from repro.workloads.registry import workload

        if request.param == "affine":
            return stencil_program.nests[0], stencil_program, 256
        if request.param == "indirect":
            app = workload("spmv_random")
            return app.nest(), app.program(), app.block_size()
        program = compile_source(TRIANGLE, name="triangle")
        return program.nests[0], program, 256

    def plans(self, nest, program, block_size, machine):
        import random

        from repro.mapping.distribute import ExecutablePlan, TopologyAwareMapper

        mapped = TopologyAwareMapper(machine, block_size=block_size, local_scheduling=True)
        points = list(nest.iterations())
        random.Random(7).shuffle(points)
        cores = machine.num_cores
        half = len(points) // (2 * cores)
        # Each core: its strided share of the shuffled points, in two rounds.
        shuffled = [
            [points[c::cores][:half], points[c::cores][half:]] for c in range(cores)
        ]
        return [
            base_plan(nest, machine),
            mapped.map_nest(program, nest).plan(),
            ExecutablePlan.from_points(machine, nest, shuffled, "shuffled"),
        ]

    def test_numpy_trace_equals_scalar(self, case, fig9_machine, monkeypatch):
        from repro import kernels
        from repro.kernels.cachesim import build_traces_numpy

        if not kernels.have_numpy():
            pytest.skip("numpy is not importable")
        nest, program, block_size = case
        layout = MemoryLayout.for_nest(nest, 32)
        for plan in self.plans(nest, program, block_size, fig9_machine):
            plan.verify_complete()
            streams, offsets = build_traces_numpy(plan, layout, 5)
            with monkeypatch.context() as patched:
                patched.setattr(kernels, "have_numpy", lambda: False)
                scalar = build_traces(plan, layout, 5)
            for core, rounds in enumerate(scalar):
                assert streams[core].tolist() == [line for rnd in rounds for line in rnd]
                bounds = [0]
                for rnd in rounds:
                    bounds.append(bounds[-1] + len(rnd))
                assert offsets[core] == bounds, plan.label
