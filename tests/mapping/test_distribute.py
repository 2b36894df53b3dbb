"""Unit tests for the end-to-end TopologyAwareMapper."""

import pytest

from repro import kernels, obs
from repro.errors import MappingError
from repro.mapping.distribute import ExecutablePlan, TopologyAwareMapper
from repro.obs.sinks import CollectorSink


class TestMapper:
    def test_fig5_on_fig9(self, fig5_program, fig9_machine):
        mapper = TopologyAwareMapper(fig9_machine, block_size=32)
        result = mapper.map_nest(fig5_program, fig5_program.nests[0])
        plan = result.plan()
        plan.verify_complete()
        assert len(result.assignments) == 4

    def test_default_block_size_uses_heuristic(self, fig5_program, fig9_machine):
        mapper = TopologyAwareMapper(fig9_machine)
        result = mapper.map_nest(fig5_program, fig5_program.nests[0])
        assert result.partition.block_size >= 64

    def test_balance(self, fig5_program, fig9_machine):
        mapper = TopologyAwareMapper(fig9_machine, block_size=32, balance_threshold=0.10)
        result = mapper.map_nest(fig5_program, fig5_program.nests[0])
        sizes = result.assignment_sizes()
        avg = sum(sizes) / len(sizes)
        assert max(sizes) - min(sizes) <= max(4, avg * 0.25)

    def test_timings_recorded(self, fig5_program, fig9_machine):
        mapper = TopologyAwareMapper(fig9_machine, block_size=32)
        result = mapper.map_nest(fig5_program, fig5_program.nests[0])
        assert set(result.timings) == {
            "partition", "tagging", "dependence", "clustering", "scheduling",
        }
        assert result.compile_time >= 0

    def test_local_scheduling_flattens_parallel(self, fig5_program, fig9_machine):
        mapper = TopologyAwareMapper(fig9_machine, block_size=32, local_scheduling=True)
        result = mapper.map_nest(fig5_program, fig5_program.nests[0])
        plan = result.plan()
        plan.verify_complete()
        # Parallel nest: no barriers even with scheduling on.
        assert plan.num_rounds == 1

    def test_dependent_nest_gets_rounds(self, dependent_program, two_core_machine):
        mapper = TopologyAwareMapper(two_core_machine, block_size=32)
        result = mapper.map_nest(dependent_program, dependent_program.nests[0])
        plan = result.plan()
        plan.verify_complete()
        assert result.graph is not None

    def test_co_cluster_policy(self, dependent_program, two_core_machine):
        mapper = TopologyAwareMapper(
            two_core_machine, block_size=32, dependence_policy="co-cluster"
        )
        result = mapper.map_nest(dependent_program, dependent_program.nests[0])
        result.plan().verify_complete()
        assert result.graph is None

    def test_unknown_policy(self, fig9_machine):
        with pytest.raises(MappingError):
            TopologyAwareMapper(fig9_machine, dependence_policy="yolo")

    def test_deterministic(self, fig5_program, fig9_machine):
        def run():
            mapper = TopologyAwareMapper(fig9_machine, block_size=32)
            result = mapper.map_nest(fig5_program, fig5_program.nests[0])
            return result.plan().rounds

        assert run() == run()


class TestExecutablePlan:
    def make_plan(self, fig5_program, fig9_machine, block=32):
        mapper = TopologyAwareMapper(fig9_machine, block_size=block)
        return mapper.map_nest(fig5_program, fig5_program.nests[0]).plan()

    def test_total_iterations(self, fig5_program, fig9_machine):
        plan = self.make_plan(fig5_program, fig9_machine)
        assert plan.total_iterations() == fig5_program.nests[0].iteration_count()

    def test_core_iterations(self, fig5_program, fig9_machine):
        plan = self.make_plan(fig5_program, fig9_machine)
        assert sum(len(plan.core_iterations(c)) for c in range(4)) == plan.total_iterations()

    def test_verify_detects_duplicates(self, fig5_program, fig9_machine):
        plan = self.make_plan(fig5_program, fig9_machine)
        dup = plan.rounds[0][0][0]
        rounds = ((plan.rounds[0][0] + (dup,),),) + plan.rounds[1:]
        bad = ExecutablePlan(plan.machine, plan.nest, rounds, "bad")
        with pytest.raises(MappingError):
            bad.verify_complete()

    def test_verify_detects_missing(self, fig5_program, fig9_machine):
        plan = self.make_plan(fig5_program, fig9_machine)
        rounds = ((plan.rounds[0][0][1:],),) + plan.rounds[1:]
        bad = ExecutablePlan(plan.machine, plan.nest, rounds, "bad")
        with pytest.raises(MappingError):
            bad.verify_complete()

    @pytest.fixture(params=["numpy", "set"])
    def cover_path(self, request, monkeypatch):
        """Run the test on the NumPy run codec and on the pure-Python one
        (the id ``"set"`` names the no-NumPy path, which once compared
        point sets)."""
        if request.param == "set":
            monkeypatch.setattr(kernels, "have_numpy", lambda: False)
        elif not kernels.have_numpy():
            pytest.skip("numpy is not importable")
        return request.param

    @pytest.fixture
    def stencil_plan(self, stencil_program, fig9_machine):
        mapper = TopologyAwareMapper(fig9_machine, block_size=64)
        return mapper.map_nest(stencil_program, stencil_program.nests[0]).plan()

    def test_verify_reports_path(self, stencil_plan, cover_path):
        """The ``plan.verify`` span reports how many runs it checked."""
        sink = CollectorSink()
        with obs.tracing(sink):
            stencil_plan.verify_complete()
        (span,) = [s for s in sink.spans() if s["name"] == "plan.verify"]
        assert span["tags"]["runs"] == stencil_plan.run_count() > 0
        assert "path" not in span["tags"]

    @pytest.mark.parametrize(
        "swap",
        [
            lambda i, j: (i - 1, j + 24),  # off the 24x24 box, same linear index
            lambda i, j: (i, j, 1),  # wrong arity
            lambda i, j: (i + 0.5, j),  # float: int64 conversion truncates it to (i, j)
            lambda i, j: (True, 1),  # bool: equals (1, 1), which is also scheduled
            lambda i, j: (2**63 + i, j),  # beyond int64
            lambda i, j: (1, 1),  # in the box, but also scheduled elsewhere
        ],
        ids=["out-of-box", "arity", "float", "bool", "int64-overflow", "duplicate"],
    )
    def test_verify_rejects_swapped_point(self, stencil_plan, cover_path, swap):
        """A plan whose expanded points have one point swapped for a bad
        one cannot be built, or fails its cover check."""
        plan = stencil_plan
        rounds = [
            [list(plan.points(core, r)) for r in range(len(core_rounds))]
            for core, core_rounds in enumerate(plan.rounds)
        ]
        first = rounds[0][0][0]
        assert first != (1, 1)
        rounds[0][0][0] = swap(*first)
        with pytest.raises(MappingError):
            ExecutablePlan.from_points(plan.machine, plan.nest, rounds, "bad").verify_complete()

    def test_num_rounds(self, fig5_program, fig9_machine):
        plan = self.make_plan(fig5_program, fig9_machine)
        assert plan.num_rounds >= 1
