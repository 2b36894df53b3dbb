"""Unit tests for per-core code emission."""

from repro.mapping.distribute import TopologyAwareMapper
from repro.runtime.codeemit import compile_core, emit_core_sources, emit_plan_module


def make_plan(fig5_program, fig9_machine):
    mapper = TopologyAwareMapper(fig9_machine, block_size=32, local_scheduling=True)
    return mapper.map_nest(fig5_program, fig5_program.nests[0]).plan()


class TestEmission:
    def test_one_source_per_core(self, fig5_program, fig9_machine):
        plan = make_plan(fig5_program, fig9_machine)
        assert len(emit_core_sources(plan)) == 4

    def test_compiled_core_yields_its_iterations(self, fig5_program, fig9_machine):
        plan = make_plan(fig5_program, fig9_machine)
        for core in range(4):
            fn = compile_core(plan, core)
            iters = [payload for kind, payload in fn() if kind == "iter"]
            assert iters == plan.core_iterations(core)

    def test_2d_runs_unravel_to_the_plan_points(self, stencil_program, fig9_machine):
        """A 2-D box with non-zero lower bounds: each emitted loop turns
        its linear indices back into the plan's points, in order."""
        mapper = TopologyAwareMapper(fig9_machine, block_size=64, local_scheduling=True)
        plan = mapper.map_nest(stencil_program, stencil_program.nests[0]).plan()
        for core in range(4):
            fn = compile_core(plan, core)
            iters = [payload for kind, payload in fn() if kind == "iter"]
            assert iters == plan.core_iterations(core)

    def test_barrier_markers_match_rounds(self, dependent_program, two_core_machine):
        mapper = TopologyAwareMapper(two_core_machine, block_size=32)
        plan = mapper.map_nest(dependent_program, dependent_program.nests[0]).plan()
        fn = compile_core(plan, 0)
        barriers = [payload for kind, payload in fn() if kind == "barrier"]
        assert len(barriers) == plan.num_rounds - 1

    def test_module_has_dispatch_table(self, fig5_program, fig9_machine):
        plan = make_plan(fig5_program, fig9_machine)
        source = emit_plan_module(plan)
        namespace = {}
        exec(source, namespace)
        assert len(namespace["CORES"]) == 4
        all_iters = []
        for fn in namespace["CORES"]:
            all_iters += [p for kind, p in fn() if kind == "iter"]
        assert sorted(all_iters) == sorted(fig5_program.nests[0].iterations())

    def test_empty_core_emits_empty_generator(self, fig5_program, fig9_machine):
        from repro.mapping.distribute import ExecutablePlan

        nest = fig5_program.nests[0]
        pts = tuple(nest.iterations())
        plan = ExecutablePlan.from_points(
            fig9_machine, nest, ((pts,), ((),), ((),), ((),)), "lopsided"
        )
        fn = compile_core(plan, 1)
        assert list(fn()) == []
