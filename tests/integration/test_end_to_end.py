"""Integration: all schemes execute the same iterations; sane outcomes."""

import pytest

from repro.blocks.datablocks import DataBlockPartition
from repro.mapping import TopologyAwareMapper, base_plan, base_plus_plan, local_plan
from repro.runtime import execute_plan
from repro.sim.engine import SimConfig


@pytest.fixture(scope="module")
def reflected_program():
    from repro.lang import compile_source

    m = 4096
    return compile_source(
        f"""
        array Q[{m}];
        array F[{m}];
        parallel for (j = 0; j < {m}; j++)
          F[j] = F[j] + Q[j] + Q[{m - 1} - j];
        """,
        name="mini-namd",
    )


class TestSchemeAgreement:
    def test_same_iteration_multiset(self, reflected_program, fig9_machine):
        nest = reflected_program.nests[0]
        part = DataBlockPartition(list(reflected_program.arrays.values()), 1024)
        mapper = TopologyAwareMapper(fig9_machine, block_size=1024)
        plans = [
            base_plan(nest, fig9_machine),
            base_plus_plan(nest, fig9_machine),
            local_plan(nest, fig9_machine, part),
            mapper.map_nest(reflected_program, nest).plan(),
        ]
        reference = sorted(nest.iterations())
        for plan in plans:
            flat = sorted(
                p for core in range(len(plan.rounds)) for p in plan.core_iterations(core)
            )
            assert flat == reference, plan.label

    def test_same_access_count(self, reflected_program, fig9_machine):
        nest = reflected_program.nests[0]
        mapper = TopologyAwareMapper(fig9_machine, block_size=1024)
        counts = set()
        for plan in (base_plan(nest, fig9_machine), mapper.map_nest(reflected_program, nest).plan()):
            counts.add(execute_plan(plan).total_accesses)
        assert len(counts) == 1


class TestSharingOutcome:
    def test_topology_aware_improves_cache_behavior(self, reflected_program, fig9_machine):
        """On the reflected kernel, TopologyAware must not increase memory
        traffic and must convert some of it into cache hits (the mirrored
        sharers are co-located instead of replicated).  Blocks are sized
        well under the shared L2 so a group's working set fits."""
        nest = reflected_program.nests[0]
        base = execute_plan(base_plan(nest, fig9_machine))
        mapper = TopologyAwareMapper(
            fig9_machine,
            block_size=256,
            balance_threshold=0.02,
            local_scheduling=True,  # chains each mirror pair back to back
        )
        ta = execute_plan(mapper.map_nest(reflected_program, nest).plan())
        # Mirror sharers co-located and chained: second touches hit on-chip,
        # so memory traffic drops to (near) compulsory and cycles improve.
        assert ta.memory_accesses < base.memory_accesses
        assert ta.cycles < base.cycles

    def test_issue_cost_dominates_when_caches_huge(self, reflected_program, fig9_machine):
        big = fig9_machine.with_scaled_caches(64.0)
        nest = reflected_program.nests[0]
        result = execute_plan(base_plan(nest, big), config=SimConfig(issue_cycles=1))
        # Everything fits: misses are compulsory only.
        lines_touched = result.memory_accesses
        assert lines_touched <= (2 * 4096 * 8) // 32 + 2


class TestDependentEndToEnd:
    def test_dependent_loop_runs_with_barriers(self, dependent_program, two_core_machine):
        mapper = TopologyAwareMapper(two_core_machine, block_size=32, local_scheduling=True)
        result = mapper.map_nest(dependent_program, dependent_program.nests[0])
        plan = result.plan()
        plan.verify_complete()
        sim = execute_plan(plan, verify=True)
        assert sim.barriers == plan.num_rounds - 1

    def test_schedule_respects_group_dag(self, dependent_program, two_core_machine):
        mapper = TopologyAwareMapper(two_core_machine, block_size=32)
        result = mapper.map_nest(dependent_program, dependent_program.nests[0])
        graph = result.graph
        assert graph is not None
        round_of = {}
        for rounds in result.group_rounds:
            for idx, rnd in enumerate(rounds):
                for g in rnd:
                    round_of[g.ident] = idx
        core_of = {}
        for core, groups in enumerate(result.assignments):
            for g in groups:
                core_of[g.ident] = core
        for a in graph.nodes:
            for b in graph.succs[a]:
                if core_of.get(a) == core_of.get(b):
                    assert round_of[a] <= round_of[b]
                else:
                    assert round_of[a] < round_of[b]
