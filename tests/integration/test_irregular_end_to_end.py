"""Integration: the irregular suite maps and simulates end to end.

The registry's trace-tagged kernels (data-dependent subscripts through
recorded index arrays) must flow through the unmodified downstream
stages: tag from a trace, cluster, distribute, schedule, execute on the
simulator.  These tests pin the contract on a real registry workload —
same iteration multiset as Base, same access count, trace counters
emitted — rather than a synthetic nest, so a regression anywhere in the
frontend seam or the registry data shows up here.
"""

import pytest

from repro import obs
from repro.mapping import TopologyAwareMapper, base_plan
from repro.runtime import execute_plan
from repro.workloads import workload


@pytest.fixture(scope="module")
def spmv():
    """The cheapest irregular registry workload (16K iterations)."""
    return workload("spmv_random")


class TestIrregularMapping:
    def test_same_iteration_multiset_as_base(self, spmv, fig9_machine):
        nest = spmv.nest()
        mapper = TopologyAwareMapper(fig9_machine, block_size=spmv.block_size())
        ta = mapper.map_nest(spmv.program(), nest).plan()
        base = base_plan(nest, fig9_machine)
        reference = sorted(nest.iterations())
        for plan in (base, ta):
            flat = sorted(
                p for core in range(len(plan.rounds)) for p in plan.core_iterations(core)
            )
            assert flat == reference, plan.label

    def test_simulates_with_same_access_count(self, spmv, fig9_machine):
        nest = spmv.nest()
        mapper = TopologyAwareMapper(fig9_machine, block_size=spmv.block_size())
        ta = execute_plan(mapper.map_nest(spmv.program(), nest).plan())
        base = execute_plan(base_plan(nest, fig9_machine))
        assert ta.total_accesses == base.total_accesses
        assert ta.cycles > 0 and base.cycles > 0

    def test_trace_counters_emitted(self, spmv, fig9_machine):
        nest = spmv.nest()
        events = nest.iteration_count() * len(nest.accesses)
        with obs.tracing() as recorder:
            TopologyAwareMapper(
                fig9_machine, block_size=spmv.block_size()
            ).map_nest(spmv.program(), nest)
            counters = dict(recorder.counters)
        assert counters.get("tagging.trace.nests") == 1
        assert counters.get("tagging.trace.events") == events
        assert counters.get("tagging.trace.declined_affine", 0) >= 1
        assert counters.get("kernels.backend.trace") == 1
