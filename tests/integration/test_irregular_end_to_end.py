"""Integration: the irregular suite maps and simulates end to end.

The registry's irregular kernels (data-dependent subscripts through
recorded index arrays) must flow through the unmodified downstream
stages: tag, cluster, distribute, schedule, execute on the simulator.
These tests pin the contract on a real registry workload — same
iteration multiset as Base, same access count, the tagging backend and
indirect-reference count reported — rather than a synthetic nest, so a
regression anywhere in offset evaluation or the registry data shows up
here.
"""

import pytest

from repro import kernels, obs
from repro.ir.accesses import IndirectAccess
from repro.mapping import TopologyAwareMapper, base_plan
from repro.obs.sinks import CollectorSink
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
        sink = CollectorSink()
        with obs.tracing(sink) as recorder:
            TopologyAwareMapper(
                fig9_machine, block_size=spmv.block_size()
            ).map_nest(spmv.program(), nest)
            counters = dict(recorder.counters)
        backend = "numpy" if kernels.have_numpy() else "python"
        assert counters.get(f"kernels.backend.{backend}") == 1
        (tagging,) = [s for s in sink.spans() if s["name"] == "tag.iterations"]
        indirect = sum(isinstance(a, IndirectAccess) for a in nest.accesses)
        assert indirect >= 1
        assert tagging["tags"]["indirect"] == indirect
        assert tagging["tags"]["backend"] == backend
