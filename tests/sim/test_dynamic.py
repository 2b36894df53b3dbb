"""Unit tests for dynamic self-scheduling simulation."""

import pytest

from repro.errors import SimulationError
from repro.sim.dynamic import simulate_dynamic
from repro.sim.engine import SimConfig


class TestDynamic:
    def test_processes_every_access(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        result = simulate_dynamic(nest, fig9_machine, chunk_iterations=4)
        assert result.total_accesses == nest.iteration_count() * len(nest.accesses)
        result.verify_conservation()

    def test_dispatch_overhead_costs(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        cheap = simulate_dynamic(nest, fig9_machine, chunk_iterations=4, dispatch_overhead=0)
        costly = simulate_dynamic(nest, fig9_machine, chunk_iterations=4, dispatch_overhead=1000)
        assert costly.cycles > cheap.cycles

    def test_smaller_chunks_more_overhead(self, stencil_program, fig9_machine):
        nest = stencil_program.nests[0]
        fine = simulate_dynamic(nest, fig9_machine, chunk_iterations=2, dispatch_overhead=500)
        coarse = simulate_dynamic(nest, fig9_machine, chunk_iterations=64, dispatch_overhead=500)
        assert fine.cycles > coarse.cycles

    def test_invalid_args(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        with pytest.raises(SimulationError):
            simulate_dynamic(nest, fig9_machine, chunk_iterations=0)
        with pytest.raises(SimulationError):
            simulate_dynamic(nest, fig9_machine, dispatch_overhead=-1)

    def test_deterministic(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        a = simulate_dynamic(nest, fig9_machine, chunk_iterations=4)
        b = simulate_dynamic(nest, fig9_machine, chunk_iterations=4)
        assert a.cycles == b.cycles

    def test_config_issue_cycles(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        slow = simulate_dynamic(
            nest, fig9_machine, config=SimConfig(issue_cycles=10)
        )
        fast = simulate_dynamic(
            nest, fig9_machine, config=SimConfig(issue_cycles=0)
        )
        assert slow.cycles > fast.cycles

    def test_label(self, fig5_program, fig9_machine):
        assert simulate_dynamic(fig5_program.nests[0], fig9_machine).label == "dynamic"


#: simulate_dynamic with default chunking on sim-scaled dunnington:
#: (cycles, core cycles, per-level (name, hits, misses)).  Two affine and
#: two indirect nests, so both kinds of reference feed the line stream.
DYNAMIC_PINS = {
    "galgel": (
        396536,
        (393712, 393712, 396056, 396056, 392944, 392944,
         391656, 391656, 396536, 396536, 396488, 396488),
        (("L1", 250880, 35840), ("L2", 3072, 32768), ("L3", 8304, 24464)),
    ),
    "cg": (
        546304,
        (546304,) * 12,
        (("L1", 322560, 46080), ("L2", 6912, 39168), ("L3", 768, 38400)),
    ),
    "spmv_random": (
        252260,
        (250548, 252260, 250890, 246312, 247038, 242736,
         247732, 243580, 252182, 244520, 243990, 246722),
        (("L1", 88817, 75023), ("L2", 54221, 20802), ("L3", 7622, 13180)),
    ),
    "histogram": (
        390618,
        (386984, 386898, 390618, 390610, 390458, 386960,
         387078, 390360, 386944, 387158, 387004, 386662),
        (("L1", 183986, 78158), ("L2", 42301, 35857), ("L3", 15131, 20726)),
    ),
}


@pytest.mark.parametrize("name", sorted(DYNAMIC_PINS))
def test_registry_workload_matches_pin(name):
    from repro.experiments import harness
    from repro.topology.machines import dunnington
    from repro.workloads import workload

    result = simulate_dynamic(workload(name).nest(), harness.sim_machine(dunnington()))
    levels = tuple((s.level, s.hits, s.misses) for s in result.levels)
    assert (result.cycles, result.core_cycles, levels) == DYNAMIC_PINS[name]
