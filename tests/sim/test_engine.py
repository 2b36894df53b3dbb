"""Unit tests for the multicore simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.mapping.baselines import base_plan, chunk_iterations
from repro.mapping.distribute import ExecutablePlan, TopologyAwareMapper
from repro.sim.engine import SimConfig, simulate_plan


class TestConfig:
    def test_defaults_valid(self):
        SimConfig()

    def test_bad_quantum(self):
        with pytest.raises(SimulationError):
            SimConfig(quantum=0)

    def test_negative_costs(self):
        with pytest.raises(SimulationError):
            SimConfig(issue_cycles=-1)


class TestSimulation:
    def test_conservation(self, fig5_program, fig9_machine):
        plan = base_plan(fig5_program.nests[0], fig9_machine)
        result = simulate_plan(plan)
        result.verify_conservation()

    def test_total_accesses(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        plan = base_plan(nest, fig9_machine)
        result = simulate_plan(plan)
        assert result.total_accesses == nest.iteration_count() * len(nest.accesses)

    def test_deterministic(self, fig5_program, fig9_machine):
        plan = base_plan(fig5_program.nests[0], fig9_machine)
        assert simulate_plan(plan).cycles == simulate_plan(plan).cycles

    def test_cycles_at_least_issue_cost(self, fig5_program, fig9_machine):
        nest = fig5_program.nests[0]
        plan = base_plan(nest, fig9_machine)
        result = simulate_plan(plan, config=SimConfig(issue_cycles=1))
        per_core = nest.iteration_count() * len(nest.accesses) / 4
        assert result.cycles >= per_core

    def test_machine_override(self, fig5_program, fig9_machine, two_core_machine):
        nest = fig5_program.nests[0]
        plan = base_plan(nest, two_core_machine)
        result = simulate_plan(plan, machine=fig9_machine)
        assert result.machine_name == "fig9"

    def test_plan_larger_than_machine_rejected(self, fig5_program, fig9_machine, two_core_machine):
        plan = base_plan(fig5_program.nests[0], fig9_machine)
        with pytest.raises(SimulationError):
            simulate_plan(plan, machine=two_core_machine)

    def test_empty_plan(self, fig5_program, fig9_machine):
        plan = ExecutablePlan(fig9_machine, fig5_program.nests[0], ((), (), (), ()), "empty")
        result = simulate_plan(plan)
        assert result.cycles == 0 and result.total_accesses == 0

    def test_point_tuples_in_place_of_runs_rejected(self, stencil_program, fig9_machine):
        """A 2-D point ``(i, j)`` has the shape of a run; a plan built from
        points with the plain constructor must fail, not simulate."""
        nest = stencil_program.nests[0]
        chunks = chunk_iterations(nest, fig9_machine.num_cores)
        stale = ExecutablePlan(fig9_machine, nest, tuple((tuple(c),) for c in chunks), "stale")
        with pytest.raises(SimulationError):
            simulate_plan(stale)
        good = ExecutablePlan.from_points(fig9_machine, nest, [[c] for c in chunks], "good")
        assert good.rounds == base_plan(nest, fig9_machine).rounds
        simulate_plan(good)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda rnd: rnd + rnd[:1],  # an iteration twice
            lambda rnd: ((rnd[0][0], 0),) + rnd[1:],  # zero length
            lambda rnd: ((rnd[0][0], 10**6),) + rnd[1:],  # past the box
            lambda rnd: ((float(rnd[0][0]), rnd[0][1]),) + rnd[1:],  # not an int
        ],
        ids=["twice", "zero-length", "outside", "float"],
    )
    def test_malformed_runs_rejected(self, stencil_program, fig9_machine, mutate):
        plan = base_plan(stencil_program.nests[0], fig9_machine)
        rounds = ((mutate(plan.rounds[0][0]),),) + plan.rounds[1:]
        with pytest.raises(SimulationError):
            simulate_plan(ExecutablePlan(plan.machine, plan.nest, rounds, "bad"))

    def test_partial_plan_simulates(self, stencil_program, fig9_machine):
        plan = base_plan(stencil_program.nests[0], fig9_machine)
        partial = ExecutablePlan(plan.machine, plan.nest, plan.rounds[:1], "partial")
        result = simulate_plan(partial)
        assert result.total_accesses == len(plan.nest.accesses) * partial.total_iterations()
        assert 0 < partial.total_iterations() < plan.total_iterations()


class TestBarriers:
    def test_rounds_produce_barriers(self, dependent_program, two_core_machine):
        mapper = TopologyAwareMapper(two_core_machine, block_size=32)
        result = mapper.map_nest(dependent_program, dependent_program.nests[0])
        plan = result.plan()
        if plan.num_rounds > 1:
            sim = simulate_plan(plan)
            assert sim.barriers == plan.num_rounds - 1

    def test_barrier_overhead_increases_cycles(self, dependent_program, two_core_machine):
        mapper = TopologyAwareMapper(two_core_machine, block_size=32)
        plan = mapper.map_nest(dependent_program, dependent_program.nests[0]).plan()
        if plan.num_rounds > 1:
            cheap = simulate_plan(plan, config=SimConfig(barrier_overhead=0)).cycles
            costly = simulate_plan(plan, config=SimConfig(barrier_overhead=500)).cycles
            assert costly > cheap


class TestSharingEffects:
    """The physical effects the paper's motivation (Figure 3) describes."""

    def test_colocated_sharers_beat_separated(self, fig9_machine, fig5_program):
        """Figure 3(b): sharers on affinity cores avoid replication."""
        nest = fig5_program.nests[0]
        pts = list(nest.iterations())
        half = len(pts) // 2
        # Same iterations, two distributions: interleaved (sharers split
        # across non-affinity cores 0 and 2) vs paired (sharers on 0, 1).
        split = ExecutablePlan.from_points(
            fig9_machine, nest,
            ((tuple(pts[:half]),), (tuple(),), (tuple(pts[half:]),), (tuple(),)),
            "split",
        )
        paired = ExecutablePlan.from_points(
            fig9_machine, nest,
            ((tuple(pts[:half]),), (tuple(pts[half:]),), (tuple(),), (tuple(),)),
            "paired",
        )
        r_split = simulate_plan(split)
        r_paired = simulate_plan(paired)
        # The paired placement can share the L2; it must not lose.
        assert r_paired.level("L2").misses <= r_split.level("L2").misses

    def test_quantum_insensitivity(self, stencil_program, fig9_machine):
        # Interleaving granularity must not change the outcome materially
        # once traces are much longer than the quantum.
        plan = base_plan(stencil_program.nests[0], fig9_machine)
        a = simulate_plan(plan, config=SimConfig(quantum=1)).cycles
        b = simulate_plan(plan, config=SimConfig(quantum=16)).cycles
        assert abs(a - b) / max(a, 1) < 0.15
