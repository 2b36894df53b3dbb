"""Differential tests: the batched simulation backend vs the oracle.

Every test here asserts *bit-identity* — full :class:`SimResult`
equality plus final per-component cache state (hits, misses, evictions
and the resident dicts with their LRU order) — between the per-access
oracle engine (``backend="python"``) and the batched engine, across
machines with shared and fully private hierarchies, randomized plans and
quantum settings.  The kernel-level tests additionally compare the
vectorized LRU pass against the dict reference on adversarial streams.

These run under tier-1 with and without numpy (the no-numpy CI job
exercises the batched *scalar* engine through the same assertions).
"""

import random

import pytest

from repro import kernels
from repro.errors import KernelError, SimulationError
from repro.lang import compile_source
from repro.kernels import cachesim as kc
from repro.mapping.baselines import base_plan, base_plus_plan, chunk_iterations
from repro.mapping.distribute import ExecutablePlan
from repro.runtime import execute_program
from repro.sim.cachesim import SetAssociativeCache
from repro.sim.engine import SIM_BACKENDS, SimConfig, simulate_plan
from repro.sim.hierarchy import MachineSim
from repro.topology.cache import CacheSpec
from repro.topology.machines import dunnington, harpertown, nehalem
from repro.topology.tree import Machine, TopologyNode

HAVE_NUMPY = kernels.have_numpy()
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def _private_machine() -> Machine:
    """Four cores, private L1+L2, memory root — the pure-batch regime."""
    l1 = CacheSpec("L1", 1024, 2, 32, 2)
    l2 = CacheSpec("L2", 4096, 4, 32, 8)
    cores = [TopologyNode.core(i) for i in range(4)]
    l1s = [TopologyNode.cache(l1, [c]) for c in cores]
    l2s = [TopologyNode.cache(l2, [n]) for n in l1s]
    return Machine("priv4", 1.0, 60, TopologyNode.memory(l2s), sockets=1)


def _machine_state(msim: MachineSim):
    return [
        (cache.hits, cache.misses, cache.evictions,
         [list(bucket) for bucket in cache.sets])
        for cache in msim.components.values()
    ]


def assert_engines_agree(plan, machine, **config_kwargs):
    """Oracle vs batched: same result, same final cache state."""
    oracle_sim = MachineSim(machine)
    batched_sim = MachineSim(machine)
    oracle = simulate_plan(
        plan, machine=machine,
        config=SimConfig(backend="python", **config_kwargs),
        machine_sim=oracle_sim,
    )
    batched = simulate_plan(
        plan, machine=machine,
        config=SimConfig(backend="auto", **config_kwargs),
        machine_sim=batched_sim,
    )
    assert oracle == batched
    assert _machine_state(oracle_sim) == _machine_state(batched_sim)
    return oracle


CONFIGS = (
    {},
    {"quantum": 1},
    {"quantum": 3, "issue_cycles": 0, "barrier_overhead": 7},
)


class TestBackendSelection:
    def test_backends_exported(self):
        assert SIM_BACKENDS == ("auto", "python", "numpy")

    def test_bad_backend_rejected(self):
        with pytest.raises(SimulationError):
            SimConfig(backend="bogus")

    def test_numpy_backend_without_numpy_raises(
        self, fig5_program, fig9_machine, monkeypatch
    ):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        plan = base_plan(fig5_program.nests[0], fig9_machine)
        with pytest.raises(KernelError):
            simulate_plan(plan, config=SimConfig(backend="numpy"))

    def test_port_occupancy_rejects_numpy_backend(
        self, fig5_program, fig9_machine
    ):
        plan = base_plan(fig5_program.nests[0], fig9_machine)
        with pytest.raises(SimulationError):
            simulate_plan(
                plan, config=SimConfig(port_occupancy=2, backend="numpy")
            )

    def test_port_occupancy_auto_uses_oracle(self, fig5_program, fig9_machine):
        plan = base_plan(fig5_program.nests[0], fig9_machine)
        via_auto = simulate_plan(
            plan, config=SimConfig(port_occupancy=2, backend="auto")
        )
        via_python = simulate_plan(
            plan, config=SimConfig(port_occupancy=2, backend="python")
        )
        assert via_auto == via_python


class TestDifferential:
    @pytest.mark.parametrize("config_kwargs", CONFIGS)
    @pytest.mark.parametrize("scheme", ["base", "base+"])
    def test_shared_hierarchy(
        self, fig5_program, fig9_machine, scheme, config_kwargs
    ):
        nest = fig5_program.nests[0]
        builder = base_plan if scheme == "base" else base_plus_plan
        plan = builder(nest, fig9_machine)
        result = assert_engines_agree(plan, fig9_machine, **config_kwargs)
        result.verify_conservation()

    @pytest.mark.parametrize("config_kwargs", CONFIGS)
    def test_private_hierarchy(self, stencil_program, config_kwargs):
        machine = _private_machine()
        plan = base_plan(stencil_program.nests[0], machine)
        result = assert_engines_agree(plan, machine, **config_kwargs)
        result.verify_conservation()

    def test_two_core_shared(self, stencil_program, two_core_machine):
        plan = base_plus_plan(stencil_program.nests[0], two_core_machine)
        assert_engines_agree(plan, two_core_machine)

    def test_commercial_machine(self, stencil_program):
        machine = harpertown().with_scaled_caches(1.0 / 256)
        plan = base_plan(stencil_program.nests[0], machine)
        assert_engines_agree(plan, machine, quantum=2)

    @pytest.mark.parametrize("quantum", [1, 8])
    @pytest.mark.parametrize("make_machine", [nehalem, dunnington])
    def test_commercial_machine_at_sim_scale(self, make_machine, quantum):
        """Shared L2/L3 suffixes replayed in oracle order, at the
        harness's 1/32 cache scale, on a stencil that overflows L1/L2."""
        program = compile_source(
            """
            array A[50][50];
            array B[48][48];
            parallel for (i = 0; i < 48; i++)
              for (j = 0; j < 48; j++)
                A[i + 1][j + 1] = B[i][j] + A[i][j + 1] + A[i + 2][j + 1];
            """,
            name="stencil48",
        )
        machine = make_machine().with_scaled_caches(1.0 / 32)
        plan = base_plan(program.nests[0], machine)
        result = assert_engines_agree(plan, machine, quantum=quantum)
        result.verify_conservation()

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_plans(self, stencil_program, fig9_machine, seed):
        """Shuffled iteration orders split into random multi-round plans."""
        nest = stencil_program.nests[0]
        rng = random.Random(seed)
        points = list(chunk_iterations(nest, 1)[0])
        rng.shuffle(points)
        num_cores = fig9_machine.num_cores
        num_rounds = rng.randrange(1, 4)
        rounds = [[[] for _ in range(num_rounds)] for _ in range(num_cores)]
        for point in points:
            rounds[rng.randrange(num_cores)][rng.randrange(num_rounds)].append(point)
        plan = ExecutablePlan.from_points(
            fig9_machine,
            nest,
            tuple(tuple(tuple(rnd) for rnd in core) for core in rounds),
            f"random-{seed}",
        )
        assert sorted(p for c in range(num_cores) for p in plan.core_iterations(c)) == (
            sorted(points)
        )
        config = rng.choice(CONFIGS)
        assert_engines_agree(plan, fig9_machine, **config)

    def test_warm_caches_program(self, stencil_program, fig9_machine):
        """Back-to-back plans on one shared MachineSim (warm-start path)."""
        nest = stencil_program.nests[0]
        plans = [base_plan(nest, fig9_machine), base_plus_plan(nest, fig9_machine)]

        def run(backend):
            return execute_program(
                plans, machine=fig9_machine,
                config=SimConfig(backend=backend), warm_caches=True,
            )

        assert run("python") == run("auto")


class TestScalarBatchedEngine:
    """The batched engine with numpy unavailable (the no-numpy CI path)."""

    def test_matches_oracle(self, stencil_program, fig9_machine, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        plan = base_plus_plan(stencil_program.nests[0], fig9_machine)
        assert_engines_agree(plan, fig9_machine, quantum=2)

    def test_private_machine(self, stencil_program, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        machine = _private_machine()
        plan = base_plan(stencil_program.nests[0], machine)
        assert_engines_agree(plan, machine)


@needs_numpy
class TestKernelDifferential:
    """The vectorized LRU pass vs the dict reference, stream by stream."""

    def _random_case(self, rng):
        ways = rng.choice([1, 2, 4])
        num_sets = rng.choice([1, 2, 4, 8])
        spec = CacheSpec("L1", num_sets * ways * 32, ways, 32, 2)
        return SetAssociativeCache(spec), SetAssociativeCache(spec)

    def _check(self, ref, vec, lines):
        import numpy as np

        ref_hits = [ref.access(line) for line in lines]
        vec_hits = kc.simulate_level(
            vec, np.array(lines, dtype=np.int64), use_numpy=True
        )
        assert list(vec_hits) == ref_hits
        assert (ref.hits, ref.misses, ref.evictions) == (
            vec.hits, vec.misses, vec.evictions,
        )
        assert [list(b) for b in ref.sets] == [list(b) for b in vec.sets]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams(self, seed, monkeypatch):
        monkeypatch.setattr(kc, "MIN_NUMPY_STREAM", 0)
        rng = random.Random(seed)
        ref, vec = self._random_case(rng)
        universe = rng.randrange(3, 50)
        lines = [rng.randrange(universe) for _ in range(rng.randrange(1, 500))]
        self._check(ref, vec, lines)

    @pytest.mark.parametrize("seed", range(4))
    def test_warm_start(self, seed, monkeypatch):
        """A second stream sees the first stream's resident state."""
        monkeypatch.setattr(kc, "MIN_NUMPY_STREAM", 0)
        rng = random.Random(1000 + seed)
        ref, vec = self._random_case(rng)
        for _ in range(3):
            lines = [rng.randrange(40) for _ in range(rng.randrange(1, 200))]
            self._check(ref, vec, lines)

    def test_guard_decline_is_exact(self, monkeypatch):
        """With the work guard forced to trip, the fallback still matches."""
        monkeypatch.setattr(kc, "MIN_NUMPY_STREAM", 0)
        monkeypatch.setattr(kc, "UNRESOLVED_WORK_FACTOR", 0)
        rng = random.Random(7)
        ref, vec = self._random_case(rng)
        # Medium-distance reuse mix: maximizes unresolved filter leftovers.
        lines = [rng.randrange(12) for _ in range(300)]
        kernels.reset_fallback_warnings()
        with pytest.warns(RuntimeWarning, match="sim-unresolved"):
            self._check(ref, vec, lines)

    def test_short_stream_uses_scalar(self):
        """Below MIN_NUMPY_STREAM the scalar loop runs — still exact."""
        spec = CacheSpec("L1", 256, 2, 32, 2)
        ref, vec = SetAssociativeCache(spec), SetAssociativeCache(spec)
        lines = [1, 2, 3, 1, 2, 9, 1, 17, 1]
        self._check(ref, vec, lines)
