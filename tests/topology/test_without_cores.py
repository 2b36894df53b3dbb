"""Pruning machines (core loss) and the level-uniformity predicate."""

import pytest

from repro.errors import TopologyError
from repro.topology.machines import machine_by_name

from tests.conftest import bench_machine


class TestWithoutCores:
    def test_empty_prune_returns_self(self):
        machine = bench_machine(8)
        assert machine.without_cores([]) is machine

    def test_removes_and_renumbers(self):
        machine = bench_machine(8)
        pruned = machine.without_cores([2, 5])
        assert pruned.num_cores == 6
        assert pruned.core_ids() == tuple(range(6))

    def test_name_records_lost_cores(self):
        pruned = bench_machine(8).without_cores([5, 2])
        assert pruned.name == "bench8-less2,5"

    def test_childless_caches_pruned(self):
        machine = bench_machine(8)
        # Cores 2 and 3 share one L2; losing both removes that L2 node.
        pruned = machine.without_cores([2, 3])
        l2_count = sum(
            1 for child in pruned.root.children if child.kind == "cache"
        )
        assert l2_count == len(machine.root.children) - 1

    def test_unknown_core_rejected(self):
        with pytest.raises(TopologyError, match="no such cores"):
            bench_machine(8).without_cores([42])

    def test_cannot_remove_every_core(self):
        with pytest.raises(TopologyError):
            bench_machine(8).without_cores(list(range(8)))

    def test_survivors_keep_cache_paths(self):
        machine = bench_machine(8)
        pruned = machine.without_cores([0])
        for core in pruned.core_ids():
            path = pruned.cache_path(core)
            assert path and path[0].spec.level == "L1"

    def test_total_cache_shrinks(self):
        machine = bench_machine(8)
        pruned = machine.without_cores([2, 3])
        assert pruned.total_cache_bytes() < machine.total_cache_bytes()


class TestLevelUniform:
    def test_builtin_machines_are_uniform(self):
        for name in ("arch-I", "arch-II", "dunnington"):
            assert machine_by_name(name).is_level_uniform()

    def test_pruning_one_core_breaks_uniformity(self):
        machine = bench_machine(8)
        assert machine.is_level_uniform()
        assert not machine.without_cores([2]).is_level_uniform()

    def test_symmetric_prune_can_stay_uniform(self):
        # Losing one core per L2 pair keeps every level's degree uniform.
        machine = bench_machine(8)
        pruned = machine.without_cores([1, 3, 5, 7])
        assert pruned.is_level_uniform()
        assert pruned.clustering_degrees() == (4, 1, 1)


class TestFirstSharedLevelGroups:
    def test_uniform_machine_unchanged(self):
        machine = bench_machine(8)
        groups = machine.first_shared_level_groups()
        assert groups == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_straggler_cores_become_singletons(self):
        # Losing core 3 leaves core 2 under a private (1-core) L2: it
        # must still appear in the grouping, as a singleton.
        pruned = bench_machine(8).without_cores([3])
        groups = pruned.first_shared_level_groups()
        covered = sorted(c for g in groups for c in g)
        assert covered == list(pruned.core_ids())
        assert (2,) in groups
