"""The per-node Figure 6 descent on non-level-uniform machines
(weighted clustering + targeted balancing)."""

import pytest

from repro.blocks.groups import IterationGroup
from repro.errors import MappingError
from repro.mapping.balance import Cluster, balance_clusters
from repro.mapping.clustering import cluster_weighted, hierarchical_distribute

from tests.conftest import bench_machine


def group(tag, size=4, start=0):
    return IterationGroup(tag, [(start + k,) for k in range(size)])


def many_groups(n, size=4):
    return [group(1 << (k % 8), size=size, start=100 * k) for k in range(n)]


class TestBalanceToTargets:
    def test_proportional_targets_respected(self):
        clusters = [
            Cluster([group(0b1, 30, 0)]),
            Cluster([group(0b10, 30, 100)]),
        ]
        balance_clusters(clusters, targets=[2.0, 1.0], threshold=0.10)
        total = sum(c.size for c in clusters)
        assert total == 60
        # Cluster 0 should land near 2/3 of the weight.
        assert clusters[0].size == pytest.approx(40, abs=40 * 0.11)

    def test_target_count_mismatch(self):
        with pytest.raises(MappingError, match="targets"):
            balance_clusters([Cluster()], targets=[1.0, 1.0], threshold=0.1)

    def test_nonpositive_target_rejected(self):
        clusters = [Cluster([group(0b1, 4)]), Cluster([group(0b10, 4, 50)])]
        with pytest.raises(MappingError, match="positive"):
            balance_clusters(clusters, targets=[1.0, 0.0], threshold=0.1)

    def test_bad_threshold(self):
        clusters = [Cluster([group(0b1, 4)]), Cluster([group(0b10, 4, 50)])]
        with pytest.raises(MappingError, match="threshold"):
            balance_clusters(clusters, targets=[1.0, 1.0], threshold=1.0)

    def test_single_cluster_noop(self):
        cluster = Cluster([group(0b1, 8)])
        balance_clusters([cluster], targets=[1.0], threshold=0.1)
        assert cluster.size == 8

    def test_splits_when_group_too_large(self):
        clusters = [
            Cluster([group(0b1, 60, 0)]),
            Cluster([group(0b10, 3, 100)]),
        ]
        balance_clusters(clusters, targets=[1.0, 1.0], threshold=0.10)
        sizes = sorted(c.size for c in clusters)
        assert sum(sizes) == 63
        assert sizes[0] >= 63 / 2 * 0.9 - 1


class TestClusterWeighted:
    def test_sizes_follow_weights(self):
        groups = many_groups(12, size=5)
        clusters = cluster_weighted(groups, weights=[3, 1], threshold=0.10)
        assert len(clusters) == 2
        total = sum(c.size for c in clusters)
        assert clusters[0].size > clusters[1].size
        assert clusters[0].size == pytest.approx(total * 0.75, rel=0.15)

    def test_equal_weights_match_plain_count(self):
        groups = many_groups(8)
        clusters = cluster_weighted(groups, weights=[1, 1], threshold=0.10)
        assert len(clusters) == 2
        assert abs(clusters[0].size - clusters[1].size) <= sum(
            c.size for c in clusters
        ) * 0.11

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(MappingError, match="positive"):
            cluster_weighted(many_groups(4), weights=[1, -1], threshold=0.1)


class TestTreeDistribute:
    def test_pruned_machine_covers_all_cores(self):
        machine = bench_machine(8).without_cores([2])
        groups = many_groups(21)
        sets = hierarchical_distribute(groups, machine, threshold=0.10)
        assert len(sets) == machine.num_cores
        distributed = sorted(g.ident for s in sets for g in s)
        assert distributed == sorted(g.ident for g in groups)

    def test_unequal_subtrees_get_proportional_load(self):
        # bench8 minus one core: one L2 pair becomes a singleton.
        machine = bench_machine(8).without_cores([3])
        groups = many_groups(28, size=3)
        sets = hierarchical_distribute(groups, machine, threshold=0.10)
        sizes = [sum(g.size for g in s) for s in sets]
        total = sum(sizes)
        # Every core's share should be within a loose window of 1/7.
        for size in sizes:
            assert size == pytest.approx(total / machine.num_cores, rel=0.6)

    def test_dispatch_from_hierarchical(self):
        # The root of a pruned tree has children with unequal core
        # counts, so the descent's first cut is the weighted clustering:
        # each root child's cores receive exactly one of its clusters.
        machine = bench_machine(8).without_cores([2])
        children = machine.root.children
        weights = [len(child.cores_below()) for child in children]
        assert len(set(weights)) > 1
        groups = many_groups(14)
        sets = hierarchical_distribute(groups, machine, threshold=0.10)
        first_cut = cluster_weighted(groups, weights, threshold=0.10)

        def points(group_lists):
            return sorted(p for gs in group_lists for g in gs for p in g.iterations)

        for child, cluster in zip(children, first_cut):
            below = [sets[core] for core in child.cores_below()]
            assert points(below) == points([cluster.groups])

    def test_empty_groups_rejected(self):
        with pytest.raises(MappingError):
            hierarchical_distribute([], bench_machine(4))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(MappingError, match="strategy"):
            hierarchical_distribute(many_groups(4), bench_machine(4), strategy="anneal")

    def test_kl_strategy_works_on_pruned_tree(self):
        machine = bench_machine(8).without_cores([6])
        groups = many_groups(14)
        sets = hierarchical_distribute(groups, machine, threshold=0.10, strategy="kl")
        assert len(sets) == machine.num_cores
