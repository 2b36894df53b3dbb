"""Hierarchical, cache-topology-driven clustering (Figure 6).

The descent walks the cache hierarchy tree node by node, starting at the
root (last-level cache, or off-chip memory when several LLCs exist).  At
each node with several children the node's groups are clustered into as
many clusters as it has children, merging greedily by the tag dot product
— the paper's qualitative affinity measure — splitting when too few
clusters remain, and finally load balancing within the tunable threshold.
After the full descent the number of leaf clusters equals the core count,
and left-to-right tree order gives the core assignment.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro import obs
from repro.errors import MappingError
from repro.blocks.groups import IterationGroup
from repro.blocks.tags import dot
from repro.mapping.balance import Cluster, balance_clusters
from repro.topology.tree import Machine, TopologyNode


def cluster_one_level(
    groups: Sequence[IterationGroup], k: int, threshold: float
) -> list[Cluster]:
    """Cluster a set of iteration groups into exactly ``k`` clusters.

    Greedy agglomerative merging by maximum tag dot product (ties broken
    toward smaller combined size, then deterministically by group ids),
    followed by splitting when fewer than ``k`` clusters exist, and load
    balancing.

    The merge is deliberately *flat* (straight to ``k`` clusters), exactly
    as Figure 6 prescribes: a cache-tree node with high fan-out is
    clustered in one shot.  This is what makes the hierarchy depth matter
    (the paper's Figure 20): a deeper tree hands the algorithm a sequence
    of small-fan-out decisions instead of one noisy flat cut.
    """
    result = _cluster_to_k(groups, k)
    balance_clusters(result, threshold)
    return result


def cluster_weighted(
    groups: Sequence[IterationGroup],
    weights: Sequence[int],
    threshold: float,
) -> list[Cluster]:
    """Cluster into ``len(weights)`` clusters sized proportionally to ``weights``.

    Used by the descent when sibling subtrees own unequal core
    counts (a pruned tree after core loss, or an asymmetric hierarchy):
    the merge/split phase is shared with :func:`cluster_one_level`, then
    clusters are matched to weight slots largest-to-largest and
    rebalanced toward the proportional targets.
    """
    k = len(weights)
    if any(w <= 0 for w in weights):
        raise MappingError(f"cluster weights must be positive, got {list(weights)}")
    result = _cluster_to_k(groups, k)
    total = sum(c.size for c in result)
    wsum = sum(weights)
    targets = [total * w / wsum for w in weights]
    # Deterministic matching: heaviest cluster takes the heaviest target.
    slot_order = sorted(range(k), key=lambda i: (-targets[i], i))
    by_size = sorted(
        result, key=lambda c: (-c.size, min((g.ident for g in c.groups), default=-1))
    )
    slots: list[Cluster] = [None] * k  # type: ignore[list-item]
    for slot_index, cluster in zip(slot_order, by_size):
        slots[slot_index] = cluster
    balance_clusters(slots, threshold, targets)
    return slots


def _cluster_to_k(groups: Sequence[IterationGroup], k: int) -> list[Cluster]:
    """Greedy merge + split to exactly ``k`` clusters (no balancing)."""
    if k <= 0:
        raise MappingError("cluster count must be positive")
    clusters: list[Cluster | None] = [Cluster([g]) for g in groups]
    alive = len(clusters)
    if not clusters:
        # No groups at all (an already-empty branch of the descent): every
        # cluster is empty and the cores below it idle.
        return [Cluster() for _ in range(k)]

    # Lazy-deletion pair heap keyed by (-dot, combined size, ids).  Pairs
    # with zero affinity are left out: merging unrelated clusters is only a
    # packing decision, handled by the zero-affinity fallback below, and
    # skipping them keeps the heap near-linear for sparse sharing graphs.
    with obs.span("affinity.pairs", groups=len(clusters)) as affinity_span:
        heap: list[tuple[int, int, int, int]] = []
        for i in range(len(clusters)):
            tag_i = clusters[i].tag
            size_i = clusters[i].size
            for j in range(i + 1, len(clusters)):
                weight = dot(tag_i, clusters[j].tag)
                if weight > 0:
                    heap.append((-weight, size_i + clusters[j].size, i, j))
        heapq.heapify(heap)
        affinity_span.tag(pairs=len(heap))

    def push_pairs(new_index: int) -> None:
        new = clusters[new_index]
        for idx, other in enumerate(clusters):
            if other is None or idx == new_index:
                continue
            weight = dot(new.tag, other.tag)
            if weight > 0:
                heapq.heappush(
                    heap,
                    (-weight, new.size + other.size, min(idx, new_index), max(idx, new_index)),
                )

    while alive > k:
        merged = False
        while heap:
            _, __, i, j = heapq.heappop(heap)
            if clusters[i] is None or clusters[j] is None:
                continue
            a, b = clusters[i], clusters[j]
            clusters[i] = None
            clusters[j] = None
            combined = Cluster(a.groups + b.groups)
            clusters.append(combined)
            alive -= 1
            push_pairs(len(clusters) - 1)
            obs.count("cluster.merges")
            merged = True
            break
        if not merged:
            # Zero-affinity fallback: no sharing left anywhere; merge the
            # two smallest clusters (pure size packing).
            live = sorted(
                (idx for idx, c in enumerate(clusters) if c is not None),
                key=lambda idx: clusters[idx].size,
            )
            i, j = live[0], live[1]
            a, b = clusters[i], clusters[j]
            clusters[i] = None
            clusters[j] = None
            clusters.append(Cluster(a.groups + b.groups))
            alive -= 1
            push_pairs(len(clusters) - 1)
            obs.count("cluster.merges")
            obs.count("cluster.zero_affinity_merges")

    result = [c for c in clusters if c is not None]

    while len(result) < k:
        result.sort(key=lambda c: -c.size)
        big = result[0]
        if len(big.groups) >= 2:
            first, second = _split_cluster(big)
        else:
            group = big.groups[0] if big.groups else None
            if group is None or group.size < 2:
                # Nothing left to split: fewer iterations than clusters.
                # Pad with empty clusters — the surplus cores idle — so a
                # degenerate (but legal) tiny nest still maps.
                obs.count("cluster.idle_padding", k - len(result))
                result.extend(Cluster() for _ in range(k - len(result)))
                break
            left, right = group.split(group.size // 2)
            first, second = Cluster([left]), Cluster([right])
        obs.count("cluster.splits")
        result.remove(big)
        result.extend([first, second])

    return result


def _split_cluster(cluster: Cluster) -> tuple[Cluster, Cluster]:
    """Split a multi-group cluster into two size-balanced halves.

    Greedy first-fit-decreasing: largest groups first, each into the
    lighter half; keeps same-tag cohesion best-effort by seeding the halves
    with the two least-similar groups.
    """
    groups = sorted(cluster.groups, key=lambda g: (-g.size, g.ident))
    a, b = Cluster(), Cluster()
    for group in groups:
        target = a if a.size <= b.size else b
        target.add(group)
    return a, b


def hierarchical_distribute(
    groups: Sequence[IterationGroup],
    machine: Machine,
    threshold: float = 0.10,
    strategy: str = "greedy",
) -> list[list[IterationGroup]]:
    """Figure 6 end to end: groups -> per-core group lists.

    The descent walks the cache tree per *node*, from the root down: at
    every node with several children, the node's groups are clustered
    into one cluster per child and each cluster recurses into its child;
    single-child nodes (private caches) pass their groups straight
    through.  Clusters are sized equally when the children own equal
    core counts (:func:`cluster_one_level`) and proportionally to
    ``cores_below`` otherwise (:func:`cluster_weighted`), which covers
    trees pruned by core loss and asymmetric hierarchies.  Leaves
    collect in left-to-right order, i.e. the result has one list per
    core, indexed by core id.

    ``strategy`` selects the partitioner at equal-weight nodes:
    ``"greedy"`` is the paper's dot-product merge; ``"kl"`` additionally
    refines every two-way cut with Kernighan-Lin swaps (higher fan-outs
    always use the greedy merge).
    """
    if not groups:
        raise MappingError("no iteration groups to distribute")
    if strategy not in ("greedy", "kl"):
        raise MappingError(f"unknown clustering strategy {strategy!r}")

    def descend(node: TopologyNode, current: list[IterationGroup]) -> list[list[IterationGroup]]:
        if node.kind == "core":
            return [current]
        children = node.children
        if len(children) == 1:
            return descend(children[0], current)
        obs.count("cluster.levels")
        weights = [len(child.cores_below()) for child in children]
        if len(set(weights)) == 1:
            if strategy == "kl" and len(children) == 2 and len(current) >= 2:
                from repro.mapping.kl import cluster_one_level_kl

                clusters = cluster_one_level_kl(current, threshold)
            else:
                clusters = cluster_one_level(current, len(children), threshold)
        else:
            clusters = cluster_weighted(current, weights, threshold)
        out: list[list[IterationGroup]] = []
        for child, cluster in zip(children, clusters):
            out.extend(descend(child, list(cluster.groups)))
        return out

    with obs.span(
        "cluster.distribute",
        machine=machine.name,
        groups=len(groups),
        strategy=strategy,
    ):
        cluster_sets = descend(machine.root, list(groups))
        if len(cluster_sets) != machine.num_cores:
            raise MappingError(
                f"descent produced {len(cluster_sets)} clusters for "
                f"{machine.num_cores} cores"
            )
        return cluster_sets
