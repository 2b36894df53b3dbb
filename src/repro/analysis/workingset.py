"""Working-set and replication analysis of executable plans.

Given any :class:`~repro.mapping.distribute.ExecutablePlan` (TopologyAware
or baseline) and a data-block partition, compute:

* the distinct data blocks each core touches (its block working set);
* the **replication factor** of each block — how many cache components at
  a given tree level will hold copies of it (Figure 3(b)'s waste);
* the **sharing matrix** — for every pair of cores, how many blocks they
  both touch, split into affinity pairs (they share a cache) and
  non-affinity pairs (the paper's constructive vs destructive distinction).

These are static predictions; the simulator confirms them dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.tags import dot, ones
from repro.mapping.distribute import ExecutablePlan
from repro.topology.tree import Machine
from repro.util.tables import format_table


def _core_tags(plan: ExecutablePlan, partition: DataBlockPartition) -> list[int]:
    """Bitset of blocks each core touches."""
    nest = plan.nest
    nest.validate_access_bounds()
    refs = [
        (offset, partition.blocks_of_array(name).start, partition.elements_per_block(name))
        for name, offset, _ in nest.offset_evaluators()
    ]
    tags = []
    for core in range(len(plan.rounds)):
        tag = 0
        for point in plan.core_iterations(core):
            for offset, first, per_block in refs:
                tag |= 1 << (first + offset(point) // per_block)
        tags.append(tag)
    return tags


def replication_factor(
    plan: ExecutablePlan, partition: DataBlockPartition, level: str
) -> float:
    """Mean number of ``level`` components holding each touched block.

    1.0 means every block lives under exactly one component of that level
    (no replication); Base distributions of mirrored kernels typically
    sit near 2.0 while TopologyAware returns to ~1.0.
    """
    return _replication(plan.machine, _core_tags(plan, partition), level)


def _replication(machine: Machine, tags: list[int], level: str) -> float:
    """:func:`replication_factor` from the per-core block tags."""
    component_tags = []
    for node in machine.cache_nodes():
        if node.spec.level != level:
            continue
        tag = 0
        for core in node.cores_below():
            if core < len(tags):
                tag |= tags[core]
        component_tags.append(tag)
    copies = 0
    all_blocks = 0
    for t in component_tags:
        all_blocks |= t
        copies += ones(t)
    touched = ones(all_blocks)
    return copies / touched if touched else 0.0


def sharing_matrix(
    plan: ExecutablePlan, partition: DataBlockPartition
) -> list[list[int]]:
    """``matrix[a][b]`` = number of blocks cores a and b both touch."""
    tags = _core_tags(plan, partition)
    n = len(tags)
    return [[dot(tags[a], tags[b]) for b in range(n)] for a in range(n)]


@dataclass(frozen=True)
class PlanAnalysis:
    """Summary statistics for one plan."""

    label: str
    core_block_counts: tuple[int, ...]
    replication: dict[str, float]
    affinity_sharing: int
    non_affinity_sharing: int

    @property
    def sharing_alignment(self) -> float:
        """Fraction of cross-core sharing that lands on affinity pairs.

        1.0 = every pair of cores that shares blocks also shares a cache
        (the paper's goal); low values mean destructive placement.
        """
        total = self.affinity_sharing + self.non_affinity_sharing
        return self.affinity_sharing / total if total else 1.0

    def table(self) -> str:
        rows = [
            ("cores (blocks each)", " ".join(str(c) for c in self.core_block_counts)),
        ]
        for level, factor in self.replication.items():
            rows.append((f"replication @ {level}", f"{factor:.2f}x"))
        rows.append(("sharing on affinity pairs", str(self.affinity_sharing)))
        rows.append(("sharing on non-affinity pairs", str(self.non_affinity_sharing)))
        rows.append(("sharing alignment", f"{100 * self.sharing_alignment:.0f}%"))
        return format_table(("metric", "value"), rows, title=f"plan analysis: {self.label}")


def analyze_plan(plan: ExecutablePlan, partition: DataBlockPartition) -> PlanAnalysis:
    """Full static analysis of a plan."""
    tags = _core_tags(plan, partition)
    machine = plan.machine
    n = len(tags)
    affinity = 0
    non_affinity = 0
    for a in range(n):
        for b in range(a + 1, n):
            shared = dot(tags[a], tags[b])
            if not shared:
                continue
            if machine.have_affinity(a, b):
                affinity += shared
            else:
                non_affinity += shared
    replication = {level: _replication(machine, tags, level) for level in machine.cache_levels()}
    return PlanAnalysis(
        label=plan.label,
        core_block_counts=tuple(ones(t) for t in tags),
        replication=replication,
        affinity_sharing=affinity,
        non_affinity_sharing=non_affinity,
    )
