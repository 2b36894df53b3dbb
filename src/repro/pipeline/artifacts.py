"""Immutable, fingerprinted stage artifacts.

Each pipeline stage produces exactly one artifact; the driver caches
them in the artifact store under content-addressed keys.  Artifacts are
frozen dataclasses over already-immutable structures (``GroupSet``,
``IterationGroup``, ``DataBlockPartition`` all refuse mutation), so a
cached artifact can be shared freely between pipeline runs and service
worker threads.

Every artifact exposes :meth:`fingerprint`, a content digest that is
**identity-independent**: it is computed from tags, iteration tuples and
group *positions*, never from ``IterationGroup.ident`` (a process-local
counter that does not survive serialization — or even a test-suite ident
reset).  Two artifacts describing the same mapping state fingerprint
equal no matter which process, or which point in the ident sequence,
constructed them; the hypothesis round-trip suite in
``tests/pipeline/test_fingerprints.py`` pins this.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import GroupSet, IterationGroup
from repro.mapping.dependence import GroupDependenceGraph


def _digest(parts: Sequence) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]


def _group_spec(group: IterationGroup) -> tuple:
    """Identity-free content of one group (no ident)."""
    return (group.tag, group.write_tag, group.read_tag, group.iterations)


def group_specs(groups: Sequence[IterationGroup]) -> tuple[tuple, ...]:
    """Serializable, identity-free specs for a group sequence.

    The inverse is :func:`groups_from_specs`; the pair round-trips
    everything but the idents, which are reassigned on reconstruction.
    """
    return tuple(_group_spec(g) for g in groups)


def groups_from_specs(specs: Sequence[tuple]) -> list[IterationGroup]:
    """Rebuild groups from :func:`group_specs` output (fresh idents)."""
    return [
        IterationGroup(tag, [tuple(p) for p in iterations], wtag, rtag)
        for tag, wtag, rtag, iterations in specs
    ]


@dataclass(frozen=True)
class BlockChoice:
    """Stage 1 output: the resolved block size and the data partition.

    ``block_size`` is the Section 4.1 heuristic's pick when the knob was
    ``None``, else the knob itself — downstream stages never need to
    know which.
    """

    block_size: int
    partition: DataBlockPartition

    @cached_property
    def _fingerprint(self) -> str:
        arrays = tuple(
            (a.name, a.extents, a.element_size) for a in self.partition.arrays
        )
        return _digest(("blockchoice", self.block_size, arrays))

    def fingerprint(self) -> str:
        return self._fingerprint


@dataclass(frozen=True)
class TagArtifact:
    """Stage 2 output: the full tagging result (Section 3.3)."""

    group_set: GroupSet

    @property
    def partition(self) -> DataBlockPartition:
        return self.group_set.partition

    @cached_property
    def _fingerprint(self) -> str:
        return _digest(("tag", group_specs(self.group_set.groups)))

    def fingerprint(self) -> str:
        return self._fingerprint


@dataclass(frozen=True)
class GroupArtifact:
    """An immutable group sequence with an identity-free fingerprint.

    The dependence stage's groups differ from the tagging stage's when
    the policy merged anything (SCC super-groups under ``barrier``,
    connected components under ``co-cluster``); this wrapper is the
    common currency for "a frozen list of groups" between artifacts.
    """

    groups: tuple[IterationGroup, ...]

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    @cached_property
    def _fingerprint(self) -> str:
        return _digest(("groups", group_specs(self.groups)))

    def fingerprint(self) -> str:
        return self._fingerprint


@dataclass(frozen=True)
class DependenceArtifact:
    """Stage 3 output: policy-resolved groups plus the lifted DAG.

    ``graph`` is ``None`` for parallel nests and under the co-cluster
    policy (merging leaves nothing to synchronize).  Its edges reference
    the *idents* of ``groups`` — which is why the artifact carries both:
    they are only meaningful together.
    """

    groups: GroupArtifact
    graph: GroupDependenceGraph | None

    @cached_property
    def _fingerprint(self) -> str:
        return _digest(
            ("dependence", self.groups.fingerprint(), self.edge_indexes())
        )

    def fingerprint(self) -> str:
        return self._fingerprint

    def edge_indexes(self) -> tuple[tuple[int, int], ...]:
        """Graph edges as (position, position) pairs into ``groups`` —
        the identity-free form used by the fingerprint."""
        if self.graph is None:
            return ()
        position = {g.ident: i for i, g in enumerate(self.groups)}
        return tuple(
            sorted(
                (position[a], position[b])
                for a in self.graph.nodes
                for b in self.graph.succs[a]
                if a in position and b in position
            )
        )


@dataclass(frozen=True)
class TreeAssignment:
    """Stage 4 output: the per-core group assignment (Figure 6 + balance).

    Balance splits create new groups, so these are not necessarily a
    subset of the dependence artifact's; split children carry fresh
    idents absent from the dependence graph, which the scheduler treats
    as dependence-free — the same behavior the monolithic chain had.
    """

    assignments: tuple[tuple[IterationGroup, ...], ...]

    @cached_property
    def _fingerprint(self) -> str:
        return _digest(
            ("tree", tuple(group_specs(core) for core in self.assignments))
        )

    def fingerprint(self) -> str:
        return self._fingerprint


@dataclass(frozen=True)
class PlanArtifact:
    """Stage 5 output: ordered per-core rounds of groups plus the label.

    ``ExecutablePlan`` (the cross-scheme currency the simulator speaks)
    is derived from this via
    :meth:`~repro.mapping.distribute.ExecutablePlan.from_group_rounds`;
    the artifact keeps group granularity so a cached hit can still
    rebuild the full :class:`~repro.mapping.distribute.MappingResult`.
    """

    group_rounds: tuple[tuple[tuple[IterationGroup, ...], ...], ...]
    label: str

    @cached_property
    def _fingerprint(self) -> str:
        rounds = tuple(
            tuple(group_specs(rnd) for rnd in core) for core in self.group_rounds
        )
        return _digest(("plan", self.label, rounds))

    def fingerprint(self) -> str:
        return self._fingerprint
