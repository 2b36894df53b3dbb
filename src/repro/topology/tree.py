"""The cache hierarchy tree ``T`` and the machine description ``A = {T, N}``.

The tree's root is the last-level cache; when a machine has several
last-level caches (both sockets carry one), off-chip memory is the root —
this is exactly the convention of Figure 6 in the paper.  Leaves are cores.

:class:`Machine` offers the queries the algorithms need:

* :meth:`Machine.clustering_degrees` — the per-level branching of a
  level-uniform tree ("NumClusters = degree of nodes at level");
* :meth:`Machine.affinity_level` — the latency of the fastest cache two
  cores share ("two cores have affinity at cache L if both have access to
  that cache", Section 2);
* :meth:`Machine.cache_path` — the chain of cache components a core's
  accesses traverse (drives the simulator wiring);
* :meth:`Machine.truncated` — a machine whose tree only distinguishes the
  first k cache levels (the L1+L2 / L1+L2+L3 versions of Figure 20).

:func:`machine_digest` is a machine's identity: a short structural
digest that every cache key, the service's topology key and the zoo
fixtures' pinned digests use.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import TopologyError
from repro.topology.cache import CacheSpec


@dataclass(frozen=True)
class TopologyNode:
    """One node of the cache hierarchy tree.

    ``kind`` is ``"memory"`` (only ever the root), ``"cache"`` or
    ``"core"``.  Cache nodes carry a :class:`CacheSpec`; core nodes carry a
    ``core_id``.  Every instance gets a unique ``uid`` so two same-spec
    caches remain distinct components.
    """

    kind: str
    spec: CacheSpec | None = None
    core_id: int | None = None
    children: tuple["TopologyNode", ...] = ()
    uid: int = field(default_factory=itertools.count().__next__)

    def __post_init__(self) -> None:
        if self.kind not in ("memory", "cache", "core"):
            raise TopologyError(f"unknown node kind {self.kind!r}")
        if self.kind == "cache" and self.spec is None:
            raise TopologyError("cache node requires a spec")
        if self.kind == "core":
            if self.core_id is None:
                raise TopologyError("core node requires a core_id")
            if self.children:
                raise TopologyError("core nodes are leaves")
        if self.kind in ("memory", "cache") and not self.children:
            raise TopologyError(f"{self.kind} node must have children")

    @staticmethod
    def core(core_id: int) -> "TopologyNode":
        return TopologyNode("core", core_id=core_id)

    @staticmethod
    def cache(spec: CacheSpec, children: Sequence["TopologyNode"]) -> "TopologyNode":
        return TopologyNode("cache", spec=spec, children=tuple(children))

    @staticmethod
    def memory(children: Sequence["TopologyNode"]) -> "TopologyNode":
        return TopologyNode("memory", children=tuple(children))

    def walk(self) -> Iterator["TopologyNode"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def cores_below(self) -> tuple[int, ...]:
        """Core ids in left-to-right order under this node."""
        if self.kind == "core":
            return (self.core_id,)
        out: list[int] = []
        for child in self.children:
            out.extend(child.cores_below())
        return tuple(out)


@dataclass(frozen=True)
class Machine:
    """A machine: name, clock, memory latency and the cache tree."""

    name: str
    clock_ghz: float
    memory_latency: int  # core cycles
    root: TopologyNode
    sockets: int = 2

    def __post_init__(self) -> None:
        cores = self.root.cores_below()
        if sorted(cores) != list(range(len(cores))):
            raise TopologyError(
                f"machine {self.name!r}: core ids must be 0..n-1 left to right, got {cores}"
            )
        if self.memory_latency <= 0:
            raise TopologyError(f"machine {self.name!r}: non-positive memory latency")

    # -- basic queries ---------------------------------------------------------

    @property
    def num_cores(self) -> int:
        return len(self.root.cores_below())

    def core_ids(self) -> tuple[int, ...]:
        return self.root.cores_below()

    def cache_levels(self) -> tuple[str, ...]:
        """Distinct cache level names, ordered from closest-to-core up."""
        names: list[str] = []
        for node in self.root.walk():
            if node.kind == "cache" and node.spec.level not in names:
                names.append(node.spec.level)
        return tuple(sorted(names, key=_level_rank))

    def cache_nodes(self) -> tuple[TopologyNode, ...]:
        return tuple(n for n in self.root.walk() if n.kind == "cache")

    def total_cache_bytes(self) -> int:
        return sum(n.spec.size_bytes for n in self.cache_nodes())

    def cache_path(self, core_id: int) -> tuple[TopologyNode, ...]:
        """Cache components a core's accesses traverse, L1 first."""
        path = self._path_to_core(core_id)
        caches = tuple(n for n in path if n.kind == "cache")
        return tuple(reversed(caches))

    def _path_to_core(self, core_id: int) -> tuple[TopologyNode, ...]:
        def rec(node: TopologyNode) -> tuple[TopologyNode, ...] | None:
            if node.kind == "core":
                return (node,) if node.core_id == core_id else None
            for child in node.children:
                sub = rec(child)
                if sub is not None:
                    return (node,) + sub
            return None

        path = rec(self.root)
        if path is None:
            raise TopologyError(f"no core {core_id} in machine {self.name!r}")
        return path

    # -- affinity ---------------------------------------------------------------

    def shared_cache(self, core_a: int, core_b: int) -> TopologyNode | None:
        """The fastest cache both cores access, or None (only memory shared)."""
        if core_a == core_b:
            path = self.cache_path(core_a)
            return path[0] if path else None
        path_a = self._path_to_core(core_a)
        path_b = self._path_to_core(core_b)
        set_b = {n.uid for n in path_b}
        shared = [n for n in path_a if n.kind == "cache" and n.uid in set_b]
        return shared[-1] if shared else None

    def affinity_level(self, core_a: int, core_b: int) -> int | None:
        """Latency of the fastest shared cache; None when none is shared."""
        node = self.shared_cache(core_a, core_b)
        return node.spec.latency if node is not None else None

    def have_affinity(self, core_a: int, core_b: int) -> bool:
        return self.shared_cache(core_a, core_b) is not None

    # -- clustering support -------------------------------------------------------

    def clustering_degrees(self) -> tuple[int, ...]:
        """Branching factors of the cache tree, level by level (Figure 6).

        Element ``k`` is the number of children each node has at depth
        ``k`` of the cache tree (root = depth 0).  Requires the tree to be
        level-uniform (see :meth:`is_level_uniform`); the Figure 6 descent
        itself walks the tree per node and needs no such shape.
        """
        degrees: list[int] = []
        frontier: list[TopologyNode] = [self.root]
        while frontier and frontier[0].kind != "core":
            degs = {len(node.children) for node in frontier}
            kinds = {node.kind for node in frontier}
            if len(degs) != 1 or len(kinds) != 1:
                raise TopologyError(
                    f"machine {self.name!r}: non-uniform tree level "
                    f"(degrees {degs}, kinds {kinds})"
                )
            degrees.append(degs.pop())
            frontier = [c for node in frontier for c in node.children]
        return tuple(degrees)

    def first_shared_level_groups(self) -> tuple[tuple[int, ...], ...]:
        """Core groups under each first (closest-to-core) *shared* cache.

        The local scheduler (Figure 7) walks "each shared cache S at the
        first shared cache level"; this returns, for each such cache, the
        cores below it.  When every cache is private the grouping degrades
        to one singleton group per core.
        """
        shared_nodes: list[TopologyNode] = []

        def rec(node: TopologyNode) -> None:
            if node.kind == "core":
                return
            for child in node.children:
                rec(child)
            # A shared cache has more than one core below it; keep the
            # *deepest* such nodes (closest to the cores).
            if node.kind == "cache" and len(node.cores_below()) > 1:
                if not any(
                    child.kind == "cache" and len(child.cores_below()) > 1
                    for child in node.children
                ):
                    shared_nodes.append(node)

        rec(self.root)
        if not shared_nodes:
            return tuple((c,) for c in self.core_ids())
        groups = [node.cores_below() for node in shared_nodes]
        # On a pruned/asymmetric tree a core can sit under no shared
        # cache at all (its sharing siblings are gone) while others
        # still do; such stragglers schedule as singleton sets so the
        # grouping always partitions the cores.
        covered = {c for g in groups for c in g}
        groups.extend((c,) for c in self.core_ids() if c not in covered)
        return tuple(sorted(groups))

    def is_level_uniform(self) -> bool:
        """True when :meth:`clustering_degrees` is well defined.

        A machine stops being level-uniform when cores are removed
        (:meth:`without_cores`) or an asymmetric hierarchy is described
        directly.
        """
        frontier: list[TopologyNode] = [self.root]
        while frontier and frontier[0].kind != "core":
            if len({len(n.children) for n in frontier}) != 1:
                return False
            if len({n.kind for n in frontier}) != 1:
                return False
            frontier = [c for node in frontier for c in node.children]
        return all(n.kind == "core" for n in frontier)

    # -- derived machines -----------------------------------------------------------

    def without_cores(self, dead: Sequence[int]) -> Machine:
        """Machine with the given cores removed (core loss / offline).

        Dead core leaves are pruned, caches left with nothing below them
        disappear, and the survivors are renumbered ``0..n-1`` in
        left-to-right tree order (the invariant every mapper query
        relies on).  Core ``k`` of the derived machine is therefore the
        ``k``-th surviving physical core; callers that need to talk
        about physical ids again (hot-plug) must keep the dead set
        themselves and re-derive from the base machine.
        """
        dead_set = frozenset(dead)
        if not dead_set:
            return self
        present = set(self.core_ids())
        unknown = sorted(dead_set - present)
        if unknown:
            raise TopologyError(f"machine {self.name!r}: no such cores {unknown}")
        survivors = [c for c in self.core_ids() if c not in dead_set]
        if not survivors:
            raise TopologyError(f"machine {self.name!r}: cannot remove every core")
        renumber = {old: new for new, old in enumerate(survivors)}

        def rebuild(node: TopologyNode) -> TopologyNode | None:
            if node.kind == "core":
                if node.core_id in dead_set:
                    return None
                return TopologyNode.core(renumber[node.core_id])
            children = [r for c in node.children if (r := rebuild(c)) is not None]
            if not children:
                return None
            if node.kind == "cache":
                return TopologyNode.cache(node.spec, children)
            return TopologyNode.memory(children)

        root = rebuild(self.root)
        assert root is not None  # survivors is non-empty
        suffix = ",".join(str(c) for c in sorted(dead_set))
        return Machine(
            f"{self.name}-less{suffix}",
            self.clock_ghz,
            self.memory_latency,
            root,
            self.sockets,
        )

    def truncated(self, keep_levels: int) -> Machine:
        """Machine whose tree only models the first ``keep_levels`` cache levels.

        Deeper caches are removed from the tree (their children are spliced
        into the parent), so the mapper no longer distinguishes them — this
        is how the L1+L2 and L1+L2+L3 versions of Figure 20 are produced.
        The physical machine is unchanged; only the mapper's view shrinks.
        """
        keep = set(self.cache_levels()[:keep_levels])

        def rebuild(node: TopologyNode) -> list[TopologyNode]:
            if node.kind == "core":
                return [TopologyNode.core(node.core_id)]
            children = [g for child in node.children for g in rebuild(child)]
            if node.kind == "cache" and node.spec.level not in keep:
                return children
            if node.kind == "cache":
                return [TopologyNode.cache(node.spec, children)]
            return [TopologyNode.memory(children)]

        rebuilt = rebuild(self.root)
        root = rebuilt[0] if len(rebuilt) == 1 and rebuilt[0].kind != "core" else TopologyNode.memory(rebuilt)
        return Machine(
            f"{self.name}-top{keep_levels}",
            self.clock_ghz,
            self.memory_latency,
            root,
            self.sockets,
        )

    def with_scaled_caches(self, factor: float) -> Machine:
        """Machine with every cache capacity scaled by ``factor`` (Figure 19)."""

        def rebuild(node: TopologyNode) -> TopologyNode:
            if node.kind == "core":
                return TopologyNode.core(node.core_id)
            children = [rebuild(c) for c in node.children]
            if node.kind == "cache":
                return TopologyNode.cache(node.spec.scaled(factor), children)
            return TopologyNode.memory(children)

        return Machine(
            f"{self.name}-x{factor:g}",
            self.clock_ghz,
            self.memory_latency,
            rebuild(self.root),
            self.sockets,
        )

    def describe(self) -> str:
        """Human-readable summary (one line per distinct cache level)."""
        lines = [f"{self.name}: {self.num_cores} cores ({self.sockets} sockets), {self.clock_ghz}GHz"]
        by_level: dict[str, list[TopologyNode]] = {}
        for node in self.cache_nodes():
            by_level.setdefault(node.spec.level, []).append(node)
        for level in self.cache_levels():
            nodes = by_level[level]
            sharers = len(nodes[0].cores_below())
            shared = "private" if sharers == 1 else f"shared by {sharers} cores"
            lines.append(f"  {nodes[0].spec} x{len(nodes)} ({shared})")
        lines.append(f"  memory latency {self.memory_latency} cycles")
        return "\n".join(lines)


def _node_spec(node: TopologyNode):
    """Structural tuple for a tree node; deliberately excludes ``uid``
    (a process-local counter that must not leak into cross-process
    keys)."""
    if node.kind == "core":
        return ("core", node.core_id)
    children = tuple(_node_spec(child) for child in node.children)
    if node.kind == "cache":
        spec = node.spec
        return (
            "cache",
            spec.level,
            spec.size_bytes,
            spec.associativity,
            spec.line_size,
            spec.latency,
            children,
        )
    return ("memory", children)


@lru_cache(maxsize=256)
def machine_digest(machine: Machine) -> str:
    """Short structural digest of a machine (topology + timing)."""
    spec = (
        machine.name,
        machine.clock_ghz,
        machine.memory_latency,
        machine.sockets,
        _node_spec(machine.root),
    )
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:16]


def _level_rank(level: str) -> int:
    try:
        return int(level.lstrip("L"))
    except ValueError:
        return 99
