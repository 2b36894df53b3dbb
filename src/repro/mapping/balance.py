"""Greedy load balancing of iteration-group clusters (Figure 6, lower box).

Given the clusters formed at one level of the hierarchy, equalize their
iteration counts to within the tunable balance threshold: repeatedly evict
an iteration group from an oversized cluster into an undersized one,
choosing the group whose tag has the largest dot product with the
recipient's tag; when no whole group fits the limits, split one (same-tag
sub-groups) so the sizes land inside the window.
"""

from __future__ import annotations

from repro import obs
from repro.errors import MappingError
from repro.blocks.groups import IterationGroup
from repro.blocks.tags import bitwise_sum, dot


class Cluster:
    """A mutable bag of iteration groups with cached tag and size."""

    __slots__ = ("groups", "tag", "size")

    def __init__(self, groups: list[IterationGroup] | None = None):
        self.groups: list[IterationGroup] = list(groups or [])
        self.tag = bitwise_sum(*(g.tag for g in self.groups))
        self.size = sum(g.size for g in self.groups)

    def add(self, group: IterationGroup) -> None:
        self.groups.append(group)
        self.tag |= group.tag
        self.size += group.size

    def remove(self, group: IterationGroup) -> None:
        self.groups.remove(group)
        self.size -= group.size
        self.tag = bitwise_sum(*(g.tag for g in self.groups))

    def __repr__(self) -> str:
        return f"Cluster({len(self.groups)} groups, {self.size} iters)"


def balance_limits(total: int, k: int, threshold: float) -> tuple[float, float]:
    """(LowLimit, UpLimit) around the per-cluster average."""
    if k <= 0:
        raise MappingError("cluster count must be positive")
    if not 0 <= threshold < 1:
        raise MappingError(f"balance threshold must be in [0, 1), got {threshold}")
    avg = total / k
    return avg * (1 - threshold), avg * (1 + threshold)


def balance_clusters(
    clusters: list[Cluster], threshold: float, targets: list[float] | None = None
) -> None:
    """Equalize cluster sizes in place to within ``threshold`` of their targets.

    Follows the paper's greedy scheme: evict from the most oversized
    cluster to a below-LowLimit one (falling back to the least filled),
    preferring the group maximizing the dot product with the recipient;
    split a group when no whole group keeps both clusters inside their
    windows.  The split fallback guarantees termination: each pass
    strictly shrinks the most oversized cluster until it is within its
    UpLimit.

    ``targets`` weights the clusters (``None``: equally).  The descent
    passes proportional targets when sibling subtrees own different core
    counts (a pruned tree after core loss, or an asymmetric hierarchy):
    cluster i's window is ``share_i * (1 +- threshold)``, with ``share_i``
    its target's share of the total iterations.
    """
    k = len(clusters)
    if targets is None:
        targets = [1] * k
    if k != len(targets):
        raise MappingError(f"{k} clusters but {len(targets)} targets")
    if k <= 1:
        return
    if not 0 <= threshold < 1:
        raise MappingError(f"balance threshold must be in [0, 1), got {threshold}")
    if any(t <= 0 for t in targets):
        raise MappingError("balance targets must be positive")
    total = sum(c.size for c in clusters)
    # With equal targets, scale is the common average total / k exactly.
    scale = total / sum(targets)
    limits = [(t * scale * (1 - threshold), t * scale * (1 + threshold)) for t in targets]

    guard = 0
    max_steps = 4 * k + 4 * sum(len(c.groups) for c in clusters) + 64
    with obs.span("balance", clusters=k, total=total, threshold=threshold) as sp:
        moves = splits = forced = 0
        while True:
            di = max(range(k), key=lambda i: clusters[i].size - limits[i][1])
            donor = clusters[di]
            low_d, up_d = limits[di]
            # Integer sizes vs. a fractional window: stop within one iteration
            # of the limit, otherwise 1-iteration moves can oscillate forever.
            if donor.size < up_d + 1:
                break
            guard += 1
            if guard > max_steps:
                raise MappingError("load balancing failed to converge")  # pragma: no cover
            under = [i for i in range(k) if clusters[i].size < limits[i][0]]
            pool = under or [i for i in range(k) if i != di]
            ri = min(pool, key=lambda i: (clusters[i].size - limits[i][0], i))
            recipient = clusters[ri]
            up_r = limits[ri][1]

            # A whole-group move is eligible when both ends stay in their windows.
            eligible = [
                g
                for g in donor.groups
                if donor.size - g.size >= low_d and recipient.size + g.size <= up_r
            ]
            if eligible:
                best = max(eligible, key=lambda g: (dot(g.tag, recipient.tag), g.size, -g.ident))
                donor.remove(best)
                recipient.add(best)
                moves += 1
                continue

            # Split: carve exactly enough iterations to pull the donor to its
            # target (and never overfill the recipient).
            need = min(int(donor.size - (low_d + up_d) / 2), int(up_r - recipient.size))
            need = max(1, need)
            candidates = [g for g in donor.groups if g.size > 1]
            if not candidates:
                # All groups are single iterations but none was eligible:
                # force-move the best single iteration group.
                best = max(donor.groups, key=lambda g: (dot(g.tag, recipient.tag), -g.ident))
                donor.remove(best)
                recipient.add(best)
                forced += 1
                continue
            victim = max(candidates, key=lambda g: (dot(g.tag, recipient.tag), g.size, -g.ident))
            cut = min(need, victim.size - 1)
            moved, kept = victim.split(cut)
            donor.remove(victim)
            donor.add(kept)
            recipient.add(moved)
            splits += 1
        sp.tag(moves=moves, splits=splits, forced=forced)
        obs.count("balance.moves", moves)
        obs.count("balance.splits", splits)
        obs.count("balance.forced_moves", forced)


def verify_balance(clusters: list[Cluster], threshold: float, slack: float = 0.0) -> bool:
    """True when every cluster is within the (threshold + slack) window.

    ``slack`` absorbs the +-1 iteration quantization of group splitting.
    """
    total = sum(c.size for c in clusters)
    low, up = balance_limits(total, len(clusters), threshold)
    return all(low - slack - 1 <= c.size <= up + slack + 1 for c in clusters)
