"""Dependence-aware local iteration-group scheduling (Figure 7).

The scheduler orders the iteration groups assigned to each core in
*rounds*.  Within a round it walks the cores under each first-level shared
cache in order and picks, for every core, groups that

* depend only on groups scheduled in **previous** rounds (so a barrier
  after each round enforces every dependence), and
* maximize ``alpha * dot(tag, last group of the previous core)  +
  beta * dot(tag, last group of this core)`` — the horizontal (shared
  cache) and vertical (private L1) reuse terms of Section 3.5.3.

Round quotas follow the paper: the first core of a shared-cache set
catches up to the set's last core, each later core catches up to its left
neighbor, so iteration counts stay aligned and the barrier at the end of
each round is cheap.  A global progress fallback guarantees termination on
any acyclic dependence graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ScheduleError
from repro.blocks.groups import IterationGroup
from repro.blocks.tags import dot, ones
from repro.mapping.dependence import GroupDependenceGraph
from repro.topology.tree import Machine


@dataclass
class ScheduledCore:
    """Mutable per-core scheduling state."""

    core: int
    remaining: list[IterationGroup]
    rounds: list[list[IterationGroup]] = field(default_factory=list)
    scheduled_count: int = 0

    @property
    def last_group(self) -> IterationGroup | None:
        for rnd in reversed(self.rounds):
            if rnd:
                return rnd[-1]
        return None

    def flat_schedule(self) -> list[IterationGroup]:
        return [g for rnd in self.rounds for g in rnd]


def schedule_groups(
    assignments: Sequence[Sequence[IterationGroup]],
    machine: Machine,
    graph: GroupDependenceGraph | None = None,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> list[list[list[IterationGroup]]]:
    """Schedule per-core group lists into rounds.

    Returns ``result[core][round]`` = ordered groups that core executes in
    that round; a barrier separates consecutive rounds.  ``graph`` must be
    acyclic at group granularity (see
    :meth:`~repro.mapping.dependence.GroupDependenceGraph.acyclified`).
    """
    with obs.span(
        "schedule",
        cores=len(assignments),
        groups=sum(len(groups) for groups in assignments),
        alpha=alpha,
        beta=beta,
    ) as sp:
        result = _schedule_groups(assignments, machine, graph, alpha, beta)
        rounds = max((len(core_rounds) for core_rounds in result), default=0)
        sp.tag(rounds=rounds)
        obs.count("schedule.rounds", rounds)
        return result


def _schedule_groups(
    assignments: Sequence[Sequence[IterationGroup]],
    machine: Machine,
    graph: GroupDependenceGraph | None,
    alpha: float,
    beta: float,
) -> list[list[list[IterationGroup]]]:
    if len(assignments) != machine.num_cores:
        raise ScheduleError(
            f"{len(assignments)} assignments for {machine.num_cores} cores"
        )
    cores = [
        ScheduledCore(core, sorted(groups, key=lambda g: g.iterations[0]))
        for core, groups in enumerate(assignments)
    ]
    sets = machine.first_shared_level_groups()
    preds = graph.preds if graph is not None else {}
    # Load balancing may have split graph-node groups into same-origin
    # parts with fresh idents.  Translate the graph onto the parts: an
    # edge from origin p gates on *every* part of p, and parts of one
    # origin chain in lexicographic order (a split partitions the lex
    # order, so the chain preserves the group's internal dependences).
    # Without splits this reduces exactly to ``preds``.
    requirement_of: dict[int, tuple[int, ...]] = {}
    if graph is not None:
        parts_of: dict[int, list[IterationGroup]] = {}
        for groups in assignments:
            for g in groups:
                parts_of.setdefault(g.origin, []).append(g)
        for parts in parts_of.values():
            parts.sort(key=lambda g: g.iterations[0])
        for groups in assignments:
            for g in groups:
                req: list[int] = []
                for p in preds.get(g.origin, ()):
                    req.extend(part.ident for part in parts_of.get(p, ()))
                own = parts_of[g.origin]
                position = own.index(g)
                if position > 0:
                    req.append(own[position - 1].ident)
                requirement_of[g.ident] = tuple(req)

    prev_sched: set[int] = set()
    remaining_total = sum(len(c.remaining) for c in cores)

    def eligible(state: ScheduledCore, current_round: set[int]) -> list[IterationGroup]:
        out = []
        for group in state.remaining:
            requirement = requirement_of.get(group.ident, ())
            if all(p in prev_sched for p in requirement):
                out.append(group)
        return out

    while remaining_total > 0:
        current_round: set[int] = set()
        progressed = 0
        for core_set in sets:
            last = cores[core_set[-1]]
            for position, core_id in enumerate(core_set):
                state = cores[core_id]
                state.rounds.append([])
                if not state.remaining:
                    continue
                left = cores[core_set[position - 1]] if position > 0 else None

                def pick_best(candidates: list[IterationGroup]) -> IterationGroup:
                    left_last = left.last_group if left is not None else None
                    own_last = state.last_group

                    def score(group: IterationGroup) -> tuple:
                        horizontal = (
                            alpha * dot(group.tag, left_last.tag) if left_last is not None else 0.0
                        )
                        vertical = beta * dot(group.tag, own_last.tag) if own_last is not None else 0.0
                        return (horizontal + vertical, -ones(group.tag), -group.ident)

                    return max(candidates, key=score)

                # Quota: schedule at least one group, then keep catching up
                # to the pace setter (left neighbor; the first core chases
                # the set's last core, as in Figure 7).
                pace = last if position == 0 else left
                took = 0
                while True:
                    if not state.remaining:
                        break
                    if took > 0:
                        target = pace.scheduled_count if pace is not state else None
                        if target is None or state.scheduled_count >= target:
                            break
                    candidates = eligible(state, current_round)
                    if not candidates:
                        break
                    if state.last_group is None and position == 0 and took == 0:
                        # Very first pick on the set's lead core: the most
                        # local group (fewest 1 bits in its tag).
                        best = min(candidates, key=lambda g: (ones(g.tag), g.ident))
                    else:
                        best = pick_best(candidates)
                    state.remaining.remove(best)
                    state.rounds[-1].append(best)
                    state.scheduled_count += best.size
                    current_round.add(best.ident)
                    took += 1
                    progressed += 1
                    remaining_total -= 1

        if progressed == 0:
            # Deadlock under the quota rules: force one globally eligible
            # group (exists for any DAG) to guarantee termination.
            forced = False
            for state in cores:
                candidates = eligible(state, current_round)
                if candidates:
                    best = min(candidates, key=lambda g: g.ident)
                    state.remaining.remove(best)
                    state.rounds[-1].append(best)
                    state.scheduled_count += best.size
                    remaining_total -= 1
                    obs.count("schedule.forced_picks")
                    forced = True
                    break
            if not forced:
                raise ScheduleError(
                    "no schedulable group: the group dependence graph has a "
                    "cycle spanning cores (acyclify it first)"
                )
        prev_sched |= current_round

    # Trim trailing empty rounds and align round counts across cores.
    max_rounds = max((len(c.rounds) for c in cores), default=0)
    result: list[list[list[IterationGroup]]] = []
    for state in cores:
        rounds = state.rounds + [[] for _ in range(max_rounds - len(state.rounds))]
        result.append(rounds)
    while result and all(not rounds[-1] for rounds in result):
        for rounds in result:
            rounds.pop()
    return result


def dependence_only_schedule(
    assignments: Sequence[Sequence[IterationGroup]],
    machine: Machine,
    graph: GroupDependenceGraph | None = None,
) -> list[list[list[IterationGroup]]]:
    """Scheduling that honors dependences but ignores locality (α = β = 0).

    This is the default used by plain TopologyAware in the paper's
    evaluation: "once the iteration distribution is carried out, the
    iteration groups assigned to each core are scheduled considering only
    data dependencies".  Without dependences, each core gets a single
    round in assignment order (no barriers at all).
    """
    if graph is None or graph.num_edges == 0:
        with obs.span("schedule", cores=len(assignments), trivial=True) as sp:
            sp.tag(rounds=1)
            obs.count("schedule.rounds", 1)
            return [
                [sorted(groups, key=lambda g: g.iterations[0])] if groups else [[]]
                for groups in assignments
            ]
    return schedule_groups(assignments, machine, graph, alpha=0.0, beta=0.0)
