"""End-to-end cache topology aware mapping (the paper's main pass).

:class:`TopologyAwareMapper` runs the full pipeline of Section 3:

1. pick a data block size (Section 4.1 heuristic, or caller-supplied);
2. partition the data into blocks and tag the iterations (Section 3.3);
3. analyze loop-carried dependences and lift them to group granularity,
   applying the chosen dependence policy (Section 3.5.2);
4. hierarchically distribute the groups down the cache tree (Figure 6);
5. schedule each core's groups (Figure 7), either locality-aware
   (``local_scheduling=True``, Section 3.5.3) or dependence-only (the
   paper's plain "Topology Aware" configuration).

The chain itself lives in :mod:`repro.pipeline` — this class is the
stable front door, binding a machine and a knob set and delegating to a
:class:`~repro.pipeline.core.MappingPipeline`.  By default every call
computes from scratch (no artifact store), preserving one-shot CLI
semantics and honest compile-time measurements; pass ``store=`` to
share stage artifacts across calls the way the experiment harness, the
service engine and the autotuner do.

The result is a :class:`MappingResult` whose :meth:`MappingResult.plan`
is directly executable on the simulator.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.errors import MappingError
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import GroupSet, IterationGroup, check_exact_cover
from repro.ir.loops import LoopNest, Program
from repro.mapping.dependence import GroupDependenceGraph
from repro.topology.tree import Machine


@dataclass(frozen=True)
class ExecutablePlan:
    """A fully ordered execution plan: per core, per round, iterations.

    A barrier synchronizes all cores between consecutive rounds.  This is
    the common currency between every mapping scheme (TopologyAware, Base,
    Base+, Local) and the simulator.
    """

    machine: Machine
    nest: LoopNest
    rounds: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]
    label: str

    @property
    def num_rounds(self) -> int:
        return max((len(core_rounds) for core_rounds in self.rounds), default=0)

    def core_iterations(self, core: int) -> list[tuple[int, ...]]:
        return [p for rnd in self.rounds[core] for p in rnd]

    def total_iterations(self) -> int:
        return sum(len(rnd) for core_rounds in self.rounds for rnd in core_rounds)

    def verify_complete(self) -> None:
        """Every iteration of K exactly once across all cores."""
        with obs.span("plan.verify", nest=self.nest.name) as sp:
            path = check_exact_cover(
                self.nest,
                [p for core_rounds in self.rounds for rnd in core_rounds for p in rnd],
                MappingError, "iteration {} scheduled twice",
                "plan covers {seen} iterations, space has {space}",
            )
            sp.tag(path=path)

    @staticmethod
    def from_group_rounds(
        machine: Machine,
        nest: LoopNest,
        group_rounds: Sequence[Sequence[Sequence[IterationGroup]]],
        label: str,
    ) -> "ExecutablePlan":
        rounds = tuple(
            tuple(
                tuple(p for g in rnd for p in g.iterations) for rnd in core_rounds
            )
            for core_rounds in group_rounds
        )
        return ExecutablePlan(machine, nest, rounds, label)


@dataclass
class MappingResult:
    """Everything the mapper produced, with phase timings for A2."""

    machine: Machine
    nest: LoopNest
    partition: DataBlockPartition
    group_set: GroupSet
    graph: GroupDependenceGraph | None
    assignments: list[list[IterationGroup]]
    group_rounds: list[list[list[IterationGroup]]]
    label: str
    timings: dict[str, float] = field(default_factory=dict)

    def plan(self) -> ExecutablePlan:
        return ExecutablePlan.from_group_rounds(
            self.machine, self.nest, self.group_rounds, self.label
        )

    def assignment_sizes(self) -> list[int]:
        return [sum(g.size for g in groups) for groups in self.assignments]

    @property
    def compile_time(self) -> float:
        return sum(self.timings.values())


class TopologyAwareMapper:
    """The paper's compiler pass, parameterized like its evaluation.

    Parameters mirror Section 4.1: ``balance_threshold`` defaults to 10%,
    ``alpha``/``beta`` to 0.5 each, the block size to the Section 4.1
    heuristic (capped at the paper's 2KB default).  ``local_scheduling``
    turns on the Figure 7 locality-aware scheduler (the paper's
    "combined" configuration); off, groups are ordered honoring
    dependences only (the paper's plain "Topology Aware").
    ``dependence_policy`` selects between the two Section 3.5.2 options:
    ``"barrier"`` (schedule with inter-core synchronization) or
    ``"co-cluster"`` (merge dependent groups; no synchronization needed).
    ``store`` (optional) is a :class:`~repro.pipeline.store.ArtifactStore`
    shared across calls for per-stage reuse; without one, every call
    computes the full chain.
    """

    def __init__(
        self,
        machine: Machine,
        block_size: int | None = None,
        balance_threshold: float = 0.10,
        alpha: float = 0.5,
        beta: float = 0.5,
        local_scheduling: bool = False,
        dependence_policy: str = "barrier",
        max_groups: int | None = 50_000,
        cluster_strategy: str = "greedy",
        store=None,
    ):
        from repro.pipeline.knobs import Knobs

        knobs = Knobs(
            block_size=block_size,
            balance_threshold=balance_threshold,
            alpha=alpha,
            beta=beta,
            local_scheduling=local_scheduling,
            dependence_policy=dependence_policy,
            cluster_strategy=cluster_strategy,
            max_groups=max_groups,
        )
        self.machine = machine
        self.knobs = knobs
        self.store = store

    def _pipeline(self):
        from repro.pipeline.core import MappingPipeline

        return MappingPipeline(self.machine, self.knobs, store=self.store)

    def map_program(self, program: Program) -> list[MappingResult]:
        """Map every nest of a program (each nest independently)."""
        return self._pipeline().map_program(program)

    def map_nest(self, program: Program, nest: LoopNest) -> MappingResult:
        return self._pipeline().map_nest(program, nest)
