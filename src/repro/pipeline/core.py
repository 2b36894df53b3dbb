"""The staged pipeline driver (the paper's Section 3 chain, once).

:class:`MappingPipeline` runs the five stages —

    blocksize → tagging → dependence → distribute → schedule

— looking each stage up in the artifact store before computing it.  A
stage's key is ``(stage, program digest, nest, cumulative knob tuple,
machine fact, ident epoch)``.  The knob tuple is cumulative (see
:mod:`repro.pipeline.knobs`), so a run that differs from a cached one
only in a late knob replays every earlier stage from the store.  The
machine fact is only what the stage, or a stage upstream of it, reads
of the machine: ``blocksize`` reads the core-0 L1 capacity, and only
when ``block_size`` is unset (Section 4.1); ``tagging`` and
``dependence`` read no machine; ``distribute`` and ``schedule`` walk
the cache tree (Figures 6 and 7) and key on the machine digest.  So a
core loss, a hot-plug or a topology edit that keeps the L1 capacity
replays the first three stages through plain key hits.  The observable
behavior — span names, decision counters, the per-phase ``timings``
dict, and above all the produced plan — is bit-identical to the
monolithic ``TopologyAwareMapper.map_nest`` chain this driver replaced;
the differential suite in ``tests/pipeline/test_differential.py`` holds
it to that.

Stage bodies never mutate their inputs (the schedule copies assignment
lists before draining them; distribution builds fresh lists), so cached
artifacts are safely shared across runs, machines and threads.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro import obs
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.tagger import choose_block_size, tag_iterations
from repro.ir.loops import LoopNest, Program
from repro.mapping.clustering import hierarchical_distribute
from repro.mapping.dependence import (
    build_group_dependence_graph,
    merge_dependent_groups,
)
from repro.mapping.distribute import MappingResult
from repro.mapping.schedule import dependence_only_schedule, schedule_groups
from repro.pipeline.artifacts import (
    BlockChoice,
    DependenceArtifact,
    GroupArtifact,
    PlanArtifact,
    TagArtifact,
    TreeAssignment,
)
from repro.pipeline.knobs import STAGE_ORDER, Knobs
from repro.pipeline.store import ArtifactStore, ident_epoch
from repro.runtime.serialize import program_digest
from repro.topology.tree import Machine, machine_digest


class Stage:
    """One pipeline stage: a name, the obs span it emits, the timing key
    it reports under, and a pure compute function.

    ``compute`` receives ``(pipeline, program, nest, upstream, span)``
    where ``upstream`` maps stage names to their artifacts; it must not
    mutate any upstream artifact.  The knob subset a stage reads is
    declared in :data:`repro.pipeline.knobs.STAGE_KNOBS` and the machine
    fact it reads by :meth:`MappingPipeline.machine_fact`; the driver
    folds both into the stage's cache key.
    """

    __slots__ = ("name", "span_name", "timing_key", "compute")

    def __init__(
        self,
        name: str,
        span_name: str,
        timing_key: str,
        compute: Callable,
    ):
        self.name = name
        self.span_name = span_name
        self.timing_key = timing_key
        self.compute = compute

    def __repr__(self) -> str:
        return f"Stage({self.name!r})"


def _l1_bytes(machine: Machine) -> int:
    """Core 0's L1 capacity: all the §4.1 block-size heuristic reads."""
    return machine.cache_path(0)[0].spec.size_bytes


def _stage_blocksize(
    pipe: "MappingPipeline", program: Program, nest: LoopNest, upstream, sp
) -> BlockChoice:
    block_size = pipe.knobs.block_size
    if block_size is None:
        block_size = choose_block_size(program, nest, _l1_bytes(pipe.machine))
    arrays = [program.arrays[a.name] for a in nest.arrays()]
    return BlockChoice(block_size, DataBlockPartition(arrays, block_size))


def _stage_tagging(
    pipe: "MappingPipeline", program: Program, nest: LoopNest, upstream, sp
) -> TagArtifact:
    partition = upstream["blocksize"].partition
    group_set = tag_iterations(nest, partition, max_groups=pipe.knobs.max_groups)
    return TagArtifact(group_set)


def _stage_dependence(
    pipe: "MappingPipeline", program: Program, nest: LoopNest, upstream, sp
) -> DependenceArtifact:
    groups = list(upstream["tagging"].group_set.groups)
    graph = None
    if not nest.parallel:
        raw = build_group_dependence_graph(nest, groups)
        if pipe.knobs.dependence_policy == "co-cluster":
            merged = merge_dependent_groups(groups, raw)
            obs.count("dependence.co_cluster_merges", len(groups) - len(merged))
            groups = merged
        else:
            groups, graph = raw.acyclified(groups)
        sp.tag(
            policy=pipe.knobs.dependence_policy,
            edges=graph.num_edges if graph is not None else 0,
        )
    return DependenceArtifact(GroupArtifact(tuple(groups)), graph)


def _stage_distribute(
    pipe: "MappingPipeline", program: Program, nest: LoopNest, upstream, sp
) -> TreeAssignment:
    knobs = pipe.knobs
    groups = list(upstream["dependence"].groups)
    assignments = hierarchical_distribute(
        groups, pipe.machine, knobs.balance_threshold, knobs.cluster_strategy
    )
    return TreeAssignment(tuple(tuple(core) for core in assignments))


def _stage_schedule(
    pipe: "MappingPipeline", program: Program, nest: LoopNest, upstream, sp
) -> PlanArtifact:
    knobs = pipe.knobs
    graph = upstream["dependence"].graph
    assignments = upstream["distribute"].assignments
    if knobs.local_scheduling:
        group_rounds = schedule_groups(
            assignments, pipe.machine, graph, knobs.alpha, knobs.beta
        )
        if graph is None or graph.num_edges == 0:
            # Dependence-free: the round structure only served the
            # scheduler's horizontal pacing; execution needs no
            # barriers, so flatten to one synchronization-free round
            # (pacing survives through the balanced sizes).
            group_rounds = [
                [[g for rnd in core_rounds for g in rnd]]
                for core_rounds in group_rounds
            ]
    else:
        group_rounds = dependence_only_schedule(assignments, pipe.machine, graph)
    label = "topology-aware+sched" if knobs.local_scheduling else "topology-aware"
    frozen = tuple(
        tuple(tuple(rnd) for rnd in core_rounds) for core_rounds in group_rounds
    )
    return PlanArtifact(frozen, label)


#: The five stages, in execution order.  Span and timing names are the
#: monolithic chain's — traces and the compile-time ablation read the
#: same keys they always did.
STAGES: tuple[Stage, ...] = (
    Stage("blocksize", "map.partition", "partition", _stage_blocksize),
    Stage("tagging", "map.tagging", "tagging", _stage_tagging),
    Stage("dependence", "map.dependence", "dependence", _stage_dependence),
    Stage("distribute", "map.clustering", "clustering", _stage_distribute),
    Stage("schedule", "map.scheduling", "scheduling", _stage_schedule),
)

assert tuple(s.name for s in STAGES) == STAGE_ORDER


class MappingPipeline:
    """Drives the staged chain with per-stage artifact caching.

    ``store=None`` disables stage reuse entirely (every stage computes);
    that is the mapper's default so one-shot CLI runs and the
    compile-time ablation keep honest timings, while the harness, the
    service engine, the remapper and the autotuner pass a shared
    :class:`~repro.pipeline.store.ArtifactStore`.
    """

    def __init__(
        self,
        machine: Machine,
        knobs: Knobs | None = None,
        store: ArtifactStore | None = None,
        observer: Callable[[str, bool], None] | None = None,
    ):
        self.machine = machine
        self.knobs = knobs if knobs is not None else Knobs()
        self.store = store
        # Per-pipeline stage observer: called as observer(stage_name,
        # hit) once per stage execution.  Unlike the global store
        # counters this is race-free under concurrent pipelines, which
        # is what the remapper's replayed/recomputed accounting needs.
        self.observer = observer

    # -- keys -----------------------------------------------------------

    def _base_key(self, program: Program, nest: LoopNest) -> tuple:
        return (program_digest(program), nest.name)

    def machine_fact(self, stage: str):
        """What ``stage`` and the stages upstream of it read of the machine.

        The machine digest of a tree-walking stage covers the L1
        capacity, so no stage needs more than one fact.
        """
        if stage in ("distribute", "schedule"):
            return machine_digest(self.machine)
        if self.knobs.block_size is None:
            return _l1_bytes(self.machine)
        return None

    def stage_key(self, stage: str, base: tuple) -> tuple:
        """The store key of one stage for one (program, nest).

        The ident epoch suffix makes keys from before an
        ``IterationGroup.reset_idents`` miss (their artifacts reference
        retired idents); it is process-local, hence excluded from the
        persistent tier's keys.
        """
        knobs = self.knobs.stage_tuple(stage)
        return (stage, *base, knobs, self.machine_fact(stage), ident_epoch())

    def plan_key(self, program: Program, nest: LoopNest) -> tuple:
        """The persistent plan tier's key: the schedule stage's key
        without the ident epoch (content only)."""
        return self.stage_key("schedule", self._base_key(program, nest))[:-1]

    # -- execution ------------------------------------------------------

    def _run_stage(
        self,
        stage: Stage,
        program: Program,
        nest: LoopNest,
        base: tuple,
        upstream: dict,
        timings: dict[str, float],
        span_kwargs: dict,
        tag_hit: Callable | None = None,
    ):
        key = self.stage_key(stage.name, base) if self.store is not None else None
        t0 = time.perf_counter()
        with obs.span(stage.span_name, **span_kwargs) as sp:
            artifact = self.store.get(key) if key is not None else None
            if self.observer is not None:
                self.observer(stage.name, artifact is not None)
            if artifact is not None:
                obs.count("pipeline.stage_hits")
                obs.count(f"pipeline.{stage.name}.hits")
                sp.tag(cache="hit")
                if tag_hit is not None:
                    tag_hit(sp, artifact)
            else:
                if self.store is not None:
                    obs.count("pipeline.stage_misses")
                    obs.count(f"pipeline.{stage.name}.misses")
                    sp.tag(cache="miss")
                artifact = stage.compute(self, program, nest, upstream, sp)
                if self.store is not None:
                    self.store.put(key, artifact)
        timings[stage.timing_key] = time.perf_counter() - t0
        upstream[stage.name] = artifact
        return artifact

    def map_nest(self, program: Program, nest: LoopNest) -> MappingResult:
        """Run (or replay) the chain for one nest."""
        timings: dict[str, float] = {}
        with obs.span(
            "map.nest",
            nest=nest.name,
            machine=self.machine.name,
            iterations=nest.iteration_count(),
        ) as sp:
            base = self._base_key(program, nest)
            upstream: dict = {}
            for stage in STAGES:
                span_kwargs: dict = {}
                if stage.name == "dependence":
                    span_kwargs = {"parallel": nest.parallel}
                elif stage.name == "schedule":
                    span_kwargs = {"local": self.knobs.local_scheduling}
                tag_hit = None
                if stage.name == "dependence" and not nest.parallel:
                    def tag_hit(span, artifact):
                        span.tag(
                            policy=self.knobs.dependence_policy,
                            edges=(
                                artifact.graph.num_edges
                                if artifact.graph is not None
                                else 0
                            ),
                        )
                self._run_stage(
                    stage, program, nest, base, upstream, timings, span_kwargs, tag_hit
                )
            block: BlockChoice = upstream["blocksize"]
            tag: TagArtifact = upstream["tagging"]
            sp.tag(groups=len(tag.group_set.groups), block_size=block.block_size)
            obs.count("map.nests_mapped")
        plan_art: PlanArtifact = upstream["schedule"]
        return MappingResult(
            self.machine,
            nest,
            block.partition,
            tag.group_set,
            upstream["dependence"].graph,
            [list(core) for core in upstream["distribute"].assignments],
            [[list(rnd) for rnd in core] for core in plan_art.group_rounds],
            plan_art.label,
            timings,
        )

    def map_program(self, program: Program) -> list[MappingResult]:
        """Map every nest of a program (each nest independently)."""
        return [self.map_nest(program, nest) for nest in program.nests]
