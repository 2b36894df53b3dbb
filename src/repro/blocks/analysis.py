"""The pluggable access-analysis seam of the mapping frontend.

Tagging — computing each iteration's data-block tag — is the first point
in the mapping pipeline that needs to *understand* a nest's references.
The paper's machinery only handles affine subscripts; this module turns
that assumption into an explicit seam with two interchangeable
implementations:

* :class:`AffineAnalysis` — the static path.  Resolves every reference to
  its closed linear offset form and runs the vectorized/scalar tagging
  kernels.  Selected whenever ``nest.is_affine()``; its output is pinned
  bit-identical to the pre-seam frontend by differential tests.
* :class:`TraceAnalysis` — the dynamic fallback.  Instruments a recorded
  execution of the nest (:func:`repro.sim.trace.record_access_offsets`)
  and derives the per-iteration tags from the observed element offsets.
  It accepts any nest; on affine nests it reproduces
  :class:`AffineAnalysis`'s groups bit-identically, which is what lets
  the two implementations share one ``TagArtifact`` fingerprint space.

The trace is deterministic (a pure function of the nest and its
index-array data) and bounded: its length is ``iterations x references``,
known before recording, and :data:`TRACE_EVENT_BUDGET` caps it the same
way ``max_groups`` caps group explosion.

:func:`select_analysis` picks the first implementation that accepts the
nest; :func:`repro.blocks.tagger.tag_iterations` — the single entry point
every caller (pipeline stage, monolithic mapper, locality baseline) goes
through — dispatches through it, so downstream stages (clustering,
distribution, scheduling, simulation) run on trace-derived tags without
modification.

Observability: trace-path selections emit ``tagging.trace.*`` counters —
``tagging.trace.nests`` (selections), ``tagging.trace.declined_affine``
(non-affine references that made the static path decline),
``tagging.trace.events`` (recorded trace length).  Trace tagging is the
designed path for irregular nests, so it raises no fallback warning.
"""

from __future__ import annotations

from repro import obs
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import GroupSet, IterationGroup
from repro.errors import BlockingError
from repro.ir.loops import LoopNest

#: Upper bound on recorded trace events (iterations x references).  Keeps
#: the fallback's cost predictable; nests beyond it must raise their block
#: size (fewer, coarser groups do not help — the trace length is fixed by
#: the nest), shrink the space, or stay affine.
TRACE_EVENT_BUDGET = 2_000_000


class AccessAnalysis:
    """Interface of a mapping-frontend access analysis."""

    #: Short identifier, used in spans/counters and documentation.
    name = "abstract"

    def analyzes(self, nest: LoopNest) -> bool:
        """True when this analysis can tag the nest."""
        raise NotImplementedError

    def tag(
        self,
        nest: LoopNest,
        partition: DataBlockPartition,
        max_groups: int | None = None,
        backend: str = "auto",
    ) -> GroupSet:
        """Partition the nest's iterations into groups by tag."""
        raise NotImplementedError


class AffineAnalysis(AccessAnalysis):
    """The paper's static path: closed offset forms + tagging kernels."""

    name = "affine"

    def analyzes(self, nest: LoopNest) -> bool:
        return nest.is_affine()

    def tag(
        self,
        nest: LoopNest,
        partition: DataBlockPartition,
        max_groups: int | None = None,
        backend: str = "auto",
    ) -> GroupSet:
        from repro.blocks.tagger import _tag_affine

        return _tag_affine(nest, partition, max_groups, backend)


class TraceAnalysis(AccessAnalysis):
    """Trace-based tagging: derive tags from a recorded execution.

    The recorded trace visits iterations in execution order and evaluates
    every reference concretely, so the bucketing below sees exactly the
    offsets the affine kernels would compute — grouping, write/read tag
    accumulation, and the first-iteration group order are copied from the
    scalar oracle verbatim, which is what makes the two paths
    fingerprint-compatible.
    """

    name = "trace"

    def __init__(self, max_events: int = TRACE_EVENT_BUDGET):
        self.max_events = max_events

    def analyzes(self, nest: LoopNest) -> bool:
        return True

    def tag(
        self,
        nest: LoopNest,
        partition: DataBlockPartition,
        max_groups: int | None = None,
        backend: str = "auto",
    ) -> GroupSet:
        if not nest.accesses:
            raise BlockingError(f"nest {nest.name!r} has no array accesses to tag")
        nest.validate_access_bounds()
        events = nest.iteration_count() * len(nest.accesses)
        if events > self.max_events:
            raise BlockingError(
                f"trace-based tagging of nest {nest.name!r} would record "
                f"{events} events, over the {self.max_events} budget"
            )
        from repro.sim.trace import record_access_offsets

        geometry = []
        for access in nest.accesses:
            first = partition.blocks_of_array(access.array.name).start
            per_block = partition.elements_per_block(access.array.name)
            geometry.append((first, per_block, access.is_write))

        with obs.span(
            "tag.iterations", nest=nest.name, iterations=nest.iteration_count()
        ) as sp:
            buckets: dict[int, list[tuple[int, ...]]] = {}
            write_tags: dict[int, int] = {}
            read_tags: dict[int, int] = {}
            for point, offsets in record_access_offsets(nest):
                tag = 0
                wtag = 0
                rtag = 0
                for offset, (first, per_block, is_write) in zip(offsets, geometry):
                    bit = 1 << (first + offset // per_block)
                    tag |= bit
                    if is_write:
                        wtag |= bit
                    else:
                        rtag |= bit
                bucket = buckets.get(tag)
                if bucket is None:
                    buckets[tag] = [point]
                    write_tags[tag] = wtag
                    read_tags[tag] = rtag
                    if max_groups is not None and len(buckets) > max_groups:
                        raise BlockingError(
                            f"tagging produced more than {max_groups} groups; "
                            "increase the data block size"
                        )
                else:
                    bucket.append(point)
                    write_tags[tag] |= wtag
                    read_tags[tag] |= rtag

            groups = [
                IterationGroup(tag, points, write_tags[tag], read_tags[tag])
                for tag, points in buckets.items()
            ]
            groups.sort(key=lambda g: g.iterations[0])
            result = GroupSet(nest, partition, groups)

            declined = sum(1 for a in nest.accesses if not a.is_affine)
            sp.tag(backend=self.name, groups=len(result.groups), trace_events=events)
            obs.count(f"kernels.backend.{self.name}")
            obs.count("tag.groups_formed", len(result.groups))
            obs.count("tagging.trace.nests")
            obs.count("tagging.trace.events", events)
            if declined:
                obs.count("tagging.trace.declined_affine", declined)
            return result


#: Registered analyses, in selection-priority order.
ANALYSES: tuple[AccessAnalysis, ...] = (AffineAnalysis(), TraceAnalysis())


def select_analysis(nest: LoopNest) -> AccessAnalysis:
    """The first registered analysis that accepts the nest."""
    for analysis in ANALYSES:
        if analysis.analyzes(nest):
            return analysis
    raise BlockingError(f"no access analysis accepts nest {nest.name!r}")
