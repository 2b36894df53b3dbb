"""Artifact fingerprints are identity-free and round-trip stable.

Fingerprints must depend only on content (tags, iteration tuples, group
positions) — never on ``IterationGroup.ident``, a process-local counter
that changes across processes and ident resets.  Hypothesis drives
random group populations through ``group_specs``/``groups_from_specs``
round-trips with an ident reset in between; every artifact type must
fingerprint identically on both sides.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.groups import IterationGroup
from repro.pipeline.artifacts import (
    GroupArtifact,
    PlanArtifact,
    TreeAssignment,
    group_specs,
    groups_from_specs,
)
from repro.poly.runs import RunCodec

points = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    min_size=1,
    max_size=6,
    unique=True,
)

group_spec = st.tuples(
    st.integers(0, 2**12),  # tag
    st.integers(0, 2**12),  # write tag
    st.integers(0, 2**12),  # read tag
    points,
)

specs_list = st.lists(group_spec, min_size=1, max_size=6)

#: The box every generated point lies in.
CODEC = RunCodec(((0, 40), (0, 40)))


def plan_runs(artifact: PlanArtifact) -> tuple:
    """The artifact's rounds as the runs a plan built from it holds."""
    return tuple(
        tuple(CODEC.encode([p for g in rnd for p in g.iterations]) for rnd in core)
        for core in artifact.group_rounds
    )


def rebuild(specs):
    """Fresh groups from specs, at a different point of the ident space."""
    IterationGroup.reset_idents(start=1000)
    return groups_from_specs(specs)


class TestRoundTrip:
    @given(specs_list)
    @settings(max_examples=60, deadline=None)
    def test_group_specs_round_trip(self, specs):
        groups = groups_from_specs(specs)
        assert group_specs(groups) == tuple(
            (tag, wtag, rtag, tuple(sorted(map(tuple, pts))))
            for tag, wtag, rtag, pts in specs
        )

    @given(specs_list)
    @settings(max_examples=60, deadline=None)
    def test_group_artifact_fingerprint_stable(self, specs):
        first = GroupArtifact(tuple(groups_from_specs(specs)))
        second = GroupArtifact(tuple(rebuild(specs)))
        idents_differ = [g.ident for g in first] != [g.ident for g in second]
        assert idents_differ
        assert first.fingerprint() == second.fingerprint()

    @given(specs_list)
    @settings(max_examples=40, deadline=None)
    def test_tree_assignment_fingerprint_stable(self, specs):
        def build():
            groups = groups_from_specs(specs)
            half = (len(groups) + 1) // 2
            return TreeAssignment(
                (tuple(groups[:half]), tuple(groups[half:]))
            )

        first = build()
        IterationGroup.reset_idents(start=5000)
        second = build()
        assert first.fingerprint() == second.fingerprint()

    @given(specs_list)
    @settings(max_examples=40, deadline=None)
    def test_plan_artifact_fingerprint_stable(self, specs):
        def build():
            groups = groups_from_specs(specs)
            return PlanArtifact(
                ((tuple(groups),), ()), "topology-aware"
            )

        first = build()
        IterationGroup.reset_idents(start=7777)
        second = build()
        assert first.fingerprint() == second.fingerprint()
        assert plan_runs(first) == plan_runs(second)

    @given(specs_list)
    @settings(max_examples=40, deadline=None)
    def test_content_change_changes_fingerprint(self, specs):
        groups = groups_from_specs(specs)
        tag, wtag, rtag, pts = specs[0]
        mutated_specs = ((tag + 1, wtag, rtag, pts),) + tuple(specs[1:])
        mutated = groups_from_specs(mutated_specs)
        assert (
            GroupArtifact(tuple(groups)).fingerprint()
            != GroupArtifact(tuple(mutated)).fingerprint()
        )


class TestPipelineArtifactsStable:
    def test_real_chain_fingerprints_survive_reset(
        self, fig9_machine, fig5_program
    ):
        """End-to-end: every stage artifact of a real run fingerprints
        the same after an ident reset (the property the persistent plan
        tier's epoch-free keys rely on)."""
        from repro.pipeline import ArtifactStore, Knobs, MappingPipeline

        knobs = Knobs(block_size=32, local_scheduling=True)
        nest = fig5_program.nests[0]

        def fingerprints():
            store = ArtifactStore()
            pipe = MappingPipeline(fig9_machine, knobs, store=store)
            pipe.map_nest(fig5_program, nest)
            base = pipe._base_key(fig5_program, nest)
            return tuple(
                store.get(pipe.stage_key(stage, base)).fingerprint()
                for stage in ("tagging", "dependence", "distribute", "schedule")
            )

        first = fingerprints()
        IterationGroup.reset_idents(start=123)
        second = fingerprints()
        assert first == second
