"""Stage-cache reuse and invalidation, asserted through obs counters.

The content-addressed stage keys are cumulative over knobs, so a knob
change invalidates exactly the stages at and after the first stage that
reads it (ISSUE: "changing α/β after a first compile re-runs only the
scheduling stage").  Each test runs the pipeline twice against one
store and reads the per-stage hit/miss counters of the *second* run.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.sinks import CollectorSink
from repro.pipeline import ArtifactStore, Knobs, MappingPipeline

from tests.conftest import bench_machine

STAGES = ("blocksize", "tagging", "dependence", "distribute", "schedule")


def counters_for_run(machine, knobs, store, program):
    """Map the program's first nest; return that run's counter dict."""
    col = CollectorSink()
    with obs.tracing(col):
        MappingPipeline(machine, knobs, store=store).map_nest(
            program, program.nests[0]
        )
    return col.summary()["counters"]


def hit_pattern(counters) -> dict[str, str]:
    pattern = {}
    for stage in STAGES:
        if counters.get(f"pipeline.{stage}.hits"):
            pattern[stage] = "hit"
        elif counters.get(f"pipeline.{stage}.misses"):
            pattern[stage] = "miss"
        else:
            pattern[stage] = "absent"
    return pattern


class TestStageReuse:
    def test_cold_run_misses_every_stage(self, fig9_machine, fig5_program):
        store = ArtifactStore()
        counters = counters_for_run(
            fig9_machine, Knobs(block_size=32), store, fig5_program
        )
        assert hit_pattern(counters) == {s: "miss" for s in STAGES}
        assert counters["pipeline.stage_misses"] == 5
        assert "pipeline.stage_hits" not in counters

    def test_identical_rerun_hits_every_stage(self, fig9_machine, fig5_program):
        store = ArtifactStore()
        knobs = Knobs(block_size=32)
        counters_for_run(fig9_machine, knobs, store, fig5_program)
        counters = counters_for_run(fig9_machine, knobs, store, fig5_program)
        assert hit_pattern(counters) == {s: "hit" for s in STAGES}
        assert counters["pipeline.stage_hits"] == 5

    def test_alpha_beta_change_reruns_schedule_only(
        self, fig9_machine, fig5_program
    ):
        store = ArtifactStore()
        base = Knobs(block_size=32, local_scheduling=True)
        counters_for_run(fig9_machine, base, store, fig5_program)
        counters = counters_for_run(
            fig9_machine, base.replace(alpha=0.9, beta=0.1), store, fig5_program
        )
        assert hit_pattern(counters) == {
            "blocksize": "hit",
            "tagging": "hit",
            "dependence": "hit",
            "distribute": "hit",
            "schedule": "miss",
        }

    def test_balance_change_reruns_distribute_onward(
        self, fig9_machine, fig5_program
    ):
        store = ArtifactStore()
        base = Knobs(block_size=32, balance_threshold=0.10)
        counters_for_run(fig9_machine, base, store, fig5_program)
        counters = counters_for_run(
            fig9_machine, base.replace(balance_threshold=0.01), store, fig5_program
        )
        assert hit_pattern(counters) == {
            "blocksize": "hit",
            "tagging": "hit",
            "dependence": "hit",
            "distribute": "miss",
            "schedule": "miss",
        }

    def test_block_size_change_invalidates_everything(
        self, fig9_machine, fig5_program
    ):
        store = ArtifactStore()
        counters_for_run(
            fig9_machine, Knobs(block_size=32), store, fig5_program
        )
        counters = counters_for_run(
            fig9_machine, Knobs(block_size=64), store, fig5_program
        )
        assert hit_pattern(counters) == {s: "miss" for s in STAGES}

    def test_program_change_invalidates_everything(
        self, fig9_machine, fig5_program, stencil_program
    ):
        store = ArtifactStore()
        knobs = Knobs(block_size=32)
        counters_for_run(fig9_machine, knobs, store, fig5_program)
        counters = counters_for_run(fig9_machine, knobs, store, stencil_program)
        assert hit_pattern(counters) == {s: "miss" for s in STAGES}

    def test_dependence_policy_change_keeps_tagging(
        self, fig9_machine, dependent_program
    ):
        store = ArtifactStore()
        base = Knobs(block_size=32, dependence_policy="barrier")
        counters_for_run(fig9_machine, base, store, dependent_program)
        counters = counters_for_run(
            fig9_machine,
            base.replace(dependence_policy="co-cluster"),
            store,
            dependent_program,
        )
        assert hit_pattern(counters) == {
            "blocksize": "hit",
            "tagging": "hit",
            "dependence": "miss",
            "distribute": "miss",
            "schedule": "miss",
        }

    def test_no_store_emits_no_cache_counters(self, fig9_machine, fig5_program):
        counters = counters_for_run(
            fig9_machine, Knobs(block_size=32), None, fig5_program
        )
        assert not any(k.startswith("pipeline.") for k in counters)

    def test_hit_run_produces_identical_plan(self, fig9_machine, fig5_program):
        store = ArtifactStore()
        knobs = Knobs(block_size=32, local_scheduling=True)
        nest = fig5_program.nests[0]
        cold = MappingPipeline(fig9_machine, knobs, store=store).map_nest(
            fig5_program, nest
        )
        warm = MappingPipeline(fig9_machine, knobs, store=store).map_nest(
            fig5_program, nest
        )
        assert warm.plan().rounds == cold.plan().rounds
        assert warm.timings.keys() == cold.timings.keys()


PREFIX_HITS = {
    "blocksize": "hit",
    "tagging": "hit",
    "dependence": "hit",
    "distribute": "miss",
    "schedule": "miss",
}
ALL_MISS = {s: "miss" for s in STAGES}


class TestMachineFacts:
    """A stage keys on only what it reads of the machine: blocksize on
    the core-0 L1 capacity while ``block_size`` is unset, tagging and
    dependence on nothing, distribute and schedule on the whole tree."""

    @pytest.mark.parametrize(
        "first, second, other, expected",
        [
            pytest.param(Knobs(), Knobs(), "bigger_l1", ALL_MISS,
                         id="unpinned-l1-change"),
            pytest.param(Knobs(block_size=32), Knobs(block_size=32),
                         "bigger_l1", PREFIX_HITS, id="pinned-l1-change"),
            pytest.param(Knobs(), Knobs(), "core_loss", PREFIX_HITS,
                         id="unpinned-core-loss"),
            pytest.param(Knobs(block_size=32), Knobs(block_size=32),
                         "two_core", PREFIX_HITS, id="pinned-other-tree"),
            pytest.param(None, Knobs(block_size=32), "core_loss", ALL_MISS,
                         id="cold-store"),
            pytest.param(Knobs(block_size=64), Knobs(block_size=32),
                         "core_loss", ALL_MISS, id="block-size-change"),
        ],
    )
    def test_second_machine_hit_pattern(
        self, fig9_machine, two_core_machine, fig5_program,
        first, second, other, expected,
    ):
        """Map on fig9 with ``first`` (unless None), then on ``other``
        with ``second`` through the same store."""
        machine = {
            "bigger_l1": fig9_machine.with_scaled_caches(2.0),
            "core_loss": fig9_machine.without_cores([2]),
            "two_core": two_core_machine,
        }[other]
        store = ArtifactStore()
        if first is not None:
            counters_for_run(fig9_machine, first, store, fig5_program)
        counters = counters_for_run(machine, second, store, fig5_program)
        assert hit_pattern(counters) == expected

    @pytest.mark.parametrize(
        "fixture", ["fig5_program", "dependent_program", "stencil_program"]
    )
    def test_prefix_from_another_machine_equals_cold(
        self, request, fixture, fig9_machine, two_core_machine
    ):
        """Machine B's plan, with its prefix served from machine A's
        artifacts, equals a storeless cold map on B."""
        program = request.getfixturevalue(fixture)
        nest = program.nests[0]
        knobs = Knobs(block_size=32, local_scheduling=True)
        store = ArtifactStore()
        MappingPipeline(fig9_machine, knobs, store=store).map_nest(program, nest)
        col = CollectorSink()
        with obs.tracing(col):
            warm = MappingPipeline(two_core_machine, knobs, store=store).map_nest(
                program, nest
            )
        assert hit_pattern(col.summary()["counters"]) == PREFIX_HITS
        cold = MappingPipeline(two_core_machine, knobs).map_nest(program, nest)
        assert warm.plan().rounds == cold.plan().rounds
        assert warm.plan().label == cold.plan().label


class TestCachedSpanTags:
    def test_spans_tag_hit_and_miss(self, fig9_machine, fig5_program):
        store = ArtifactStore()
        knobs = Knobs(block_size=32)
        nest = fig5_program.nests[0]
        col = CollectorSink()
        with obs.tracing(col):
            MappingPipeline(fig9_machine, knobs, store=store).map_nest(
                fig5_program, nest
            )
            MappingPipeline(fig9_machine, knobs, store=store).map_nest(
                fig5_program, nest
            )
        tags = [
            r["tags"].get("cache")
            for r in col.spans()
            if r["name"] == "map.tagging"
        ]
        assert tags == ["miss", "hit"]

    def test_dependence_hit_retains_edge_tags(
        self, fig9_machine, dependent_program
    ):
        """A cached dependence artifact still tags policy/edges (trace
        consumers must not see less on a warm run)."""
        store = ArtifactStore()
        knobs = Knobs(block_size=32)
        nest = dependent_program.nests[0]
        col = CollectorSink()
        with obs.tracing(col):
            MappingPipeline(fig9_machine, knobs, store=store).map_nest(
                dependent_program, nest
            )
            MappingPipeline(fig9_machine, knobs, store=store).map_nest(
                dependent_program, nest
            )
        spans = [r for r in col.spans() if r["name"] == "map.dependence"]
        assert len(spans) == 2
        cold, warm = spans
        assert warm["tags"].get("cache") == "hit"
        assert warm["tags"].get("policy") == cold["tags"].get("policy")
        assert warm["tags"].get("edges") == cold["tags"].get("edges")


class TestEpochInvalidation:
    def test_ident_reset_invalidates_store(self, fig9_machine, fig5_program):
        from repro.blocks.groups import IterationGroup

        store = ArtifactStore()
        knobs = Knobs(block_size=32)
        counters_for_run(fig9_machine, knobs, store, fig5_program)
        IterationGroup.reset_idents()
        counters = counters_for_run(fig9_machine, knobs, store, fig5_program)
        assert hit_pattern(counters) == {s: "miss" for s in STAGES}


@pytest.mark.perf_smoke
class TestWarmFasterSmoke:
    def test_warm_rerun_skips_compute(self, fig9_machine, fig5_program):
        """A warm α/β point computes only the scheduling stage."""
        store = ArtifactStore()
        base = Knobs(block_size=32, local_scheduling=True)
        counters_for_run(fig9_machine, base, store, fig5_program)
        counters = counters_for_run(
            fig9_machine, base.replace(alpha=0.7, beta=0.3), store, fig5_program
        )
        assert counters["pipeline.stage_hits"] == 4
        assert counters["pipeline.stage_misses"] == 1


#: (alpha, beta, balance_threshold): six α/β points that share every
#: stage up to scheduling, then two balance points that share only up
#: to dependence.
SWEEP = (
    (0.5, 0.5, 0.10),
    (0.3, 0.7, 0.10),
    (0.7, 0.3, 0.10),
    (0.1, 0.9, 0.10),
    (0.9, 0.1, 0.10),
    (0.2, 0.8, 0.10),
    (0.5, 0.5, 0.05),
    (0.3, 0.7, 0.05),
)


class TestSharedStoreSweep:
    @pytest.mark.parametrize(
        "fixture, block_size", [("dependent_program", 32), ("stencil_program", 64)]
    )
    def test_sweep_through_one_store_equals_cold(self, request, fixture, block_size):
        """Every point of a knob sweep replayed through one shared store
        yields the plan a store-less pipeline computes for it."""
        program = request.getfixturevalue(fixture)
        nest = program.nests[0]
        machine = bench_machine(8)

        def sweep(store):
            return [
                MappingPipeline(
                    machine,
                    Knobs(
                        block_size=block_size,
                        balance_threshold=balance,
                        alpha=alpha,
                        beta=beta,
                        local_scheduling=True,
                    ),
                    store=store,
                )
                .map_nest(program, nest)
                .plan()
                .rounds
                for alpha, beta, balance in SWEEP
            ]

        cold = sweep(None)
        col = CollectorSink()
        with obs.tracing(col):
            warm = sweep(ArtifactStore(capacity=64))
        assert warm == cold
        # 5 misses for the first point, 1 per later α/β point, 2 for the
        # first balance point and 1 for the last.
        counters = col.summary()["counters"]
        assert counters["pipeline.stage_misses"] == 13
        assert counters["pipeline.stage_hits"] == 27
