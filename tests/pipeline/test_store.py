"""The in-process artifact store and the persistent plan tier."""

from __future__ import annotations

import json
import os

import pytest

from repro.blocks.groups import IterationGroup
from repro.pipeline import (
    ArtifactStore,
    Knobs,
    MappingPipeline,
    PlanStore,
    default_store,
    reset_default_store,
)
from repro.pipeline.store import ident_epoch
from repro.runtime.serialize import plan_from_dict
from repro.service.engine import compute_mapping, stored_mapping
from repro.service.protocol import MappingRequest


class TestArtifactStore:
    def test_get_put_and_stats(self):
        store = ArtifactStore(capacity=4)
        assert store.get(("a",)) is None
        store.put(("a",), "artifact")
        assert store.get(("a",)) == "artifact"
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_lru_evicts_oldest(self):
        store = ArtifactStore(capacity=2)
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.put(("c",), 3)
        assert store.get(("a",)) is None
        assert store.get(("b",)) == 2
        assert store.get(("c",)) == 3
        assert store.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        store = ArtifactStore(capacity=2)
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.get(("a",))
        store.put(("c",), 3)
        assert store.get(("a",)) == 1
        assert store.get(("b",)) is None

    def test_put_overwrites_in_place(self):
        store = ArtifactStore(capacity=2)
        store.put(("a",), 1)
        store.put(("a",), 2)
        assert store.get(("a",)) == 2
        assert len(store) == 1

    def test_clear(self):
        store = ArtifactStore()
        store.put(("a",), 1)
        store.clear()
        assert len(store) == 0
        assert store.get(("a",)) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ArtifactStore(capacity=0)

    def test_default_store_is_a_process_singleton(self):
        first = default_store()
        assert default_store() is first
        reset_default_store()
        assert default_store() is not first


class TestIdentEpoch:
    def test_reset_bumps_epoch(self):
        before = ident_epoch()
        IterationGroup.reset_idents()
        assert ident_epoch() == before + 1

    def test_stage_keys_change_across_epochs(self, fig9_machine, fig5_program):
        pipe = MappingPipeline(fig9_machine, Knobs(block_size=32))
        base = pipe._base_key(fig5_program, fig5_program.nests[0])
        before = pipe.stage_key("tagging", base)
        IterationGroup.reset_idents()
        after = pipe.stage_key("tagging", base)
        assert before != after

    def test_plan_key_is_epoch_free(self, fig9_machine, fig5_program):
        pipe = MappingPipeline(fig9_machine, Knobs(block_size=32))
        before = pipe.plan_key(fig5_program, fig5_program.nests[0])
        IterationGroup.reset_idents()
        assert pipe.plan_key(fig5_program, fig5_program.nests[0]) == before


class TestPlanStore:
    """The persistent plan tier, written by the service's
    ``compute_mapping`` and read by its ``stored_mapping``."""

    KNOBS = Knobs(block_size=32, local_scheduling=True)

    @pytest.fixture
    def mapped(self, fig9_machine, fig5_program, tmp_path):
        """One ``compute_mapping`` through a fresh store: returns the
        store, the plan's key, the plan served and the program."""
        plans = PlanStore(str(tmp_path))
        nest = fig5_program.nests[0]
        request = MappingRequest(fig5_program, nest, fig9_machine, self.KNOBS)
        payload = compute_mapping(request, plans=plans)
        plan = plan_from_dict(payload["mapping"], nest, fig9_machine)
        key = MappingPipeline(fig9_machine, self.KNOBS).plan_key(fig5_program, nest)
        return plans, key, plan, fig5_program

    def test_round_trip_across_processes(self, mapped, fig9_machine, tmp_path):
        _, key, plan, program = mapped
        # A "new process": fresh PlanStore over the same directory, and a
        # different point of the ident sequence.
        IterationGroup.reset_idents(start=999)
        reread = PlanStore(str(tmp_path))
        assert MappingPipeline(fig9_machine, self.KNOBS).plan_key(
            program, program.nests[0]
        ) == key
        cached = reread.get(key, fig9_machine, program.nests[0])
        assert cached is not None
        assert cached.rounds == plan.rounds
        assert cached.label == plan.label

    def test_plan_method_serves_disk_hit_without_mapping(
        self, mapped, fig9_machine, tmp_path
    ):
        """A repeat through a fresh store over the same directory is
        served from disk without running any stage."""
        from repro import obs
        from repro.obs.sinks import CollectorSink

        _, _, plan, program = mapped
        nest = program.nests[0]
        request = MappingRequest(program, nest, fig9_machine, self.KNOBS)
        col = CollectorSink()
        with obs.tracing(col):
            payload = stored_mapping(request, PlanStore(str(tmp_path)))
        assert payload["stats"]["plan_tier"] == "disk"
        served = plan_from_dict(payload["mapping"], nest, fig9_machine)
        assert served.rounds == plan.rounds
        counters = col.summary()["counters"]
        assert counters["service.plan_tier.hits"] == 1
        assert "map.nests_mapped" not in counters

    def test_knob_change_misses(self, mapped, fig9_machine):
        plans, _, _, program = mapped
        other = MappingPipeline(
            fig9_machine, self.KNOBS.replace(alpha=0.9, beta=0.1)
        ).plan_key(program, program.nests[0])
        assert plans.get(other, fig9_machine, program.nests[0]) is None

    def test_corrupt_file_reads_as_empty(self, mapped, tmp_path):
        plans, _, _, _ = mapped
        path = plans.path
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        assert len(PlanStore(str(tmp_path))) == 0

    def test_foreign_fingerprint_reads_as_empty(self, mapped, tmp_path):
        plans, _, _, _ = mapped
        path = plans.path
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["fingerprint"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert len(PlanStore(str(tmp_path))) == 0

    def test_tampered_rounds_are_rejected(self, mapped, fig9_machine,
                                          tmp_path):
        """A stored plan that no longer covers the iteration space must
        miss (verify_complete guards the read path)."""
        plans, key, _, program = mapped
        path = plans.path
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        entry = next(iter(payload["plans"].values()))
        entry["rounds"] = [[[[0, 0]]]]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        fresh = PlanStore(str(tmp_path))
        assert fresh.get(key, fig9_machine, program.nests[0]) is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: ["not", "an", "object"],
            lambda entry: {k: v for k, v in entry.items() if k != "rounds"},
            lambda entry: {**entry, "format": 1},
            lambda entry: {**entry, "machine": "fig9"},
            lambda entry: {**entry, "rounds": [[7]]},
            lambda entry: {**entry, "rounds": [[[[0, -1]]]]},
            lambda entry: {**entry, "rounds": [[[[0.0, 1]]]]},
            lambda entry: {**entry, "box": [[0, 1]]},
        ],
        ids=["list", "no-rounds", "format-1", "machine-string", "round-int",
             "negative-length", "float-start", "box-mismatch"],
    )
    def test_undecodable_entry_is_a_miss(self, mapped, fig9_machine,
                                         tmp_path, corrupt):
        """Any decode failure reads as a miss, never as an exception."""
        plans, key, _, program = mapped
        path = plans.path
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        stored = next(iter(payload["plans"]))
        payload["plans"][stored] = corrupt(payload["plans"][stored])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        fresh = PlanStore(str(tmp_path))
        assert fresh.get(key, fig9_machine, program.nests[0]) is None

    def test_file_name_carries_code_fingerprint(self, tmp_path):
        from repro.experiments.cache import code_fingerprint

        store = PlanStore(str(tmp_path))
        assert os.path.basename(store.path) == (
            f"plans-{code_fingerprint()[:12]}.json"
        )
