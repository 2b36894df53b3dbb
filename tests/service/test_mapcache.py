"""The daemon's mapping cache below the reply cache: content LRU, then plans.

``MappingService.handle_map`` takes a decoded body, so these tests reach
the content tiers without the front's reply cache in the way.  A body is
answered from the content LRU (``cache: "memory"``), else from the disk
tier — the plan store's ``plans-<fp>.json`` — (``"disk"``, promoted into
the LRU), else computed, published to the LRU and written through.
"""

import json
import multiprocessing
import os
import sys
from contextlib import contextmanager

import pytest

from repro.experiments.cache import code_fingerprint
from repro.pipeline.persist import PlanStore
from repro.service.engine import compute_mapping
from repro.service.protocol import parse_request

from tests.service.conftest import BANDED_SOURCE, make_service

BODY_A = {"source": BANDED_SOURCE, "machine": "dunnington", "knobs": {"alpha": 0.25}}
BODY_B = {"source": BANDED_SOURCE, "machine": "dunnington", "knobs": {"alpha": 0.5}}
BODY_C = {"source": BANDED_SOURCE, "machine": "dunnington", "knobs": {"alpha": 0.75}}


@contextmanager
def running(**overrides):
    service = make_service(**overrides)
    service.start()
    try:
        yield service
    finally:
        service.stop()


def tier(service, body) -> str:
    return service.handle_map(dict(body))["cache"]


class TestLRU:
    def test_miss_then_hit(self):
        with running() as service:
            assert tier(service, BODY_A) == "none"
            assert tier(service, BODY_A) == "memory"
            counters = service.stats.snapshot()["counters"]
            assert counters["cache.miss"] == 1 and counters["cache.memory"] == 1
            assert counters["pipeline_runs"] == 1

    def test_eviction_order_is_lru(self):
        with running(lru_capacity=2) as service:
            tier(service, BODY_A)
            tier(service, BODY_B)
            assert tier(service, BODY_A) == "memory"  # A becomes most-recent
            tier(service, BODY_C)  # evicts B
            assert service.contents.evictions == 1
            assert tier(service, BODY_A) == "memory"
            assert tier(service, BODY_B) == "none"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            make_service(lru_capacity=0)


class TestPersistentTier:
    def test_survives_restart(self, tmp_path):
        with running(persistent=True, cache_dir=str(tmp_path)) as first:
            cold = first.handle_map(dict(BODY_A))
        with running(persistent=True, cache_dir=str(tmp_path)) as reborn:
            warm = reborn.handle_map(dict(BODY_A))
            assert warm["cache"] == "disk"
            assert warm["mapping"] == cold["mapping"]
            assert warm["stats"]["plan_tier"] == "disk"
            # Promoted into the LRU: the second lookup is a memory hit.
            assert tier(reborn, BODY_A) == "memory"
            assert "pipeline_runs" not in reborn.stats.snapshot()["counters"]

    def test_disk_file_is_fingerprinted(self, tmp_path):
        with running(persistent=True, cache_dir=str(tmp_path)) as service:
            tier(service, BODY_A)
        (path,) = tmp_path.glob("*.json")
        assert path.name == f"plans-{code_fingerprint()[:12]}.json"
        payload = json.loads(path.read_text())
        assert payload["format"] == 1
        assert len(payload["plans"]) == 1

    def test_corrupt_file_reads_as_empty(self, tmp_path):
        with running(persistent=True, cache_dir=str(tmp_path)) as service:
            tier(service, BODY_A)
        (path,) = tmp_path.glob("plans-*.json")
        path.write_text("{not json")
        with running(persistent=True, cache_dir=str(tmp_path)) as reborn:
            assert tier(reborn, BODY_A) == "none"

    def test_foreign_fingerprint_ignored(self, tmp_path):
        with running(persistent=True, cache_dir=str(tmp_path)) as service:
            tier(service, BODY_A)
        (path,) = tmp_path.glob("plans-*.json")
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload))
        with running(persistent=True, cache_dir=str(tmp_path)) as reborn:
            assert tier(reborn, BODY_A) == "none"

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        with running(persistent=True, cache_dir=str(tmp_path)) as service:
            tier(service, BODY_A)
            tier(service, BODY_B)
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_stats_shape(self, tmp_path):
        with running(persistent=True, cache_dir=str(tmp_path)) as service:
            tier(service, BODY_A)
            cache = service.stats_payload()["cache"]
        assert cache["memory"]["entries"] == 1
        assert cache["front"]["entries"] == 0  # handle_map is below it
        assert cache["disk"] == str(next(tmp_path.glob("plans-*.json")))


class TestWithoutPersistence:
    def test_no_disk_io(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with running() as service:
            tier(service, BODY_A)
            assert service.stats_payload()["cache"]["disk"] is None
        assert list(tmp_path.iterdir()) == []


def _mp_context():
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")  # pragma: no cover


def _racing_compute(directory, body, barrier):
    """One writing process: load an (empty) view, sync, then compute."""
    plans = PlanStore(directory)
    request = parse_request(dict(body))
    barrier.wait(timeout=30)
    compute_mapping(request, plans=plans)


class TestConcurrentWriters:
    """N shard workers share one cache directory; their plans merge."""

    def test_interleaved_stale_views_merge(self, tmp_path):
        with running(persistent=True, cache_dir=str(tmp_path)) as first, \
                running(persistent=True, cache_dir=str(tmp_path)) as second:
            tier(first, BODY_A)
            tier(second, BODY_B)  # stale view: must merge, not clobber
        with running(persistent=True, cache_dir=str(tmp_path)) as fresh:
            assert tier(fresh, BODY_A) == "disk"
            assert tier(fresh, BODY_B) == "disk"

    def test_miss_revalidates_against_sibling_writes(self, tmp_path):
        with running(persistent=True, cache_dir=str(tmp_path)) as reader, \
                running(persistent=True, cache_dir=str(tmp_path)) as writer:
            tier(writer, BODY_A)
            # No restart: the miss re-checks the file's stat signature.
            assert tier(reader, BODY_A) == "disk"

    def test_two_subprocess_race_keeps_both_entries(self, tmp_path):
        ctx = _mp_context()
        barrier = ctx.Barrier(2)
        children = [
            ctx.Process(target=_racing_compute, args=(str(tmp_path), body, barrier))
            for body in (BODY_A, BODY_B)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=60)
            assert child.exitcode == 0
        with running(persistent=True, cache_dir=str(tmp_path)) as fresh:
            assert tier(fresh, BODY_A) == "disk"
            assert tier(fresh, BODY_B) == "disk"
