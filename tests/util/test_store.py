"""The shared cache primitives: LRU, JsonStore, encode_key, info/clear."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.experiments.cache import _fingerprint_relevant
from repro.util.store import LRU, NAMESPACES, JsonStore, clear, encode_key, info

FP = "f" * 64


def _run_threads(count, target):
    """Run ``target(index)`` on ``count`` threads under a short switch interval."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=target, args=(index,)) for index in range(count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)


class TestEncodeKey:
    def test_compact_json_with_tuples_as_lists(self):
        assert encode_key(("a", 1, (None, 0.5))) == '["a",1,[null,0.5]]'

    def test_int_and_float_stay_distinct(self):
        assert encode_key((1,)) != encode_key((1.0,))


class TestLRU:
    def test_counts_and_eviction_order(self):
        lru = LRU(2)
        assert lru.get("a") is None
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # "a" becomes most recent
        lru.put("c", 3)  # evicts "b"
        assert lru.get("b") is None
        assert lru.stats() == {
            "capacity": 2, "entries": 2, "hits": 1, "misses": 2, "evictions": 1,
        }

    def test_peek_neither_counts_nor_promotes(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.peek("a") == 1
        assert lru.peek("zz") is None
        lru.put("c", 3)  # "a" was not promoted, so it is evicted
        assert lru.peek("a") is None
        assert (lru.hits, lru.misses) == (0, 0)

    def test_clear_keeps_counts(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.get("a")
        lru.clear()
        assert len(lru) == 0 and lru.hits == 1

    def test_thread_stress_loses_no_count(self):
        lru = LRU(16)
        per_thread = 400

        def work(index):
            for step in range(per_thread):
                key = f"{index}-{step % 32}"
                if lru.get(key) is None:
                    lru.put(key, step)

        _run_threads(8, work)
        stats = lru.stats()
        assert stats["hits"] + stats["misses"] == 8 * per_thread
        assert stats["entries"] == 16
        # Every miss put a key that was absent (each key belongs to one
        # thread), so each one either is still resident or was evicted.
        assert stats["misses"] == stats["entries"] + stats["evictions"]


class TestJsonStore:
    def test_roundtrip_and_payload_shape(self, tmp_path):
        store = JsonStore(str(tmp_path), "results", FP)
        assert store.get(("k", 1)) is None
        store.put(("k", 1), {"v": 1})
        assert store.get(("k", 1)) == {"v": 1}
        assert os.path.basename(store.path) == f"results-{FP[:12]}.json"
        with open(store.path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload == {
            "format": 1, "fingerprint": FP, "results": {'["k",1]': {"v": 1}},
        }

    def test_put_keeps_the_first_value(self, tmp_path):
        store = JsonStore(str(tmp_path), "plans", FP)
        store.put(("k",), {"v": 1})
        store.put(("k",), {"v": 2})
        assert JsonStore(str(tmp_path), "plans", FP).get(("k",)) == {"v": 1}

    def test_foreign_format_reads_as_empty(self, tmp_path):
        store = JsonStore(str(tmp_path), "results", FP)
        with open(store.path, "w", encoding="utf-8") as handle:
            json.dump({"fingerprint": FP, "results": {'["k"]': 1}}, handle)
        assert JsonStore(str(tmp_path), "results", FP).get(("k",)) is None

    def test_threads_share_one_file(self, tmp_path):
        store = JsonStore(str(tmp_path), "results", FP)

        def work(index):
            for step in range(10):
                store.put((index, step), step)

        _run_threads(6, work)
        assert len(JsonStore(str(tmp_path), "results", FP)) == 60
        assert sorted(os.listdir(tmp_path)) == [
            f"results-{FP[:12]}.json", f"results-{FP[:12]}.json.lock",
        ]

    def test_compact_election_and_filter(self, tmp_path):
        store = JsonStore(str(tmp_path), "plans", FP)
        for index in range(4):
            store.put((index,), {"ok": index % 2 == 0})
        summary = store.compact(lambda value: value["ok"], max_entries=1)
        assert summary == {"kept": 1, "dropped_invalid": 2, "dropped_overflow": 1}
        assert JsonStore(str(tmp_path), "plans", FP).get((2,)) == {"ok": True}


@pytest.fixture
def populated(tmp_path):
    """One current store per namespace, a stale one, locks and stray temps."""
    for namespace in NAMESPACES:
        JsonStore(str(tmp_path), namespace, FP).put((namespace,), {"n": 1})
    JsonStore(str(tmp_path), "results", "0" * 64).put(("old",), 1)
    stray = [
        f"plans-{FP[:12]}.json.4242.tmp",  # a killed writer's temp file
        f"results-{FP[:12]}.json.tmp",  # the old single-writer temp name
    ]
    for name in stray + [f"plans-{FP[:12]}.json.compact.lock", "notes.json"]:
        (tmp_path / name).write_text("{}")
    return tmp_path


class TestInfoAndClear:
    def test_info_lists_every_tier(self, populated):
        rows = info(str(populated), FP)
        assert [(r["tier"], r["file"], r["entries"], r["current"]) for r in rows] == [
            ("mappings", f"mappings-{FP[:12]}.json", 1, True),
            ("plans", f"plans-{FP[:12]}.json", 1, True),
            ("results", "results-000000000000.json", 1, False),
            ("results", f"results-{FP[:12]}.json", 1, True),
        ]
        assert all(r["bytes"] > 0 for r in rows)

    def test_clear_removes_stores_and_temps_but_never_locks(self, populated):
        assert clear(str(populated)) == 6
        left = sorted(os.listdir(populated))
        assert left == sorted(
            [f"{ns}-{FP[:12]}.json.lock" for ns in NAMESPACES]
            + ["results-000000000000.json.lock",
               f"plans-{FP[:12]}.json.compact.lock", "notes.json"]
        )
        assert info(str(populated), FP) == []
        assert clear(str(populated)) == 0

    def test_missing_directory(self, tmp_path):
        assert info(str(tmp_path / "absent"), FP) == []
        assert clear(str(tmp_path / "absent")) == 0


class TestFingerprintScope:
    @pytest.mark.parametrize(
        "rel",
        ["util/store.py", "util/filelock.py", "pipeline/store.py",
         "pipeline/persist.py", "service/mapcache.py", "experiments/cache.py",
         "cli.py", "obs/core.py"],
    )
    def test_storage_plumbing_is_exempt(self, rel):
        assert not _fingerprint_relevant(rel)

    @pytest.mark.parametrize(
        "rel",
        ["util/bitset.py", "pipeline/core.py", "pipeline/knobs.py",
         "mapping/distribute.py", "experiments/harness.py", "sim/engine.py"],
    )
    def test_result_affecting_code_counts(self, rel):
        assert _fingerprint_relevant(rel)
