"""Unit tests for the persistent result cache and its harness wiring."""

import json
import os

import pytest

from repro import obs
from repro.experiments import harness
from repro.experiments.cache import (
    DiskCache,
    clear,
    code_fingerprint,
    info,
)
from repro.obs.sinks import CollectorSink
from repro.sim.stats import LevelStats, SimResult
from repro.topology.machines import dunnington, nehalem
from repro.topology.tree import machine_digest


def _result(cycles=100):
    return SimResult(
        label="t",
        machine_name="m",
        cycles=cycles,
        core_cycles=(cycles,),
        levels=(LevelStats("L1", 10, 5), LevelStats("L2", 3, 2)),
        memory_accesses=2,
        total_accesses=15,
        barriers=1,
        barrier_cycles=7,
    )


@pytest.fixture(autouse=True)
def _clean_harness():
    harness.clear_cache()
    harness.disable_disk_cache()
    yield
    harness.clear_cache()
    harness.disable_disk_cache()


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        store = DiskCache(str(tmp_path))
        key = ("h264", "ta", "dunnington", 0.01, None)
        assert store.get(key) is None
        store.put(key, _result())
        assert store.get(key) == _result()
        # A fresh instance reads the same file.
        again = DiskCache(str(tmp_path))
        assert again.get(key) == _result()
        assert len(again) == 1

    def test_knob_change_is_a_miss(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put(("h264", "ta", 0.01), _result())
        assert store.get(("h264", "ta", 0.02)) is None
        assert store.get(("h264", "ta+s", 0.01)) is None

    def test_fingerprint_change_invalidates(self, tmp_path):
        old = DiskCache(str(tmp_path), fingerprint="a" * 64)
        old.put(("k",), _result())
        fresh = DiskCache(str(tmp_path), fingerprint="b" * 64)
        assert fresh.get(("k",)) is None
        assert old.path != fresh.path
        # The old store is intact, not clobbered.
        assert DiskCache(str(tmp_path), fingerprint="a" * 64).get(("k",)) == _result()

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put(("k",), _result())
        with open(store.path, "w") as handle:
            handle.write("{not json")
        recovered = DiskCache(str(tmp_path))
        assert recovered.get(("k",)) is None
        recovered.put(("k2",), _result(5))
        assert DiskCache(str(tmp_path)).get(("k2",)) == _result(5)

    def test_foreign_payload_treated_as_empty(self, tmp_path):
        store = DiskCache(str(tmp_path))
        with open(store.path, "w") as handle:
            json.dump({"fingerprint": "other", "results": {"x": {}}}, handle)
        assert len(DiskCache(str(tmp_path))) == 0

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put(("k",), _result())
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_clear_and_info(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put(("k",), _result())
        entries = info(str(tmp_path))
        assert len(entries) == 1
        assert entries[0]["entries"] == 1
        assert entries[0]["current"] is True
        assert clear(str(tmp_path)) == 1
        assert info(str(tmp_path)) == []
        assert clear(str(tmp_path)) == 0


class TestFingerprints:
    def test_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_machine_digest_ignores_uids(self):
        # Two separately built instances get distinct node uids but must
        # digest identically — digests cross process boundaries.
        assert machine_digest(dunnington()) == machine_digest(dunnington())

    def test_machine_digest_sees_structure(self):
        assert machine_digest(dunnington()) != machine_digest(nehalem())
        scaled = dunnington().with_scaled_caches(0.5)
        assert machine_digest(dunnington()) != machine_digest(scaled)


class TestHarnessWiring:
    def test_run_scheme_persists_and_reloads(self, tmp_path):
        machine = harness.sim_machine(nehalem())
        harness.enable_disk_cache(str(tmp_path))
        first = harness.run_scheme("h264", "base", machine)
        # Wipe the in-memory memo: the second call must come from disk.
        harness.clear_cache()
        sink = CollectorSink()
        with obs.tracing(sink):
            second = harness.run_scheme("h264", "base", machine)
            counters = dict(obs.get_recorder().counters)
        assert first == second
        assert counters.get("cache.disk_hits") == 1
        assert "experiment.scheme" not in {
            r.get("name") for r in sink.records if r.get("type") == "span"
        }

    def test_disk_miss_counter(self, tmp_path):
        machine = harness.sim_machine(nehalem())
        harness.enable_disk_cache(str(tmp_path))
        with obs.tracing():
            harness.run_scheme("h264", "base", machine)
            counters = dict(obs.get_recorder().counters)
        assert counters.get("cache.disk_misses") == 1

    def test_no_cache_without_enable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        machine = harness.sim_machine(nehalem())
        harness.run_scheme("h264", "base", machine)
        assert info(str(tmp_path)) == []

    def test_run_custom_memoizes_and_persists(self, tmp_path):
        machine = harness.sim_machine(nehalem())
        harness.enable_disk_cache(str(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return _result()

        tag = ("unit", "x", 1)
        first = harness.run_custom(tag, machine, compute)
        assert harness.run_custom(tag, machine, compute) == first
        harness.clear_cache()
        assert harness.run_custom(tag, machine, compute) == first
        assert len(calls) == 1

    def test_recording_collects_specs_without_simulating(self):
        machine = harness.sim_machine(nehalem())
        specs = harness.record_specs(
            lambda: [
                harness.run_scheme("h264", "base", machine),
                harness.run_scheme("h264", "ta", machine),
                harness.run_scheme("h264", "ta", machine),  # dedup
            ]
        )
        assert [s.scheme for s in specs] == ["base", "ta"]
        # Placeholders must not leak into the memo.
        assert not harness._CACHE.results

    def test_recorded_spec_reexecutes(self):
        machine = harness.sim_machine(nehalem())
        specs = harness.record_specs(
            lambda: harness.run_scheme("h264", "base", machine)
        )
        direct = harness.run_scheme("h264", "base", machine)
        harness.clear_cache()
        assert harness.execute_spec(specs[0]) == direct

    def test_seed_result_feeds_memo(self):
        machine = harness.sim_machine(nehalem())
        specs = harness.record_specs(
            lambda: harness.run_scheme("h264", "base", machine)
        )
        harness.seed_result(specs[0], _result())
        assert harness.run_scheme("h264", "base", machine) == _result()


class TestGeometricMean:
    def test_basic(self):
        assert harness.geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_large_values_do_not_overflow(self):
        # The former product form hits inf immediately here.
        assert harness.geometric_mean([1e300] * 10) == pytest.approx(1e300, rel=1e-9)

    def test_small_values_do_not_underflow(self):
        assert harness.geometric_mean([1e-300] * 10) == pytest.approx(1e-300, rel=1e-9)

    def test_empty_is_nan(self):
        import math

        assert math.isnan(harness.geometric_mean([]))

    def test_zero_short_circuits(self):
        assert harness.geometric_mean([3.0, 0.0, 2.0]) == 0.0
