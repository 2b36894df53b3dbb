"""Cross-process safety of the experiment result cache.

Two ``repro experiments`` runs over one cache directory share one
``results-<fp>.json``.  A blind flush from each process's private view
was last-writer-wins, and two writers renaming one shared temp file
crashed with ``FileNotFoundError``.  These tests pin the locked
read-merge-replace both as a deterministic in-process interleaving (two
store instances with stale views) and as a real two-subprocess race
synchronized by a barrier (no sleeps).
"""

from __future__ import annotations

import multiprocessing
import os
import sys

from repro.experiments.cache import DiskCache
from repro.sim.stats import LevelStats, SimResult

PUTS_PER_WRITER = 25


def _result(cycles: int) -> SimResult:
    return SimResult(
        label="race",
        machine_name="m",
        cycles=cycles,
        core_cycles=(cycles,),
        levels=(LevelStats("L1", 1, 1),),
        memory_accesses=1,
        total_accesses=2,
        barriers=0,
        barrier_cycles=0,
    )


def _mp_context():
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")  # pragma: no cover


def _racing_writer(directory: str, label: str, barrier) -> None:
    """One writing process: load an (empty) view, sync, then persist."""
    store = DiskCache(directory)  # both processes load before either writes
    barrier.wait(timeout=30)
    for index in range(PUTS_PER_WRITER):
        store.put((label, index), _result(index))


class TestConcurrentWrites:
    def test_interleaved_stale_views_merge(self, tmp_path):
        first = DiskCache(str(tmp_path))
        second = DiskCache(str(tmp_path))  # loaded before first writes
        first.put(("k", "a"), _result(1))
        second.put(("k", "b"), _result(2))  # must merge, not clobber

        fresh = DiskCache(str(tmp_path))
        assert fresh.get(("k", "a")) == _result(1)
        assert fresh.get(("k", "b")) == _result(2)

    def test_two_subprocess_race_keeps_every_entry(self, tmp_path):
        ctx = _mp_context()
        barrier = ctx.Barrier(2)
        children = [
            ctx.Process(
                target=_racing_writer, args=(str(tmp_path), label, barrier)
            )
            for label in ("a", "b")
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=60)
            assert not child.is_alive()
            assert child.exitcode == 0
        fresh = DiskCache(str(tmp_path))
        assert len(fresh) == 2 * PUTS_PER_WRITER
        for label in ("a", "b"):
            for index in range(PUTS_PER_WRITER):
                assert fresh.get((label, index)) == _result(index)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
