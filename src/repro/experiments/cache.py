"""Persistent, content-keyed result cache for the experiment harness.

Every harness run is deterministic, so a ``(workload, machine, scheme,
knobs)`` tuple fully determines its :class:`~repro.sim.stats.SimResult`.
This module stores those results on disk so that a repeated
``repro experiments`` invocation is near-instant.

Keys are *content* keys, never timestamps:

* the harness memo key (workload, scheme, machine names, every knob);
* a structural digest of each machine involved
  (:func:`~repro.topology.tree.machine_digest`), so two machines that
  happen to share a name cannot alias;
* a fingerprint of the simulation-relevant source tree
  (:func:`code_fingerprint`) baked into the cache *file name* —
  ``results-<fp12>.json`` — so any change to the simulator, mapper,
  workloads or harness constants starts from an empty cache instead of
  serving stale results.

The file lives under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``)
as the ``results`` namespace of :class:`repro.util.store.JsonStore`,
which owns the format, the write-through merge-on-write that makes
concurrent runs over one directory safe, and :func:`info`/:func:`clear`
over every cache tier.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
from functools import lru_cache

import repro
from repro.sim.stats import LevelStats, SimResult
from repro.util import store

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Source files whose content can change simulation results.  Everything
#: under ``src/repro`` counts except presentation/plumbing: the obs
#: layer, the CLI, the serving layer (it only transports pipeline inputs
#: and outputs), the cache plumbing (the artifact store, plan
#: persistence and the shared stores in ``util/`` hold results, they do
#: not compute them — the stage bodies in ``pipeline/core.py`` and
#: ``pipeline/knobs.py`` stay in), and the experiment figure modules
#: (they only arrange results).
#: ``harness.py`` and ``versions.py`` stay in because they hold
#: result-affecting constants (scale, balance threshold) and the
#: retargeting logic.
_EXEMPT_PREFIXES = ("obs/", "service/")
_EXEMPT_FILES = (
    "cli.py",
    "pipeline/store.py",
    "pipeline/persist.py",
    "util/store.py",
    "util/filelock.py",
)
_EXPERIMENT_KEEP = ("experiments/harness.py", "experiments/versions.py")


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _fingerprint_relevant(rel: str) -> bool:
    if rel.startswith(_EXEMPT_PREFIXES) or rel in _EXEMPT_FILES:
        return False
    if rel.startswith("experiments/"):
        return rel in _EXPERIMENT_KEEP
    return True


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over the simulation-relevant ``repro`` sources.

    Computed once per process; editing any result-affecting module moves
    the cache to a fresh file, which is exactly the invalidation the
    store needs.
    """
    root = pathlib.Path(repro.__file__).resolve().parent
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if not _fingerprint_relevant(rel):
            continue
        hasher.update(rel.encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


def _result_to_dict(result: SimResult) -> dict:
    return {
        "label": result.label,
        "machine_name": result.machine_name,
        "cycles": result.cycles,
        "core_cycles": list(result.core_cycles),
        "levels": [[s.level, s.hits, s.misses] for s in result.levels],
        "memory_accesses": result.memory_accesses,
        "total_accesses": result.total_accesses,
        "barriers": result.barriers,
        "barrier_cycles": result.barrier_cycles,
    }


def _result_from_dict(raw: dict) -> SimResult:
    return SimResult(
        label=raw["label"],
        machine_name=raw["machine_name"],
        cycles=raw["cycles"],
        core_cycles=tuple(raw["core_cycles"]),
        levels=tuple(LevelStats(lvl, hits, misses) for lvl, hits, misses in raw["levels"]),
        memory_accesses=raw["memory_accesses"],
        total_accesses=raw["total_accesses"],
        barriers=raw["barriers"],
        barrier_cycles=raw["barrier_cycles"],
    )


class DiskCache:
    """One on-disk result store, bound to one code fingerprint.

    ``get``/``put`` speak harness key tuples and
    :class:`~repro.sim.stats.SimResult` values.  ``put`` writes through
    immediately, so results survive an interrupted experiment run, and
    merges with entries other processes wrote to the same file.
    """

    def __init__(self, directory: str | None = None, fingerprint: str | None = None):
        self._store = store.JsonStore(
            directory or default_cache_dir(),
            "results",
            fingerprint or code_fingerprint(),
        )
        self.directory = self._store.directory
        self.fingerprint = self._store.fingerprint
        self.path = self._store.path

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: tuple) -> SimResult | None:
        raw = self._store.get(key)
        if raw is None:
            return None
        try:
            return _result_from_dict(raw)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: tuple, result: SimResult) -> None:
        self._store.put(key, _result_to_dict(result))


def clear(directory: str | None = None) -> int:
    """Delete every cache file (all tiers) in the directory; returns the count."""
    return store.clear(directory or default_cache_dir())


def info(directory: str | None = None) -> list[dict]:
    """One summary dict per cache file (all tiers); see :func:`repro.util.store.info`."""
    return store.info(directory or default_cache_dir(), code_fingerprint())
