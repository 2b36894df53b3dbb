"""In-process LRU store for pipeline stage artifacts.

Keys are the driver's content-addressed stage keys; values are the
immutable artifacts of :mod:`repro.pipeline.artifacts`.  The store is a
:class:`repro.util.store.LRU` (the service's worker threads share one),
with hit/miss/eviction counts surfaced both through
:meth:`ArtifactStore.stats` and the obs decision counters the pipeline
emits per stage.

Stage artifacts hold live :class:`~repro.blocks.groups.IterationGroup`
objects whose idents come from a process-global counter, so cache keys
embed the current *ident epoch* (bumped by
:meth:`IterationGroup.reset_idents`): after a reset — the test suite
does one per test — every stale key simply misses instead of leaking
groups from the previous epoch into a fresh pipeline run, where ident
collisions could corrupt dependence lookups.
"""

from __future__ import annotations

import threading

from repro.blocks.groups import IterationGroup
from repro.util.store import LRU


def ident_epoch() -> int:
    """The current group-ident epoch (see module docstring)."""
    return getattr(IterationGroup, "_ident_epoch", 0)


class ArtifactStore(LRU):
    """Bounded, thread-safe LRU over stage artifacts.

    Entries are keyed by ``repr(key)``, which tells ``1`` from ``1.0``
    where tuple hashing would not, so knob values of different types
    never share an artifact.
    """

    def __init__(self, capacity: int = 256):
        super().__init__(capacity)

    def get(self, key: tuple):
        return super().get(repr(key))

    def peek(self, key: tuple):
        """Non-counting lookup: no LRU promotion, no hit/miss accounting.

        Used by the remapper's artifact carry-forward, which copies a
        machine-independent prefix old-key -> new-key and must not
        distort the store's hit-rate statistics while doing so.
        """
        return super().peek(repr(key))

    def put(self, key: tuple, artifact) -> None:
        super().put(repr(key), artifact)


#: The process-wide default store, shared by the harness, the service
#: engine and the autotuner unless they pass their own.
_DEFAULT: ArtifactStore | None = None
_DEFAULT_LOCK = threading.Lock()


def default_store() -> ArtifactStore:
    """The shared per-process artifact store (created on first use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = ArtifactStore()
        return _DEFAULT


def reset_default_store() -> None:
    """Drop the shared store (tests; frees the artifacts it pinned)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = None
