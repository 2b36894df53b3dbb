"""Two-tier mapping cache: an in-process LRU over an optional disk store.

Tier 1 is a :class:`repro.util.store.LRU`; tier 2 is the ``mappings``
namespace of :class:`repro.util.store.JsonStore` (``mappings-<fp12>.json``
under the cache directory), so editing the mapper moves the service to
a fresh file instead of serving stale mappings, and N shard workers can
share one directory.

Keys are the protocol's ``(nest digest, topology digest, knob tuple)``
triples, stored in both tiers under :func:`repro.util.store.encode_key`;
values are the engine's JSON-serializable response payloads.  A tier-1 miss
that hits tier 2 is promoted into the LRU, so a warm restart pays the
disk read once per key.
"""

from __future__ import annotations

import threading

from repro.experiments.cache import code_fingerprint, default_cache_dir
from repro.util.store import LRU, JsonStore, encode_key


class MappingCache:
    """The two tiers behind one ``get``/``put`` pair.

    ``get`` returns ``(value, tier)`` with tier ``"memory"`` or
    ``"disk"``, or ``None`` on a full miss.  Hit/miss counts per tier
    surface in the service's ``/stats``.
    """

    def __init__(
        self,
        capacity: int = 512,
        directory: str | None = None,
        persistent: bool = False,
    ):
        self._lru = LRU(capacity)
        self.capacity = capacity
        self._disk = (
            JsonStore(directory or default_cache_dir(), "mappings", code_fingerprint())
            if persistent
            else None
        )
        self._counts_lock = threading.Lock()
        self.hits_disk = 0
        self.misses = 0

    @property
    def persistent(self) -> bool:
        return self._disk is not None

    @property
    def hits_memory(self) -> int:
        return self._lru.hits

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: tuple) -> tuple[dict, str] | None:
        encoded = encode_key(key)
        value = self._lru.get(encoded)
        if value is not None:
            return value, "memory"
        if self._disk is not None:
            value = self._disk.get(key)
            if isinstance(value, dict):
                with self._counts_lock:
                    self.hits_disk += 1
                self._lru.put(encoded, value)
                return value, "disk"
        with self._counts_lock:
            self.misses += 1
        return None

    def put(self, key: tuple, value: dict) -> None:
        self._lru.put(encode_key(key), value)
        if self._disk is not None:
            self._disk.put(key, value)

    def stats(self) -> dict:
        memory = self._lru.stats()
        with self._counts_lock:
            hits_disk, misses = self.hits_disk, self.misses
        return {
            "capacity": self.capacity,
            "entries": memory["entries"],
            "persistent": self._disk is not None,
            "disk_entries": len(self._disk) if self._disk is not None else 0,
            "disk_path": self._disk.path if self._disk is not None else None,
            "hits_memory": memory["hits"],
            "hits_disk": hits_disk,
            "misses": misses,
            "evictions": memory["evictions"],
        }
