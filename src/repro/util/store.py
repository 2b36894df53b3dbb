"""Content-keyed cache primitives: one bounded LRU and one JSON disk store.

A mapping is a pure function of the program, the cache topology and the
knobs, so every cache in the package is keyed by content and built from
the two classes here:

* :class:`LRU` — a bounded, thread-safe in-process LRU with hit, miss
  and eviction counts.  It backs the pipeline's artifact store, the
  service's content tier and the reply cache of both HTTP fronts.
* :class:`JsonStore` — one namespace of JSON entries in one file,
  ``<namespace>-<fp12>.json`` under a cache directory, with payload
  ``{"format", "fingerprint", <namespace>: {key: value}}``.  The code
  fingerprint in the file name means a code change starts a fresh file
  instead of serving stale entries; a corrupt or foreign file reads as
  empty.  The namespaces are ``plans`` (:mod:`repro.pipeline.persist`,
  the service's one disk tier) and ``results``
  (:mod:`repro.experiments.cache`); each keeps only its own codec.

**Many processes, one file.**  Service workers and concurrent experiment
runs share a cache directory, so a blind ``os.replace`` would be
last-writer-wins.  Every :meth:`JsonStore.put` is instead a locked
read-merge-replace: take the adjacent ``.lock`` file
(:mod:`repro.util.filelock`), re-read the file, merge the in-memory
entries on top, write a per-process temp file and rename it over the
store.  Entries are content-keyed, so two processes writing one key
write the same value and the merge cannot conflict.  The re-read is
unconditional: file times are tick-coarse and inodes are reused, so an
unchanged stat signature does not prove the file is unchanged.  A
:meth:`JsonStore.get` miss re-reads the file when its stat signature
moved, so a sibling's entries become visible without a restart.

**Failure model.**  A killed writer leaves the store file intact (the
rename is atomic) and at most a stray ``.json.<pid>.tmp``, which
:func:`clear` removes; the kernel drops its ``flock`` with the process.
Lock files are never deleted: unlinking a held lock file would let the
next writer lock a fresh inode under the same name.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict

from repro.util.filelock import FileLock

#: Schema tag of every store file's payload.
STORE_FORMAT = 1

#: The namespaces :func:`info` and :func:`clear` look for: the two a
#: :class:`JsonStore` is opened under, and ``mappings``, the service's
#: whole-payload disk tier in earlier versions, so that an old cache
#: directory's files are still listed and removed.
NAMESPACES = ("plans", "mappings", "results")


def encode_key(key) -> str:
    """The compact JSON text of a content key (tuples become lists)."""
    return json.dumps(key, separators=(",", ":"))


class LRU:
    """Bounded, thread-safe LRU with hit/miss/eviction counts.

    Keys must be hashable.  ``None`` is not a storable value: :meth:`get`
    returns it for a miss.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key):
        """Look ``key`` up without promoting it or counting a hit/miss."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def _load(path: str) -> dict:
    """A store file's payload; a missing, corrupt or non-object file is ``{}``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


class JsonStore:
    """One namespace of JSON entries on disk, bound to one code fingerprint.

    Keys are content-key tuples (stored under :func:`encode_key`); values
    are JSON-serializable.  Safe for concurrent use from many threads
    (internal mutex) and many processes (file lock plus merge-on-write;
    see the module docstring).
    """

    def __init__(self, directory: str, namespace: str, fingerprint: str):
        self.directory = directory
        self.namespace = namespace
        self.fingerprint = fingerprint
        self.path = os.path.join(directory, f"{namespace}-{fingerprint[:12]}.json")
        self._mutex = threading.Lock()
        self._signature: tuple | None = None
        self._entries: dict = {}
        with self._mutex:
            self._reload_if_changed()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(self, key):
        """The stored value for ``key``, or ``None``."""
        encoded = encode_key(key)
        with self._mutex:
            value = self._entries.get(encoded)
            if value is None:
                self._reload_if_changed()
                value = self._entries.get(encoded)
            return value

    def put(self, key, value) -> None:
        """Write ``value`` through to disk unless ``key`` is already stored."""
        encoded = encode_key(key)
        with self._mutex:
            if encoded in self._entries:
                return
            self._entries[encoded] = value
            os.makedirs(self.directory, exist_ok=True)
            with FileLock(self.path + ".lock"):
                self._merge_disk()
                self._write()

    def compact(self, well_formed, max_entries: int | None = None) -> dict | None:
        """Rewrite the file, dropping malformed and overflow entries.

        Only one process compacts at a time: the election is a
        non-blocking claim on ``.compact.lock``, and losers return
        ``None`` without touching the file.  Entries failing
        ``well_formed(value)`` are dropped, then — given ``max_entries``
        — the oldest overflow (JSON objects keep insertion order, so the
        tail is the newest).  Winners return ``{"kept",
        "dropped_invalid", "dropped_overflow"}``.
        """
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        os.makedirs(self.directory, exist_ok=True)
        election = FileLock(self.path + ".compact.lock")
        if not election.acquire(blocking=False):
            return None
        try:
            with self._mutex, FileLock(self.path + ".lock"):
                disk = self._read()
                valid = {k: v for k, v in disk.items() if well_formed(v)}
                dropped_invalid = len(disk) - len(valid)
                dropped_overflow = 0
                if max_entries is not None and len(valid) > max_entries:
                    dropped_overflow = len(valid) - max_entries
                    valid = dict(list(valid.items())[dropped_overflow:])
                self._entries = valid
                self._write()
            return {
                "kept": len(valid),
                "dropped_invalid": dropped_invalid,
                "dropped_overflow": dropped_overflow,
            }
        finally:
            election.release()

    # -- disk primitives (callers hold the mutex) ------------------------
    def _stat(self) -> tuple | None:
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size, st.st_ino)

    def _read(self) -> dict:
        payload = _load(self.path)
        if (
            payload.get("format") != STORE_FORMAT
            or payload.get("fingerprint") != self.fingerprint
        ):
            return {}
        entries = payload.get(self.namespace)
        return entries if isinstance(entries, dict) else {}

    def _merge_disk(self) -> None:
        merged = self._read()
        merged.update(self._entries)
        self._entries = merged

    def _reload_if_changed(self) -> None:
        """Fold in entries other processes wrote since the last look."""
        signature = self._stat()
        if signature != self._signature:
            self._merge_disk()
            self._signature = signature

    def _write(self) -> None:
        """Atomically replace the file (caller holds the file lock)."""
        payload = {
            "format": STORE_FORMAT,
            "fingerprint": self.fingerprint,
            self.namespace: self._entries,
        }
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            # json.dumps runs the C encoder; json.dump streams through
            # the pure-Python one, about 3x slower on a 240 KB store.
            handle.write(json.dumps(payload))
        os.replace(tmp, self.path)
        self._signature = self._stat()


def _namespace_of(name: str) -> str | None:
    namespace, dash, _rest = name.partition("-")
    return namespace if dash and namespace in NAMESPACES else None


def info(directory: str, fingerprint: str) -> list[dict]:
    """One summary per store file in ``directory``, sorted by file name.

    Each is ``{"tier", "file", "path", "entries", "bytes", "current"}``;
    ``current`` means the file belongs to ``fingerprint``.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    out = []
    for name in names:
        namespace = _namespace_of(name)
        if namespace is None or not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        entries = _load(path).get(namespace)
        out.append(
            {
                "tier": namespace,
                "file": name,
                "path": path,
                "entries": len(entries) if isinstance(entries, dict) else 0,
                "bytes": size,
                "current": name == f"{namespace}-{fingerprint[:12]}.json",
            }
        )
    return out


def clear(directory: str) -> int:
    """Delete every store file and stray temp file; returns the count.

    ``.lock`` files stay (see the module docstring).
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if _namespace_of(name) is None or not name.endswith((".json", ".tmp")):
            continue
        try:
            os.unlink(os.path.join(directory, name))
            removed += 1
        except OSError:
            pass
    return removed
