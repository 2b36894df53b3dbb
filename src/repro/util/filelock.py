"""Advisory cross-process file locks for the shared disk tiers.

Service workers and concurrent experiment runs share one cache
directory, so the write-through :class:`repro.util.store.JsonStore`
needs mutual exclusion around its read-merge-replace cycles.
:class:`FileLock` wraps ``fcntl.flock`` on an adjacent ``*.lock`` file —
the lock file is never deleted, so there is no unlink race, and the
kernel drops the lock automatically if the holder is SIGKILLed (which
is exactly the fault-injection scenario the service tests exercise: a
killed worker must never leave the store wedged).

On platforms without :mod:`fcntl` the lock degrades to ``O_EXCL``
create-spin with stale-lock breaking; single-host POSIX is the supported
deployment, the fallback only keeps imports working elsewhere.
"""

from __future__ import annotations

import os
import time

try:  # POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


class LockTimeout(OSError):
    """The lock could not be acquired within the caller's timeout."""


class FileLock:
    """An exclusive advisory lock on ``path`` (a dedicated lock file).

    Usage::

        with FileLock(store_path + ".lock"):
            ...read-merge-replace...

    ``blocking=False`` turns :meth:`acquire` into a single attempt that
    returns ``False`` instead of waiting — that is how single-writer
    compaction elects its writer (losers simply skip).
    """

    #: Poll interval for the non-fcntl fallback and timed fcntl waits.
    _POLL_S = 0.01

    def __init__(self, path: str, timeout: float = 30.0):
        self.path = path
        self.timeout = timeout
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self, blocking: bool = True) -> bool:
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path!r} is already held")
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        if fcntl is not None:
            return self._acquire_flock(blocking)
        return self._acquire_excl(blocking)  # pragma: no cover - non-POSIX

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        else:  # pragma: no cover - non-POSIX
            os.close(fd)
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        if not self.acquire(blocking=True):
            raise LockTimeout(f"could not lock {self.path!r}")
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # -- implementations -------------------------------------------------
    def _acquire_flock(self, blocking: bool) -> bool:
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                if not blocking or time.monotonic() >= deadline:
                    os.close(fd)
                    if blocking:
                        raise LockTimeout(
                            f"lock {self.path!r} not acquired within "
                            f"{self.timeout:.1f}s"
                        ) from None
                    return False
                time.sleep(self._POLL_S)
            else:
                self._fd = fd
                return True

    def _acquire_excl(self, blocking: bool) -> bool:  # pragma: no cover
        deadline = time.monotonic() + self.timeout
        stale_after = max(self.timeout, 60.0)
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644)
            except FileExistsError:
                try:
                    age = time.time() - os.stat(self.path).st_mtime
                    if age > stale_after:
                        os.unlink(self.path)
                        continue
                except OSError:
                    continue
                if not blocking or time.monotonic() >= deadline:
                    if blocking:
                        raise LockTimeout(
                            f"lock {self.path!r} not acquired within "
                            f"{self.timeout:.1f}s"
                        ) from None
                    return False
                time.sleep(self._POLL_S)
            else:
                self._fd = fd
                return True
