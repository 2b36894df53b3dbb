"""Vectorized kernels for the hot tagging/affinity paths.

The three hottest paths of the pass — iteration tagging
(:mod:`repro.blocks.tagger`), greedy clustering
(:mod:`repro.mapping.clustering`) and local scheduling
(:mod:`repro.mapping.schedule`) — evaluate affine subscripts and tag dot
products one Python integer at a time over the full iteration space K.
This package provides NumPy bulk equivalents: affine offset forms are
evaluated as array operations over the whole iteration space, and tags
are packed into fixed-width ``uint64`` lanes so dot products and Hamming
distances become popcounts over small arrays
(:mod:`repro.kernels.lanes`, :mod:`repro.kernels.affinity`).

Every vectorized entry point is *bit-identical* to the scalar reference
implementation it accelerates; the scalar code stays in place as the
oracle, and the differential tests under ``tests/kernels/`` assert
identity on randomized nests.  Callers select the implementation with a
``backend`` switch:

* ``"auto"`` — NumPy when importable, scalar otherwise (the default);
* ``"python"`` — always the scalar reference;
* ``"numpy"`` — require NumPy; raise :class:`~repro.errors.KernelError`
  when it is not importable.

Even under ``"numpy"``, individual kernels degrade gracefully to the
scalar path for inputs they cannot vectorize — tags wider than the lane
budget, or non-rectangular iteration spaces — because that is a
data-dependent property, not a configuration error.
"""

from __future__ import annotations

import warnings

from repro import obs
from repro.errors import KernelError

BACKENDS = ("auto", "python", "numpy")

#: Widest tag the packed representation will accept, in 64-bit lanes.
#: 256 lanes = 16384 data blocks; beyond that the dense ``uint64`` rows
#: stop paying for themselves and the scalar big-int path takes over.
DEFAULT_MAX_LANES = 256

_numpy_probe: bool | None = None

#: Fallback reasons already reported through :func:`warnings.warn`; each
#: reason warns once per process so CI logs show which backend actually
#: ran without drowning in repeats.  The obs counter fires every time.
_warned_reasons: set[str] = set()

#: The known scalar-fallback reasons and their one-line explanations.
FALLBACK_REASONS = {
    "no-numpy": "NumPy is not importable; the scalar reference backend is used",
    "lane-budget": "tag width exceeds the packed uint64 lane budget",
    "sim-unresolved": (
        "batched LRU filter pass left too much unresolved reuse work; "
        "the scalar level loop is used for this stream"
    ),
}


def note_fallback(reason: str, where: str) -> None:
    """Record a silent-scalar-fallback event: obs counter + one warning.

    ``reason`` is one of :data:`FALLBACK_REASONS`; ``where`` names the
    call site (e.g. ``"tagging"``, ``"clustering"``).  The counter
    ``kernels.fallback.<reason>`` increments on every event; the
    ``warnings.warn`` fires once per reason per process, so logs state
    which backend actually ran without flooding.
    """
    obs.count(f"kernels.fallback.{reason}")
    obs.count(f"kernels.fallback_at.{where}")
    if reason not in _warned_reasons:
        _warned_reasons.add(reason)
        detail = FALLBACK_REASONS.get(reason, reason)
        warnings.warn(
            f"repro.kernels: scalar fallback at {where} ({reason}): {detail}",
            RuntimeWarning,
            stacklevel=3,
        )


def reset_fallback_warnings() -> None:
    """Forget which reasons already warned (test isolation hook)."""
    _warned_reasons.clear()


def have_numpy() -> bool:
    """True when NumPy is importable (probed once, then cached)."""
    global _numpy_probe
    if _numpy_probe is None:
        try:
            import numpy  # noqa: F401

            _numpy_probe = True
        except ImportError:  # pragma: no cover - depends on environment
            _numpy_probe = False
    return _numpy_probe


def resolve_backend(backend: str = "auto") -> str:
    """Resolve a ``backend`` argument to ``"python"`` or ``"numpy"``.

    ``"auto"`` picks NumPy when available and the scalar reference
    otherwise; asking for ``"numpy"`` without NumPy installed raises
    :class:`~repro.errors.KernelError`.
    """
    if backend not in BACKENDS:
        raise KernelError(
            f"unknown kernel backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        if have_numpy():
            return "numpy"
        note_fallback("no-numpy", "resolve_backend")
        return "python"
    if backend == "numpy" and not have_numpy():
        raise KernelError("backend 'numpy' requested but numpy is not importable")
    return backend


def fits_lane_budget(num_bits: int, max_lanes: int = DEFAULT_MAX_LANES) -> bool:
    """True when a ``num_bits``-wide tag fits the packed lane budget."""
    return num_bits <= 64 * max_lanes
