"""Vectorized kernels for the paths that walk the iteration space K.

Iteration tagging (:mod:`repro.blocks.tagger`) evaluates every
reference at every point of K, and the batched cache simulator
(:mod:`repro.kernels.cachesim`) replays every access of a plan.  This
package provides their NumPy bulk forms.  One evaluator,
:func:`repro.kernels.offsets.offset_columns`, turns every reference —
affine, or indirect through an index array — into element offsets over
coordinate columns; tagging (:mod:`repro.kernels.tagging`) and the
batched trace builder consume it, and access streams are filtered and
replayed level by level as arrays.  Tags themselves stay Python
integers everywhere: a tag dot product is one AND plus a C-speed
popcount, so the mapping layer has a single scalar implementation.

Every vectorized entry point is *bit-identical* to the scalar reference
implementation it accelerates; the scalar code stays in place as the
oracle, and the differential tests under ``tests/kernels/`` assert
identity on randomized nests.  :func:`repro.blocks.tagger.tag_iterations`
selects the implementation with a ``backend`` switch:

* ``"auto"`` — NumPy when importable, scalar otherwise (the default);
* ``"python"`` — always the scalar reference;
* ``"numpy"`` — require NumPy; raise :class:`~repro.errors.KernelError`
  when it is not importable.

The switch applies to every nest, affine or indirect.  Even under
``"numpy"``, tagging runs the scalar path for a non-rectangular
iteration space, because that is a property of the nest, not a
configuration error.
"""

from __future__ import annotations

import warnings

from repro import obs
from repro.errors import KernelError

BACKENDS = ("auto", "python", "numpy")

_numpy_probe: bool | None = None

#: Fallback reasons already reported through :func:`warnings.warn`; each
#: reason warns once per process so CI logs show which backend actually
#: ran without drowning in repeats.  The obs counter fires every time.
_warned_reasons: set[str] = set()

#: The known scalar-fallback reasons and their one-line explanations.
FALLBACK_REASONS = {
    "no-numpy": "NumPy is not importable; the scalar reference backend is used",
    "sim-unresolved": (
        "batched LRU filter pass left too much unresolved reuse work; "
        "the scalar level loop is used for this stream"
    ),
}


def note_fallback(reason: str, where: str) -> None:
    """Record a silent-scalar-fallback event: obs counter + one warning.

    ``reason`` is one of :data:`FALLBACK_REASONS`; ``where`` names the
    call site (e.g. ``"resolve_backend"``, ``"sim.level"``).  The counter
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
