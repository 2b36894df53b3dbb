"""Online incremental remapping for dynamic workloads.

The paper maps once, at compile time.  This package is the run-time
counterpart (ROADMAP: "Online remapping for dynamic workloads"; cf.
Paulino & Delgado's run-time decomposition in PAPERS.md): a
:class:`~repro.remap.core.Remapper` holds the live mapping state of a
program and reacts to :mod:`~repro.remap.events` — phase changes, core
loss/hot-plug, topology edits — by replaying every still-valid pipeline
stage from the :class:`~repro.pipeline.store.ArtifactStore` and
recomputing only the dirtied suffix.  The state transition
(:func:`~repro.remap.core.transition`) and the replay with its
replayed/recomputed count (:func:`~repro.remap.core.replay`) exist once
and serve the remapper and the service; the service answers each
``/remap`` with its post state, which ``repro remap --via-service``
sends back with the next event.

Every remapped plan is bit-identical to a cold map of the post-event
state; ``tests/remap/test_differential.py`` pins that.

The service exposes the same machinery per-request via ``POST /remap``
(see :mod:`repro.service`), and the CLI as ``repro remap``.
"""

from repro.remap.core import Remapper, RemapOutcome, RemapState, cold_plan, replay, transition
from repro.remap.events import (
    CoreHotplug,
    CoreLoss,
    PhaseChange,
    RemapEvent,
    TopologyEdit,
    event_kind,
    event_to_dict,
    parse_event,
)

__all__ = [
    "CoreHotplug",
    "CoreLoss",
    "PhaseChange",
    "RemapEvent",
    "RemapOutcome",
    "RemapState",
    "Remapper",
    "TopologyEdit",
    "cold_plan",
    "event_kind",
    "event_to_dict",
    "parse_event",
    "replay",
    "transition",
]
