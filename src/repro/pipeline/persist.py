"""Optional persistent tier for final-stage plan artifacts.

Intermediate artifacts (tag sets, dependence graphs, tree assignments)
hold live ``IterationGroup`` objects whose idents — which the scheduler
uses as deterministic tie-breakers — do not survive serialization, so
persisting them could replay a *valid but different* plan.  The final
stage's output, by contrast, is pure data: per-core rounds of
``(start, length)`` iteration runs.  This tier persists exactly that, in
the plan wire format (:func:`repro.runtime.serialize.plan_to_dict`),
keyed by the pipeline's schedule-stage key minus the process-local
ident epoch, in the ``plans`` namespace of
:class:`repro.util.store.JsonStore` (``plans-<fp12>.json``; see that
module for the fingerprint, the cross-process merge-on-write and the
single-writer compaction).

:meth:`MappingPipeline.plan` consults this tier before running anything,
which makes cold-process sweeps (a fresh ``repro tune`` over knobs
already explored yesterday) skip the whole chain.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.experiments.cache import code_fingerprint, default_cache_dir
from repro.ir.loops import LoopNest
from repro.mapping.distribute import ExecutablePlan
from repro.runtime.serialize import FORMAT_VERSION, plan_from_dict, plan_to_dict
from repro.topology.tree import Machine
from repro.util.store import JsonStore


def _well_formed(raw) -> bool:
    return (
        isinstance(raw, dict)
        and raw.get("format") == FORMAT_VERSION
        and isinstance(raw.get("label"), str)
        and isinstance(raw.get("rounds"), list)
    )


class PlanStore:
    """One on-disk plan store, bound to one code fingerprint.

    Safe for concurrent use from many threads and many processes.
    """

    def __init__(self, directory: str | None = None):
        self._store = JsonStore(
            directory or default_cache_dir(), "plans", code_fingerprint()
        )
        self.directory = self._store.directory
        self.fingerprint = self._store.fingerprint
        self.path = self._store.path

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: tuple, machine: Machine, nest: LoopNest) -> ExecutablePlan | None:
        """The stored plan, or ``None`` when absent or when the entry does
        not decode (any defect, a failed cover check included, is a miss)."""
        raw = self._store.get(key)
        if raw is None:
            return None
        try:
            return plan_from_dict(raw, nest, machine)
        except SimulationError:
            return None

    def put(self, key: tuple, plan: ExecutablePlan) -> None:
        self._store.put(key, plan_to_dict(plan))

    def compact(self, max_entries: int | None = None) -> dict | None:
        """Rewrite the store, dropping malformed and overflow entries.

        Single-writer: returns ``None`` when another process holds the
        compaction election, else ``{"kept", "dropped_invalid",
        "dropped_overflow"}`` (see :meth:`JsonStore.compact`).
        """
        return self._store.compact(_well_formed, max_entries)
