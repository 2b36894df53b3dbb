"""The canonical mapper knob set and its per-stage cache tuples.

Every cache in the repo that keys on "how the mapper was configured" —
the service's two-tier mapping cache, the experiment harness memo and
disk cache, and the pipeline's per-stage artifact store — derives its
knob tuple from this one dataclass.  Before the staged pipeline existed,
the service protocol and the harness each hand-assembled their own
tuples, which is exactly the kind of key drift that silently serves a
stale mapping when one of the two grows a knob the other forgot.

:attr:`STAGE_KNOBS` records which knobs each stage of the chain actually
reads; :meth:`Knobs.stage_tuple` returns the *cumulative* tuple for a
stage (its own knobs plus every upstream stage's), which is the part of
a stage artifact's cache key that makes late-knob sweeps cheap: two
configurations that differ only in α/β share every tuple up to and
including ``distribute`` and diverge only at ``schedule``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import MappingError

#: The paper's chain (Section 3), in execution order.
STAGE_ORDER = ("blocksize", "tagging", "dependence", "distribute", "schedule")

#: Knobs each stage reads (beyond program/nest/machine).  Keys follow
#: the paper: block size is the Section 4.1 heuristic's override;
#: ``max_groups`` is the tagging explosion guard; ``dependence_policy``
#: picks between Section 3.5.2's barrier and co-cluster options;
#: ``balance_threshold``/``cluster_strategy`` shape the Figure 6
#: descent; α/β and ``local_scheduling`` are Section 3.5.3.
STAGE_KNOBS: dict[str, tuple[str, ...]] = {
    "blocksize": ("block_size",),
    "tagging": ("max_groups",),
    "dependence": ("dependence_policy",),
    "distribute": ("balance_threshold", "cluster_strategy"),
    "schedule": ("local_scheduling", "alpha", "beta"),
}

_FLOAT_KNOBS = frozenset({"balance_threshold", "alpha", "beta"})


@dataclass(frozen=True)
class Knobs:
    """Mapper parameters, normalized for hashing (the knob tuple).

    Defaults mirror the service protocol's (Section 4.1 values with
    local scheduling on); :class:`~repro.mapping.distribute.TopologyAwareMapper`
    constructs its own instance from its arguments, so its historical
    ``local_scheduling=False`` default is unaffected.
    """

    block_size: int | None = None
    balance_threshold: float = 0.10
    alpha: float = 0.5
    beta: float = 0.5
    local_scheduling: bool = True
    dependence_policy: str = "barrier"
    cluster_strategy: str = "greedy"
    max_groups: int | None = 50_000

    def __post_init__(self) -> None:
        if self.dependence_policy not in ("barrier", "co-cluster"):
            raise MappingError(
                f"unknown dependence policy {self.dependence_policy!r}"
            )
        if self.cluster_strategy not in ("greedy", "kl"):
            raise MappingError(
                f"unknown cluster strategy {self.cluster_strategy!r}"
            )
        if self.block_size is not None and self.block_size <= 0:
            raise MappingError(
                f"block_size must be positive, got {self.block_size}"
            )

    def _value(self, name: str):
        value = getattr(self, name)
        if name in _FLOAT_KNOBS:
            return round(value, 6)
        return value

    def stage_tuple(self, stage: str) -> tuple:
        """Cumulative knob tuple for ``stage``: its knobs plus upstream's.

        This is the knob component of a stage artifact's cache key.  Two
        configurations share a stage artifact iff their cumulative
        tuples match — so the tuple must cover every knob that can
        influence the stage's output, directly or through its inputs.
        """
        if stage not in STAGE_KNOBS:
            raise MappingError(
                f"unknown pipeline stage {stage!r}; known: {STAGE_ORDER}"
            )
        out: list = []
        for name in STAGE_ORDER:
            out.extend(self._value(field) for field in STAGE_KNOBS[name])
            if name == stage:
                break
        return tuple(out)

    def as_tuple(self) -> tuple:
        """The full canonical knob tuple (every stage's knobs, in stage
        order) — the knob component of whole-result cache keys."""
        return self.stage_tuple(STAGE_ORDER[-1])

    def replace(self, **changes) -> "Knobs":
        """A copy with some knobs changed (sweep convenience)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(changes)
        return Knobs(**values)
