"""Watching execution and deciding when (and how) to remap.

:class:`ExecutionWatcher` consumes the :class:`~repro.sim.dynamic.ExecutionSample`
stream of a :class:`~repro.sim.dynamic.BehaviorModel` (or, one day, real
per-core counters) and drives a :class:`~repro.remap.core.Remapper`:

* a change in the active core set becomes a :class:`CoreLoss` /
  :class:`CoreHotplug` event immediately — running with a stale core
  count is wrong, not just slow;
* a jump in the observed imbalance or sharing signal beyond the
  :class:`WatchPolicy` thresholds becomes a :class:`PhaseChange` whose
  knob deltas are derived from the signals by :func:`knobs_for_signals`
  (high sharing leans the scheduler toward affinity via α, high
  imbalance tightens the balance window); small drift is ignored, so a
  steady phase never triggers churn.

The watcher is deliberately *stateless about plans* — it only remembers
the signal levels it last acted on.  All mapping state lives in the
remapper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.pipeline.knobs import Knobs
from repro.remap.core import Remapper, RemapOutcome
from repro.remap.events import CoreHotplug, CoreLoss, PhaseChange
from repro.sim.dynamic import ExecutionSample

__all__ = ["ExecutionWatcher", "WatchPolicy", "knobs_for_signals"]


@dataclass(frozen=True)
class WatchPolicy:
    """Thresholds and knob levels for the signal -> knob translation."""

    #: Minimum jump in (max-mean)/mean imbalance to call it a new phase.
    imbalance_jump: float = 0.10
    #: Minimum jump in the sharing fraction to call it a new phase.
    sharing_jump: float = 0.15
    #: Balance window used when the workload runs imbalanced / smooth.
    tight_balance: float = 0.05
    loose_balance: float = 0.10
    #: Sharing level above which the scheduler leans fully on affinity.
    high_sharing: float = 0.60

    def __post_init__(self) -> None:
        if self.imbalance_jump <= 0 or self.sharing_jump <= 0:
            raise ValueError("signal jump thresholds must be positive")


def knobs_for_signals(
    policy: WatchPolicy, current: Knobs, imbalance: float, sharing: float
) -> dict:
    """Knob changes (possibly empty) the signals ask for.

    High sharing pushes α up (locality term of the Section 3.5.3
    scheduler) and β down; high imbalance tightens the balance
    threshold.  Values are quantized so steady signals map to identical
    knobs and produce no event at all.
    """
    alpha = round(min(0.9, max(0.1, 0.2 + 0.8 * min(1.0, max(0.0, sharing)))), 1)
    beta = round(1.0 - alpha, 1)
    balance = (
        policy.tight_balance if imbalance > 2 * policy.imbalance_jump else policy.loose_balance
    )
    wanted = {
        "alpha": alpha,
        "beta": beta,
        "balance_threshold": balance,
        "local_scheduling": sharing >= policy.high_sharing or current.local_scheduling,
    }
    return {
        name: value
        for name, value in wanted.items()
        if getattr(current, name) != value
    }


class ExecutionWatcher:
    """Feeds observation samples to a remapper, emitting events as needed."""

    def __init__(self, remapper: Remapper, policy: WatchPolicy | None = None):
        self.remapper = remapper
        self.policy = policy or WatchPolicy()
        self._active: set[int] = set(remapper.state.base.core_ids()) - remapper.dead
        #: Per-nest (imbalance, sharing) levels at the last remap.
        self._last: dict[str, tuple[float, float]] = {}
        self.samples_seen = 0

    def feed(self, sample: ExecutionSample) -> list[RemapOutcome]:
        """Process one sample; returns the outcomes of any remaps it caused."""
        self.samples_seen += 1
        obs.count("remap.samples")
        outcomes: list[RemapOutcome] = []

        observed = set(sample.active_cores)
        lost = self._active - observed
        gained = observed - self._active
        if lost:
            outcomes.append(self.remapper.apply(CoreLoss(tuple(sorted(lost)))))
        if gained:
            outcomes.append(self.remapper.apply(CoreHotplug(tuple(sorted(gained)))))
        self._active = observed

        imbalance = sample.imbalance()
        sharing = sample.sharing
        last = self._last.get(sample.nest)
        jumped = last is None or (
            abs(imbalance - last[0]) > self.policy.imbalance_jump
            or abs(sharing - last[1]) > self.policy.sharing_jump
        )
        if jumped:
            changes = knobs_for_signals(
                self.policy, self.remapper.knobs_for(sample.nest), imbalance, sharing
            )
            if changes:
                event = PhaseChange(tuple(sorted(changes.items())), nest=sample.nest)
                outcomes.append(self.remapper.apply(event))
            # Acting (or deciding nothing needs to change) re-anchors the
            # levels either way, so drift is measured from the last
            # decision, not the last event.
            self._last[sample.nest] = (imbalance, sharing)
        return outcomes

    def run(self, samples) -> list[RemapOutcome]:
        """Feed a whole sample stream; returns all outcomes in order."""
        outcomes: list[RemapOutcome] = []
        for sample in samples:
            outcomes.extend(self.feed(sample))
        return outcomes
