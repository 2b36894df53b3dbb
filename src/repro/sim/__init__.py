"""Trace-driven multicore cache-hierarchy simulator.

This package substitutes for the paper's Intel machines and its
Simics/GEMS simulation platform.  The paper attributes the entire effect
of its pass to on-chip cache behavior ("this difference across execution
times is due entirely to on-chip cache behavior"), so a cycle-accounting
cache simulator parameterized by the same topology trees and latencies
exercises the mechanism under study:

* :class:`~repro.sim.cachesim.SetAssociativeCache` — one cache component
  (LRU, configurable sets/ways/line);
* :class:`~repro.sim.hierarchy.MachineSim` — all components of a
  :class:`~repro.topology.tree.Machine` wired per its topology tree,
  shared components instantiated once;
* :class:`~repro.sim.engine` — multi-core interleaved execution of an
  :class:`~repro.mapping.distribute.ExecutablePlan` with barrier
  synchronization between rounds;
* :class:`~repro.sim.stats.SimResult` — cycles plus per-level hit/miss
  accounting with conservation invariants.

Modeling notes (documented simplifications): write-allocate, no
write-back traffic, no coherence invalidations (the paper's workloads are
data-parallel with disjoint writes), fills propagate toward the core on
the access path, and a fixed barrier overhead models the round
synchronization.
"""

from repro.sim.cachesim import SetAssociativeCache
from repro.sim.dynamic import simulate_dynamic
from repro.sim.hierarchy import MachineSim
from repro.sim.engine import SimConfig, simulate_plan
from repro.sim.stats import LevelStats, SimResult

__all__ = [
    "SetAssociativeCache",
    "MachineSim",
    "SimConfig",
    "simulate_dynamic",
    "simulate_plan",
    "LevelStats",
    "SimResult",
]
