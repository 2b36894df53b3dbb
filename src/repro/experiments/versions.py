"""Machine *versions* for the cross-machine experiments (Figures 2 and 14).

"The Harpertown version of the code" means: iterations distributed for
Harpertown's cache topology.  When that version runs on a machine with a
different core count, the paper regenerates it at the target thread count
("the Dunnington version is executed using 8 threads, 1 thread per core,
when ported to the other machines"), keeping the *sharing pattern* of the
source topology.  :func:`version_machine` builds exactly that: the source
machine's level structure and cache specs instantiated at the target's
core count.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.topology.cache import CacheSpec
from repro.topology.machines import KB, MB, _uniform_tree
from repro.topology.tree import Machine


def retarget_plan(plan, target: Machine):
    """Port a plan across core counts, the way naive porting does.

    More plan cores than target cores: fold the surplus cores' work onto
    the target cores round-robin (running a 12-thread version with 12
    threads on 8 cores).  Fewer: the extra target cores idle (an 8-thread
    version leaves 4 Dunnington cores unused).  Equal: unchanged.
    """
    from repro.mapping.distribute import ExecutablePlan
    from repro.poly.runs import join_runs

    n_plan = len(plan.rounds)
    n_target = target.num_cores
    if n_plan == n_target:
        return ExecutablePlan(target, plan.nest, plan.rounds, plan.label)
    if n_plan < n_target:
        num_rounds = max((len(r) for r in plan.rounds), default=0)
        empty = tuple(() for _ in range(num_rounds))
        rounds = plan.rounds + tuple(empty for _ in range(n_target - n_plan))
        return ExecutablePlan(target, plan.nest, rounds, plan.label)
    num_rounds = max(len(r) for r in plan.rounds)
    folded: list[list[tuple]] = [
        [() for _ in range(num_rounds)] for _ in range(n_target)
    ]
    for core, core_rounds in enumerate(plan.rounds):
        home = core % n_target
        for index, rnd in enumerate(core_rounds):
            folded[home][index] = join_runs(folded[home][index], rnd)
    rounds = tuple(tuple(core_rounds) for core_rounds in folded)
    return ExecutablePlan(target, plan.nest, rounds, plan.label)


def version_machine(pattern: str, num_cores: int) -> Machine:
    """A ``pattern``-topology machine with ``num_cores`` cores."""
    if num_cores % 2:
        raise ExperimentError("version machines need an even core count")
    half = num_cores // 2
    if pattern == "harpertown":
        l1 = CacheSpec("L1", 32 * KB, 8, 64, 3)
        l2 = CacheSpec("L2", 6 * MB, 24, 64, 15)
        root = _uniform_tree(num_cores, [(l1, 1), (l2, 2)])
        return Machine(f"harpertown@{num_cores}", 3.2, 320, root, sockets=2)
    if pattern == "nehalem":
        l1 = CacheSpec("L1", 32 * KB, 8, 64, 4)
        l2 = CacheSpec("L2", 256 * KB, 8, 64, 10)
        l3 = CacheSpec("L3", 8 * MB, 16, 64, 35)
        root = _uniform_tree(num_cores, [(l1, 1), (l2, 1), (l3, half)])
        return Machine(f"nehalem@{num_cores}", 2.9, 174, root, sockets=2)
    if pattern == "dunnington":
        l1 = CacheSpec("L1", 32 * KB, 8, 64, 4)
        l2 = CacheSpec("L2", 3 * MB, 12, 64, 10)
        l3 = CacheSpec("L3", 12 * MB, 16, 64, 36)
        root = _uniform_tree(num_cores, [(l1, 1), (l2, 2), (l3, half)])
        return Machine(f"dunnington@{num_cores}", 2.4, 120, root, sockets=2)
    raise ExperimentError(f"unknown version pattern {pattern!r}")
