"""Figure 20: partial-hierarchy versions and the optimal mapping (Arch-I).

Two questions: (a) must the *entire* hierarchy be considered?  The paper
compares TopologyAware restricted to L1+L2 and to L1+L2+L3 against the
full L1..L4 version (full wins by 21.8% and 12.7% respectively); (b) how
far is the heuristic from an optimal group-to-core mapping (ILP in the
paper, ~7.6% gap)?  Our optimal stand-in is simulated annealing over the
cache-tree sharing objective, seeded with the heuristic's own assignment
(see repro.mapping.optimal).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.harness import (
    FigureResult,
    geometric_mean,
    mapping_for,
    run_custom,
    run_scheme,
    scheme_knobs,
    sim_machine,
)
from repro.mapping.distribute import ExecutablePlan
from repro.mapping.optimal import anneal_assignment, sharing_cost
from repro.mapping.schedule import dependence_only_schedule
from repro.runtime import execute_plan
from repro.topology.machines import arch_i
from repro.workloads import paper_workloads


def _optimal_cycles(app, machine) -> int:
    def compute():
        mapping = mapping_for(app, machine, scheme_knobs(app, "ta"))
        assignment = anneal_assignment(
            [g for groups in mapping.assignments for g in groups],
            machine,
            cost=sharing_cost,
            start=mapping.assignments,
            iterations=3000,
        )
        rounds = dependence_only_schedule(assignment, machine, mapping.graph)
        plan = ExecutablePlan.from_group_rounds(machine, app.nest(), rounds, "optimal")
        return execute_plan(plan, machine=machine)

    tag = ("fig20-optimal", app.name, machine.name, 3000)
    return run_custom(tag, machine, compute).cycles


def run(apps: Sequence[str] | None = None) -> FigureResult:
    selected = [w for w in paper_workloads() if apps is None or w.name in apps]
    full = sim_machine(arch_i())
    two = full.truncated(2)
    three = full.truncated(3)
    ratios: dict[str, list[float]] = {"L1+L2": [], "L1+L2+L3": [], "full": [], "optimal": []}
    for app in selected:
        base = run_scheme(app, "base", full).cycles
        ratios["L1+L2"].append(
            run_scheme(app, "ta", full, mapping_machine=two).cycles / base
        )
        ratios["L1+L2+L3"].append(
            run_scheme(app, "ta", full, mapping_machine=three).cycles / base
        )
        ratios["full"].append(run_scheme(app, "ta", full).cycles / base)
        ratios["optimal"].append(_optimal_cycles(app, full) / base)
    rows = [
        (label, round(geometric_mean(values), 3)) for label, values in ratios.items()
    ]
    return FigureResult(
        figure="Figure 20: hierarchy depth used by the mapper + optimal (Arch-I, vs Base)",
        headers=("version", "normalized cycles"),
        rows=tuple(rows),
        notes="paper: full hierarchy beats L1+L2 by 21.8% and L1+L2+L3 by "
        "12.7%; the heuristic is within ~7.6% of optimal.",
    )


if __name__ == "__main__":
    print(run().table())
