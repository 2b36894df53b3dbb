"""The remapper's contract: every remapped plan is bit-identical to a
cold map of the post-event state.

Each case applies a short event history and compares the remapper's
plan for every affected nest against a store-less pipeline run of the
exact same (program, nest, machine, knobs) state.
"""

from __future__ import annotations

import pytest

from repro.lang import compile_source
from repro.remap.core import Remapper, cold_plan
from repro.remap.events import (
    CoreHotplug,
    CoreLoss,
    PhaseChange,
    TopologyEdit,
)

from tests.conftest import bench_machine

HISTORIES = {
    "phase_only": [
        PhaseChange.of(alpha=0.8, beta=0.2),
        PhaseChange.of(alpha=0.2, beta=0.8),
        PhaseChange.of(alpha=0.8, beta=0.2),
    ],
    "balance_change": [
        PhaseChange.of(balance_threshold=0.05),
    ],
    "loss_then_phase": [
        CoreLoss((2,)),
        PhaseChange.of(alpha=0.9, beta=0.1),
    ],
    "loss_hotplug_cycle": [
        CoreLoss((1, 6)),
        CoreHotplug((1,)),
        CoreHotplug((6,)),
        CoreLoss((1, 6)),
    ],
    "topology_edits": [
        TopologyEdit(bench_machine(4)),
        TopologyEdit(bench_machine(8)),
    ],
    "edit_after_loss": [
        CoreLoss((3,)),
        TopologyEdit(bench_machine(4)),
        CoreLoss((0,)),
    ],
    "balance_and_scheduling": [
        PhaseChange.of(balance_threshold=0.05, local_scheduling=True),
        CoreLoss((1,)),
        CoreHotplug((1,)),
        PhaseChange.of(balance_threshold=0.10, local_scheduling=False),
    ],
}


def _assert_matches_cold(program, outcome):
    for name in outcome.affected:
        nest = next(n for n in program.nests if n.name == name)
        cold = cold_plan(program, nest, outcome.machine, outcome.knobs[name])
        assert cold.rounds == outcome.plans[name].rounds, (
            f"remap diverged from cold map after {outcome.kind}"
        )
        assert cold.label == outcome.plans[name].label


def _check_history(program, machine, knobs, events):
    remapper = Remapper(program, machine, knobs=knobs)
    outcomes = [remapper.apply(event) for event in events]
    for outcome in outcomes:
        _assert_matches_cold(program, outcome)
    return outcomes


@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_stencil_remap_matches_cold(history, stencil_program, machine, knobs):
    _check_history(stencil_program, machine, knobs, HISTORIES[history])


@pytest.mark.parametrize(
    "history",
    ["phase_only", "loss_hotplug_cycle", "edit_after_loss", "balance_and_scheduling"],
)
def test_banded_remap_matches_cold(history, banded_program, machine, knobs):
    _check_history(banded_program, machine, knobs, HISTORIES[history])


def test_unpinned_block_size_across_l1_change(stencil_program, machine):
    """A topology edit that changes L1 capacity with block_size unpinned
    must still match cold: the carry is refused, everything recomputes."""
    from repro.pipeline.knobs import Knobs

    knobs = Knobs(alpha=0.5, beta=0.5)
    remapper = Remapper(stencil_program, machine, knobs=knobs)
    edited = machine.with_scaled_caches(0.5)
    outcome = remapper.apply(TopologyEdit(edited))
    assert outcome.stages_recomputed == 5
    name = outcome.affected[0]
    nest = next(n for n in stencil_program.nests if n.name == name)
    cold = cold_plan(stencil_program, nest, edited, knobs)
    assert cold.rounds == outcome.plans[name].rounds


def revisit_schedule(machine):
    """29 events that mostly revisit earlier states: three knob points
    cycled, one core flapping, an edit to a 4-core machine and back."""
    a, b, c = (
        PhaseChange.of(alpha=0.8, beta=0.2),
        PhaseChange.of(alpha=0.2, beta=0.8),
        PhaseChange.of(alpha=0.5, beta=0.5),
    )
    lost = (machine.core_ids()[2],)
    flap = [CoreLoss(lost), CoreHotplug(lost)]
    edits = [TopologyEdit(bench_machine(4)), TopologyEdit(machine)]
    return [
        a, b, c, a, b, c, *flap, *flap, a, c, *edits, *edits, b, c,
        *flap, *flap, a, b, c, *flap, a, c,
    ]


def _mostly_replayed(outcomes):
    replayed = sum(o.stages_replayed for o in outcomes)
    recomputed = sum(o.stages_recomputed for o in outcomes)
    return replayed > 3 * recomputed


def test_revisit_schedule_matches_cold(machine, knobs):
    """Every post-event plan of a long revisit-heavy schedule over a
    6x6 five-point stencil equals a cold map of that state."""
    program = compile_source(
        """
        array U[8][8];
        array V[8][8];
        parallel for (i = 1; i <= 6; i++)
          for (j = 1; j <= 6; j++)
            V[i][j] = U[i][j] + U[i-1][j] + U[i+1][j] + U[i][j-1] + U[i][j+1];
        """,
        name="stencil6",
    )
    outcomes = _check_history(program, machine, knobs, revisit_schedule(machine))
    assert _mostly_replayed(outcomes)

