"""State-machine behaviour of the Remapper and its stage accounting."""

from __future__ import annotations

import pytest

from repro.errors import RemapError
from repro.remap.core import Remapper
from repro.remap.events import (
    CoreHotplug,
    CoreLoss,
    PhaseChange,
    TopologyEdit,
)

from tests.conftest import bench_machine


class TestTransitions:
    def test_prime_maps_every_nest(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        assert set(remapper.plans) == {n.name for n in stencil_program.nests}

    def test_empty_program_rejected(self, machine):
        from repro.ir.loops import Program

        with pytest.raises(RemapError, match="no loop nests"):
            Remapper(Program("empty", (), ()), machine)

    def test_core_loss_prunes_view(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        outcome = remapper.apply(CoreLoss((2, 5)))
        assert outcome.machine.num_cores == machine.num_cores - 2
        assert remapper.dead == {2, 5}
        assert outcome.kind == "core_loss"

    def test_loss_of_unknown_core(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        with pytest.raises(RemapError, match="unknown or already-dead"):
            remapper.apply(CoreLoss((99,)))

    def test_double_loss_rejected(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        remapper.apply(CoreLoss((2,)))
        with pytest.raises(RemapError, match="already-dead"):
            remapper.apply(CoreLoss((2,)))

    def test_cannot_lose_every_core(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        with pytest.raises(RemapError, match="every core"):
            remapper.apply(CoreLoss(tuple(machine.core_ids())))

    def test_hotplug_restores_base_ids(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        remapper.apply(CoreLoss((2,)))
        outcome = remapper.apply(CoreHotplug((2,)))
        assert outcome.machine.num_cores == machine.num_cores
        assert remapper.dead == set()

    def test_hotplug_of_live_core_rejected(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        with pytest.raises(RemapError, match="never went away"):
            remapper.apply(CoreHotplug((2,)))

    def test_phase_change_is_per_nest(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        name = stencil_program.nests[0].name
        remapper.apply(PhaseChange.of(nest=name, alpha=0.9, beta=0.1))
        assert remapper.knobs_for(name).alpha == 0.9

    def test_phase_change_unknown_nest(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        with pytest.raises(RemapError, match="no nest"):
            remapper.apply(PhaseChange.of(nest="nope", alpha=0.9))

    def test_topology_edit_clears_dead_set(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        remapper.apply(CoreLoss((2,)))
        outcome = remapper.apply(TopologyEdit(bench_machine(4)))
        assert remapper.dead == set()
        assert outcome.machine.num_cores == 4


class TestStageAccounting:
    def test_late_knob_change_replays_prefix(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        outcome = remapper.apply(PhaseChange.of(alpha=0.9, beta=0.1))
        # alpha/beta only feed the scheduling stage.
        assert outcome.stages_recomputed == 1
        assert outcome.stages_replayed == 4

    def test_core_loss_carries_prefix(self, stencil_program, machine, knobs):
        """blocksize/tagging/dependence key on no part of the tree, so
        they replay across the core loss."""
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        outcome = remapper.apply(CoreLoss((2,)))
        assert outcome.stages_replayed == 3
        assert outcome.stages_recomputed == 2  # distribute + schedule

    def test_revisited_state_is_pure_replay(self, stencil_program, machine, knobs):
        remapper = Remapper(stencil_program, machine, knobs=knobs)
        remapper.apply(CoreLoss((2,)))
        remapper.apply(CoreHotplug((2,)))
        outcome = remapper.apply(CoreLoss((2,)))
        assert outcome.stages_recomputed == 0
        assert outcome.stages_replayed == 5
