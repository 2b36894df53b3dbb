"""Wire codec and validation of remap events."""

from __future__ import annotations

import pytest

from repro.errors import RemapError
from repro.remap.events import (
    CoreHotplug,
    CoreLoss,
    PhaseChange,
    TopologyEdit,
    event_kind,
    event_to_dict,
    parse_event,
)


class TestPhaseChange:
    def test_of_sorts_and_exposes_changes(self):
        event = PhaseChange.of(beta=0.2, alpha=0.8)
        assert event.knobs == (("alpha", 0.8), ("beta", 0.2))
        assert event.knob_changes == {"alpha": 0.8, "beta": 0.2}
        assert event.nest is None

    def test_unknown_knob_rejected(self):
        with pytest.raises(RemapError, match="unknown knobs"):
            PhaseChange.of(warp_speed=9)

    def test_round_trip(self):
        event = PhaseChange.of(nest="kernel", alpha=0.8)
        decoded = parse_event(event_to_dict(event))
        assert decoded == event

    def test_parse_requires_knobs_object(self):
        with pytest.raises(RemapError, match="knobs"):
            parse_event({"kind": "phase_change"})
        with pytest.raises(RemapError, match="knobs"):
            parse_event({"kind": "phase_change", "knobs": [1, 2]})

    def test_parse_validates_nest_type(self):
        with pytest.raises(RemapError, match="nest"):
            parse_event(
                {"kind": "phase_change", "knobs": {"alpha": 0.5}, "nest": 3}
            )


class TestCoreEvents:
    @pytest.mark.parametrize("cls", [CoreLoss, CoreHotplug])
    def test_validation(self, cls):
        with pytest.raises(RemapError, match="at least one"):
            cls(())
        with pytest.raises(RemapError, match="non-negative"):
            cls((-1,))
        with pytest.raises(RemapError, match="non-negative"):
            cls((True,))
        with pytest.raises(RemapError, match="duplicate"):
            cls((1, 1))

    def test_round_trip(self):
        for event in (CoreLoss((0, 3)), CoreHotplug((5,))):
            assert parse_event(event_to_dict(event)) == event

    def test_parse_requires_list(self):
        with pytest.raises(RemapError, match="cores"):
            parse_event({"kind": "core_loss", "cores": 3})


class TestTopologyEdit:
    def test_parse_by_machine_name(self):
        event = parse_event({"kind": "topology_edit", "machine": "arch-I"})
        assert isinstance(event, TopologyEdit)
        assert event.machine.name == "arch-I"

    def test_parse_by_spec_with_scale(self):
        spec = "cores=2; mem=100; L1:1K/2/32@2 per 1; L2:4K/4/32@8 per 2"
        full = parse_event({"kind": "topology_edit", "topology": spec})
        halved = parse_event(
            {"kind": "topology_edit", "topology": spec, "scale": 2}
        )
        assert halved.machine.total_cache_bytes() * 2 == full.machine.total_cache_bytes()

    def test_parse_exactly_one_source(self):
        with pytest.raises(RemapError, match="exactly one"):
            parse_event({"kind": "topology_edit"})
        with pytest.raises(RemapError, match="exactly one"):
            parse_event(
                {"kind": "topology_edit", "machine": "arch-I", "topology": "core"}
            )

    def test_bad_scale(self):
        with pytest.raises(RemapError, match="scale"):
            parse_event(
                {"kind": "topology_edit", "machine": "arch-I", "scale": -2}
            )

    def test_bool_scale_refused(self):
        with pytest.raises(RemapError, match="scale"):
            parse_event(
                {"kind": "topology_edit", "machine": "arch-II", "scale": True}
            )


def test_event_kind_covers_all():
    from repro.topology.machines import machine_by_name

    assert event_kind(PhaseChange.of(alpha=0.5)) == "phase_change"
    assert event_kind(CoreLoss((1,))) == "core_loss"
    assert event_kind(CoreHotplug((1,))) == "core_hotplug"
    assert event_kind(TopologyEdit(machine_by_name("arch-I"))) == "topology_edit"
    with pytest.raises(RemapError):
        event_kind("not an event")


def test_parse_rejects_unknown_kind():
    with pytest.raises(RemapError, match="unknown event kind"):
        parse_event({"kind": "restart"})
    with pytest.raises(RemapError, match="object"):
        parse_event("core_loss")
