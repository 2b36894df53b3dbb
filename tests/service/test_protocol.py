"""Request parsing, validation, and cache-key semantics."""

import pytest

from repro.lang import compile_source
from repro.runtime.serialize import program_to_dict
from repro.service.protocol import BadRequest, parse_remap_request, parse_request

from tests.service.conftest import BANDED_SOURCE


MINIBOX = (
    "name=minibox; cores=4; clock=2.0; mem=100; "
    "L1:1K/2/32@2 per 1; L2:4K/4/32@8 per 2"
)


def banded_request(**extra):
    payload = {"source": BANDED_SOURCE, "machine": "dunnington"}
    payload.update(extra)
    return payload


class TestParsing:
    def test_source_request(self):
        request = parse_request(banded_request())
        assert request.nest.iteration_count() == 32
        assert request.machine.name == "dunnington"
        assert request.knobs.local_scheduling is True

    def test_serialized_program_request(self):
        program = compile_source(BANDED_SOURCE, name="banded")
        request = parse_request(
            {"program": program_to_dict(program), "machine": "nehalem"}
        )
        assert request.program.name == "banded"
        assert request.machine.num_cores == 8

    def test_inline_topology(self):
        request = parse_request({"source": BANDED_SOURCE, "topology": MINIBOX})
        assert request.machine.num_cores == 4
        assert request.machine.name == "minibox"

    def test_scale_divides_capacities(self):
        small = parse_request(banded_request(scale=32))
        full = parse_request(banded_request())
        assert (
            small.machine.total_cache_bytes() < full.machine.total_cache_bytes()
        )

    def test_null_scale_is_the_default(self):
        request = parse_request(banded_request(scale=None))
        assert request.machine.name == "dunnington"

    def test_nest_by_name(self):
        request = parse_request(banded_request(name="banded", nest="banded"))
        assert request.nest.name == "banded"

    def test_knob_overrides(self):
        request = parse_request(
            banded_request(
                knobs={"block_size": 64, "alpha": 0.25, "local_scheduling": False}
            )
        )
        assert request.knobs.block_size == 64
        assert request.knobs.alpha == 0.25
        assert request.knobs.local_scheduling is False

    def test_defaults(self):
        request = parse_request(banded_request())
        assert request.deadline_ms is None
        assert request.no_cache is False
        assert request.debug_sleep_ms == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            [],  # not an object
            {"machine": "dunnington"},  # no program
            {"source": BANDED_SOURCE},  # no machine
            {"source": BANDED_SOURCE, "program": {}, "machine": "dunnington"},
            {"source": BANDED_SOURCE, "machine": "dunnington", "topology": "x"},
            {"source": "not a program", "machine": "dunnington"},
            {"source": BANDED_SOURCE, "machine": "no-such-machine"},
            {"source": BANDED_SOURCE, "machine": "dunnington", "nest": 3},
            {"source": BANDED_SOURCE, "machine": "dunnington", "nest": "zzz"},
            {"source": BANDED_SOURCE, "machine": "dunnington", "scale": -1},
            {"source": BANDED_SOURCE, "machine": "dunnington", "deadline_ms": -5},
            {"source": BANDED_SOURCE, "machine": "dunnington", "knobs": {"zzz": 1}},
            {"source": BANDED_SOURCE, "machine": "dunnington",
             "knobs": {"block_size": -8}},
            {"source": BANDED_SOURCE, "machine": "dunnington",
             "knobs": {"dependence_policy": "punt"}},
            {"source": BANDED_SOURCE, "machine": "dunnington", "no_cache": "yes"},
        ],
    )
    def test_bad_requests_raise(self, payload):
        with pytest.raises(BadRequest):
            parse_request(payload)

    def test_debug_sleep_requires_debug_server(self):
        with pytest.raises(BadRequest, match="debug"):
            parse_request(banded_request(debug_sleep_ms=10))
        request = parse_request(banded_request(debug_sleep_ms=10), allow_debug=True)
        assert request.debug_sleep_ms == 10.0

    def test_default_deadline_applies(self):
        request = parse_request(banded_request(), default_deadline_ms=250.0)
        assert request.deadline_ms == 250.0
        explicit = parse_request(
            banded_request(deadline_ms=50), default_deadline_ms=250.0
        )
        assert explicit.deadline_ms == 50.0


#: Knob values the one codec refuses on both surfaces: a string for a
#: bool knob, a float or a bool for an int knob, a string for a float.
BAD_KNOBS = [
    pytest.param({"local_scheduling": "false"}, id="string-for-bool"),
    pytest.param({"block_size": 64.9}, id="float-for-int"),
    pytest.param({"block_size": True}, id="bool-for-int"),
    pytest.param({"alpha": "0.25"}, id="string-for-float"),
]


def phase_change(knobs, **event):
    return banded_request(event={"kind": "phase_change", "knobs": knobs, **event})


class TestKnobCodec:
    @pytest.mark.parametrize("knobs", BAD_KNOBS)
    def test_map_checks_not_coerces(self, knobs):
        with pytest.raises(BadRequest, match="knob") as raised:
            parse_request(banded_request(knobs=knobs))
        assert raised.value.status == 400

    @pytest.mark.parametrize("knobs", BAD_KNOBS)
    def test_phase_change_checks_not_coerces(self, knobs):
        with pytest.raises(BadRequest, match="knob") as raised:
            parse_remap_request(phase_change(knobs))
        assert raised.value.status == 400

    def test_accepted_kinds(self):
        """A float knob takes a JSON integer; ``null`` unpins the block
        size; a bool knob takes a bool."""
        knobs = {"alpha": 1, "block_size": None, "local_scheduling": False}
        for decoded in (
            parse_request(banded_request(knobs=knobs)).knobs,
            parse_remap_request(phase_change(knobs)).post.knobs,
        ):
            assert decoded.alpha == 1.0 and isinstance(decoded.alpha, float)
            assert decoded.block_size is None
            assert decoded.local_scheduling is False

    def test_max_groups_refused_alike(self):
        """``max_groups`` is the server's tagging guard: no wire surface
        sets it, and both refuse it in the same words."""
        with pytest.raises(BadRequest) as on_map:
            parse_request(banded_request(knobs={"max_groups": 10}))
        with pytest.raises(BadRequest) as on_event:
            parse_remap_request(phase_change({"max_groups": 10}))
        assert str(on_map.value) == str(on_event.value)
        assert str(on_map.value).startswith("unknown knobs ['max_groups']")


class TestRemapParsing:
    def test_phase_change_for_unknown_nest(self):
        with pytest.raises(BadRequest, match="no nest"):
            parse_remap_request(phase_change({"alpha": 0.9}, nest="no_such_nest"))

    def test_phase_change_for_named_nest_is_echoed(self):
        name = parse_request(banded_request()).nest.name
        remap = parse_remap_request(phase_change({"alpha": 0.9}, nest=name))
        assert remap.post.knobs.alpha == 0.9
        assert remap.event == {
            "kind": "phase_change", "knobs": {"alpha": 0.9}, "nest": name
        }

    def test_core_loss_prunes_post_machine(self):
        remap = parse_remap_request(
            banded_request(dead_cores=[1], event={"kind": "core_loss", "cores": [2]})
        )
        assert remap.pre_machine == "dunnington-less1"
        assert remap.post.machine.num_cores == 10
        assert remap.post.topology_key != parse_request(banded_request()).topology_key

    @pytest.mark.parametrize(
        "event",
        [
            {"kind": "phase_change", "knobs": {"alpha": 0.9, "block_size": 64}},
            {"kind": "core_loss", "cores": [2]},
            {"kind": "core_hotplug", "cores": [1]},
            {"kind": "topology_edit", "machine": "arch-II", "scale": 32},
            {"kind": "topology_edit", "topology": MINIBOX},
        ],
        ids=["phase", "loss", "hotplug", "edit-by-name", "edit-by-spec"],
    )
    def test_post_states_the_next_pre_state(self, event):
        """Merged into the next body, ``post_fields`` is that body's pre
        state: an event that changes nothing maps the same state again."""
        remap = parse_remap_request(
            banded_request(scale=32, dead_cores=[1], knobs={"alpha": 0.3}, event=event)
        )
        again = parse_remap_request({
            "source": BANDED_SOURCE,
            **remap.post_fields,
            "event": {"kind": "phase_change", "knobs": {}},
        })
        assert again.pre_machine == remap.post.machine.name
        assert again.post.topology_key == remap.post.topology_key
        assert again.post.knobs == remap.post.knobs
        assert again.post_fields == remap.post_fields

    @pytest.mark.parametrize(
        "extra",
        [
            {"dead_cores": [99], "event": {"kind": "core_loss", "cores": [2]}},
            {"dead_cores": [1, 1], "event": {"kind": "core_loss", "cores": [2]}},
            {"dead_cores": [1], "event": {"kind": "core_loss", "cores": [1]}},
            {"event": {"kind": "core_hotplug", "cores": [1]}},
        ],
        ids=["dead-not-in-base", "dead-duplicate", "loss-of-dead", "hotplug-of-live"],
    )
    def test_bad_core_states(self, extra):
        with pytest.raises(BadRequest):
            parse_remap_request(banded_request(**extra))


class TestCacheKey:
    def test_key_stable_across_parses(self):
        first = parse_request(banded_request())
        second = parse_request(banded_request())
        assert first.cache_key == second.cache_key

    def test_source_and_serialized_agree(self):
        """The same program keys identically however it was submitted."""
        program = compile_source(BANDED_SOURCE, name="request")
        via_source = parse_request(banded_request())
        via_ir = parse_request(
            {"program": program_to_dict(program), "machine": "dunnington"}
        )
        assert via_source.cache_key == via_ir.cache_key

    def test_key_varies_with_inputs(self):
        base = parse_request(banded_request()).cache_key
        other_machine = parse_request(
            {"source": BANDED_SOURCE, "machine": "nehalem"}
        ).cache_key
        other_knobs = parse_request(
            banded_request(knobs={"alpha": 0.9})
        ).cache_key
        other_scale = parse_request(banded_request(scale=32)).cache_key
        assert len({base, other_machine, other_knobs, other_scale}) == 4

    def test_qos_fields_do_not_change_key(self):
        """Deadline and caching policy are QoS, not content."""
        plain = parse_request(banded_request()).cache_key
        qos = parse_request(
            banded_request(deadline_ms=5, no_cache=True)
        ).cache_key
        assert plain == qos
