"""Unit tests for plan serialization."""

import json

import pytest

from repro.errors import SimulationError
from repro.mapping.distribute import TopologyAwareMapper
from repro.runtime import execute_plan
from repro.runtime.serialize import plan_from_json, plan_to_json, result_to_dict


@pytest.fixture
def plan(fig5_program, fig9_machine):
    mapper = TopologyAwareMapper(fig9_machine, block_size=32, local_scheduling=True)
    return mapper.map_nest(fig5_program, fig5_program.nests[0]).plan()


class TestRoundTrip:
    def test_identical_rounds(self, plan, fig5_program, fig9_machine):
        text = plan_to_json(plan)
        restored = plan_from_json(text, fig5_program, fig9_machine)
        assert restored.rounds == plan.rounds
        assert restored.label == plan.label

    def test_simulates_identically(self, plan, fig5_program, fig9_machine):
        restored = plan_from_json(plan_to_json(plan), fig5_program, fig9_machine)
        assert execute_plan(restored).cycles == execute_plan(plan).cycles

    def test_json_is_plain(self, plan):
        payload = json.loads(plan_to_json(plan))
        assert payload["format"] == 1
        assert isinstance(payload["rounds"], list)


class TestValidation:
    def test_malformed_json(self, fig5_program, fig9_machine):
        with pytest.raises(SimulationError):
            plan_from_json("{not json", fig5_program, fig9_machine)

    def test_wrong_format_version(self, plan, fig5_program, fig9_machine):
        payload = json.loads(plan_to_json(plan))
        payload["format"] = 99
        with pytest.raises(SimulationError):
            plan_from_json(json.dumps(payload), fig5_program, fig9_machine)

    def test_machine_mismatch(self, plan, fig5_program, two_core_machine):
        with pytest.raises(SimulationError):
            plan_from_json(plan_to_json(plan), fig5_program, two_core_machine)

    def test_tampered_rounds_detected(self, plan, fig5_program, fig9_machine):
        payload = json.loads(plan_to_json(plan))
        payload["rounds"][0][0] = payload["rounds"][0][0][1:]  # drop an iteration
        with pytest.raises(Exception):
            plan_from_json(json.dumps(payload), fig5_program, fig9_machine)

    @pytest.mark.parametrize("retype", [float, bool], ids=["float", "bool"])
    def test_non_int_coordinate_rejected(self, stencil_program, fig9_machine, retype):
        # The retyped coordinate still equals the int it replaces, so a
        # set-based cover check passes it; the decoder must refuse it.
        mapper = TopologyAwareMapper(fig9_machine, block_size=64)
        plan = mapper.map_nest(stencil_program, stencil_program.nests[0]).plan()
        payload = json.loads(plan_to_json(plan))
        points = (p for core in payload["rounds"] for rnd in core for p in rnd)
        point = next(p for p in points if p[0] == 1)
        point[0] = retype(point[0])
        with pytest.raises(SimulationError, match="must be int"):
            plan_from_json(json.dumps(payload), stencil_program, fig9_machine)


class TestResultDict:
    def test_flattens(self, plan):
        result = execute_plan(plan)
        payload = result_to_dict(result)
        assert payload["cycles"] == result.cycles
        assert "L1" in payload["levels"]
        json.dumps(payload)  # fully JSON-serializable
