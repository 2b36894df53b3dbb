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
        assert payload["format"] == 2
        assert payload["box"] == [list(bounds) for bounds in plan.codec.box]
        assert isinstance(payload["rounds"], list)
        # Each round is a list of [start, length] runs.
        runs = [run for core in payload["rounds"] for rnd in core for run in rnd]
        assert sum(length for _, length in runs) == plan.total_iterations()


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
        run = payload["rounds"][0][0][0]
        if run[1] > 1:
            run[1] -= 1  # drop an iteration
        else:
            del payload["rounds"][0][0][0]
        with pytest.raises(SimulationError, match="plan covers"):
            plan_from_json(json.dumps(payload), fig5_program, fig9_machine)

    @pytest.mark.parametrize("retype", [float, bool], ids=["float", "bool"])
    def test_non_int_coordinate_rejected(self, stencil_program, fig9_machine, retype):
        # The retyped run value still equals the int it replaces, so the
        # plan would cover the nest; the decoder must refuse it.
        mapper = TopologyAwareMapper(fig9_machine, block_size=64)
        plan = mapper.map_nest(stencil_program, stencil_program.nests[0]).plan()
        payload = json.loads(plan_to_json(plan))
        runs = (run for core in payload["rounds"] for rnd in core for run in rnd)
        run = next(run for run in runs if run[0] == 0)
        run[0] = retype(run[0])
        with pytest.raises(SimulationError, match="must be int"):
            plan_from_json(json.dumps(payload), stencil_program, fig9_machine)


def _set(path, value):
    """A mutation that sets ``payload[path[0]][path[1]]...`` to ``value``."""

    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
        return payload

    return mutate


def _drop(key):
    def mutate(payload):
        del payload[key]
        return payload

    return mutate


#: One malformed payload per shape; every one must raise SimulationError.
MALFORMED = {
    "list-payload": lambda payload: [payload],
    "string-payload": lambda payload: "plan",
    "missing-nest": _drop("nest"),
    "unknown-nest": _set(["nest"], "nope"),
    "missing-rounds": _drop("rounds"),
    "missing-box": _drop("box"),
    "missing-label": _drop("label"),
    "machine-not-object": _set(["machine"], ["cores"]),
    "machine-missing-key": lambda payload: _drop("cores")(payload["machine"]) and payload,
    "rounds-not-list": _set(["rounds"], {"0": []}),
    "core-not-list": _set(["rounds", 0], 7),
    "round-not-list": _set(["rounds", 0, 0], 5),
    "run-not-pair": _set(["rounds", 0, 0, 0], [0]),
    "float-start": _set(["rounds", 0, 0, 0, 0], float),
    "bool-length": _set(["rounds", 0, 0, 0, 1], lambda length: True),
    "string-length": _set(["rounds", 0, 0, 0, 1], str),
    "zero-length": _set(["rounds", 0, 0, 0, 1], 0),
    "negative-length": _set(["rounds", 0, 0, 0, 1], -3),
    "negative-start": _set(["rounds", 0, 0, 0, 0], -1),
    "run-past-box": _set(["rounds", 0, 0, 0], [10**6, 1]),
    "huge-start": _set(["rounds", 0, 0, 0, 0], 2**70),
    "box-mismatch": _set(["box", 0, 1], lambda hi: hi + 1),
    "too-many-cores": _set(["rounds"], lambda rounds: rounds + [[]] * 9),
}


class TestMalformedPayload:
    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_raises_simulation_error(self, plan, fig5_program, fig9_machine, shape):
        payload = MALFORMED[shape](json.loads(plan_to_json(plan)))
        with pytest.raises(SimulationError):
            plan_from_json(json.dumps(payload), fig5_program, fig9_machine)

    @pytest.mark.parametrize(
        "text", [b"\xff\xfe{", "[" * 100_000], ids=["not-utf8", "too-deep"]
    )
    def test_undecodable_text(self, fig5_program, fig9_machine, text):
        with pytest.raises(SimulationError):
            plan_from_json(text, fig5_program, fig9_machine)


class TestResultDict:
    def test_flattens(self, plan):
        result = execute_plan(plan)
        payload = result_to_dict(result)
        assert payload["cycles"] == result.cycles
        assert "L1" in payload["levels"]
        json.dumps(payload)  # fully JSON-serializable
