"""Tests of the benchmark's own code (not of the program it measures)."""

import json
import re

import pytest

import common
import inproc
import service
from repro.obs.report import phase_table

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A fixed trace: one map.nest with stage children, one of which has a
#: child of its own, a sibling root, and a summary record.
FIXTURE = [
    {"type": "span", "name": "map.tagging", "id": 2, "parent": 1, "wall_ms": 4.0, "cpu_ms": 4.0},
    {"type": "span", "name": "map.refine", "id": 4, "parent": 3, "wall_ms": 6.5, "cpu_ms": 6.0},
    {"type": "span", "name": "map.clustering", "id": 3, "parent": 1, "wall_ms": 9.25, "cpu_ms": 9.0},
    {"type": "span", "name": "map.nest", "id": 1, "parent": None, "wall_ms": 15.0, "cpu_ms": 14.0},
    {"type": "span", "name": "sim.replay", "id": 5, "parent": None, "wall_ms": 2.125, "cpu_ms": 2.0},
    {"type": "span", "name": "map.tagging", "id": 6, "parent": None, "wall_ms": 1.0, "cpu_ms": 1.0},
    {"type": "summary", "counters": {"cluster.merges": 7, "kernels.fallback.non-affine": 2,
                                     "kernels.fallback.sim-unresolved": 1}},
]


def phase_table_self(records):
    """The self column of ``repro.obs.report.phase_table``, by span name."""
    out = {}
    for line in phase_table(records).splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 6 and re.fullmatch(r"-?\d+\.\d{3}", cells[3]):
            out[cells[0]] = float(cells[3])
    return out


def test_self_time_matches_phase_table():
    agg = common.aggregate_spans(FIXTURE)
    expected = phase_table_self(FIXTURE)
    assert set(agg) == set(expected)
    for name, value in expected.items():
        assert round(agg[name]["self"], 3) == value
    assert agg["map.tagging"]["calls"] == 2
    assert agg["map.nest"]["self"] == pytest.approx(15.0 - 4.0 - 9.25)


def test_merge_keeps_traces_apart():
    half = common.aggregate_spans(FIXTURE)
    merged = common.merge_aggregates([half, half])
    assert merged["map.nest"]["self"] == pytest.approx(2 * half["map.nest"]["self"])
    assert common.merge_counters([{"a": 1}, {"a": 2, "b": 3}]) == {"a": 3, "b": 3}


def test_layers_from_fixture():
    spans = common.aggregate_spans(FIXTURE)
    layers = common.trace_layers(spans, common.summary_counters(FIXTURE), host_ms=20.0)
    assert layers["mapping.refine_ms"] == 6.5
    assert layers["mapping.distribute_ms"] == pytest.approx(9.25 - 6.5)
    assert layers["mapping.refine_share"] == pytest.approx(6.5 / 20.0)
    assert layers["blocks.tagging_ms"] == 5.0
    assert layers["kernels.fallbacks"] == 3
    assert layers["mapping.cluster_merges"] == 7


def test_absent_span_reads_zero():
    layers = common.trace_layers({}, {}, host_ms=0.0)
    assert set(layers.values()) == {0}
    without_refine = [r for r in FIXTURE if r.get("name") != "map.refine"]
    layers = common.trace_layers(
        common.aggregate_spans(without_refine), {}, host_ms=20.0
    )
    assert layers["mapping.refine_ms"] == 0
    assert layers["mapping.distribute_ms"] == 9.25
    assert set(common.service_layers([]).values()) == {0}
    assert set(common.model_layers([]).values()) == {0}


def schedule_bytes(seed):
    """What the daemon receives under one seed, in order, as bytes."""
    schedule = service.build_schedule(seed, 10)
    return json.dumps(
        [[e.label, e.path, e.body] for e in schedule], sort_keys=True
    ).encode()


def test_schedule_is_a_function_of_the_seed():
    first = schedule_bytes(7)
    again = schedule_bytes(7)
    other = schedule_bytes(8)
    assert first == again
    assert first != other


def test_class_mix_does_not_depend_on_the_seed():
    def mix(seed):
        counts = {}
        for entry in service.build_schedule(seed, 10):
            counts[entry.label] = counts.get(entry.label, 0) + 1
        return counts

    assert mix(1) == mix(2)
    schedule = service.build_schedule(3, 10)
    assert [e.label for e in schedule[:12]] == ["cold"] * 12
    worker_reaching = sum(1 for e in schedule if e.label != "warm")
    assert worker_reaching / len(schedule) > 0.05


def _fake_pass():
    schedule = service.build_schedule(1, 10)
    samples = []
    for index, entry in enumerate(schedule):
        sample = service.Sample(index, entry.label, 200, 1.0 + index)
        sample.fields = {"cache": "none" if entry.label != "warm" else "router",
                         "elapsed_ms": 1.0, "queue_wait_ms": 0.0,
                         "pipeline_ms": 0.5, "stages_replayed": 3,
                         "stages_recomputed": 2}
        samples.append(sample)
    verifier = service.Verifier(schedule)
    verifier.cycles = {0: (80, 100)}
    verifier.sim_s = 1.0
    return service.Pass(schedule, samples, 2.0, 0, verifier, {}, {})


def _declared_names(values, kind):
    declared = common.declared_metrics()[kind]
    for name in values:
        assert METRIC_NAME.fullmatch(name), name
    assert set(values) == set(declared)


def test_end_to_end_names_are_declared():
    outcome = inproc.PairOutcome("k/m", op_s=1.0, map_s=0.5, sim_s=0.25,
                                 ta_cycles=8, base_cycles=10)
    in_process = inproc.SetResult([outcome]).metrics()
    extra = {"setup_s": 1.0, "peak_rss_mb": 1.0}
    _declared_names({**in_process, **extra}, "end_to_end")
    _declared_names({**service.end_to_end(_fake_pass(), 1.0), **extra}, "end_to_end")


def test_per_layer_names_are_declared():
    values = common.trace_layers({}, {}, host_ms=0.0)
    values.update(common.model_layers([]))
    values.update(common.service_layers(_fake_pass().samples))
    values["obs.trace_overhead_share"] = 0.0
    _declared_names(values, "per_layer")


def test_result_line_rejects_undeclared_metrics():
    names = common.declared_metrics()["end_to_end"]
    values = {name: 1.0 for name in names}
    line = common.result_line(True, 3, 0, values, "end_to_end")
    assert line.startswith('{"correct": true, "attempted": 3, "failed": 0, "metrics"')
    with pytest.raises(ValueError):
        common.result_line(True, 3, 0, {**values, "bogus": 1.0}, "end_to_end")
    with pytest.raises(ValueError):
        common.result_line(True, 3, 0, {}, "end_to_end")


def test_interleaved_clock_leaves_out_sampling():
    speed = common.HostSpeed()
    with speed.interleaved(period_s=0.01):
        started, wall = speed.now(), common.time.perf_counter()
        while common.time.perf_counter() - wall < 0.2:
            pass
        measured = speed.now() - started
        total = common.time.perf_counter() - wall
    assert speed.samples and speed.paused_s > 0
    assert measured < total
    assert speed.factor() > 0
