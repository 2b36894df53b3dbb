"""End-to-end: the instrumented pipeline emits the documented span set.

This is the acceptance check behind ``--trace-out``: mapping plus
simulation of the paper's Figure 5 example must cover the tag /
affinity / cluster / balance / schedule / sim phases with their
decision counters (see docs/OBSERVABILITY.md for the catalogue).
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.experiments import harness
from repro.mapping.distribute import TopologyAwareMapper
from repro.obs.sinks import CollectorSink, read_jsonl
from repro.runtime import execute_plan

PIPELINE_SPANS = {
    "tag.iterations",
    "affinity.pairs",
    "cluster.distribute",
    "balance",
    "schedule",
    "map.nest",
    "map.partition",
    "map.tagging",
    "map.dependence",
    "map.clustering",
    "map.scheduling",
    "sim.run",
    "sim.trace_build",
}

PIPELINE_COUNTERS = {
    "tag.groups_formed",
    "cluster.merges",
    "cluster.levels",
    "schedule.rounds",
    "map.nests_mapped",
    "sim.runs",
    "sim.accesses",
}


def _run_pipeline(fig5_program, fig9_machine):
    mapper = TopologyAwareMapper(fig9_machine, block_size=4 * 8, local_scheduling=True)
    result = mapper.map_nest(fig5_program, fig5_program.nests[0])
    execute_plan(result.plan())


class TestPipelineTrace:
    def test_span_set_covers_every_phase(self, fig5_program, fig9_machine):
        col = CollectorSink()
        with obs.tracing(col):
            _run_pipeline(fig5_program, fig9_machine)
        names = {r["name"] for r in col.spans()}
        missing = PIPELINE_SPANS - names
        assert not missing, f"phases without spans: {sorted(missing)}"

    def test_decision_counters_recorded(self, fig5_program, fig9_machine):
        col = CollectorSink()
        with obs.tracing(col):
            _run_pipeline(fig5_program, fig9_machine)
        counters = col.summary()["counters"]
        missing = PIPELINE_COUNTERS - set(counters)
        assert not missing, f"decisions without counters: {sorted(missing)}"
        assert counters["tag.groups_formed"] == 8  # Figure 10(a)
        assert counters["map.nests_mapped"] == 1
        assert counters["sim.runs"] == 1
        assert counters["sim.accesses"] > 0
        backend = [k for k in counters if k.startswith("kernels.backend.")]
        assert backend, "no backend-selection counter recorded"

    def test_cache_level_counters(self, fig5_program, fig9_machine):
        col = CollectorSink()
        with obs.tracing(col):
            _run_pipeline(fig5_program, fig9_machine)
        counters = col.summary()["counters"]
        l1 = [k for k in counters if k.startswith("sim.L1.")]
        assert l1, "no per-level sim hit/miss counters"

    def test_phase_nesting_under_map_nest(self, fig5_program, fig9_machine):
        col = CollectorSink()
        with obs.tracing(col):
            _run_pipeline(fig5_program, fig9_machine)
        nest_ids = {r["id"] for r in col.spans() if r["name"] == "map.nest"}
        for phase in ("map.partition", "map.tagging", "map.clustering",
                      "map.scheduling"):
            spans = [r for r in col.spans() if r["name"] == phase]
            assert spans, phase
            for sp in spans:
                assert sp["parent"] in nest_ids
        by_id = {r["id"]: r for r in col.spans()}
        for sp in col.spans():
            if sp["name"] == "cluster.distribute":
                assert by_id[sp["parent"]]["name"] == "map.clustering"

    def test_plan_fragmentation_counters(self, fig5_program, fig9_machine):
        """Every scheme that builds a plan counts its runs and points."""
        from repro.blocks.datablocks import DataBlockPartition
        from repro.mapping.baselines import base_plan, base_plus_plan, local_plan

        nest = fig5_program.nests[0]
        part = DataBlockPartition(list(fig5_program.arrays.values()), 4 * 8)
        mapper = TopologyAwareMapper(fig9_machine, block_size=4 * 8, local_scheduling=True)
        schemes = {
            "ta+s": lambda: mapper.map_nest(fig5_program, nest).plan(),
            "base": lambda: base_plan(nest, fig9_machine),
            "base+": lambda: base_plus_plan(nest, fig9_machine),
            "local": lambda: local_plan(nest, fig9_machine, part),
        }
        for scheme, build in schemes.items():
            col = CollectorSink()
            with obs.tracing(col):
                plan = build()
            counters = col.summary()["counters"]
            assert counters["plan.runs"] == plan.run_count() >= 1, scheme
            assert counters["plan.points"] == nest.iteration_count(), scheme

    def test_pipeline_untouched_without_recorder(self, fig5_program, fig9_machine):
        # Instrumentation must never require an installed recorder.
        assert not obs.enabled()
        _run_pipeline(fig5_program, fig9_machine)
        assert obs.get_recorder() is None


class TestFigureTrace:
    def test_noop_without_env(self, fig5_program, monkeypatch):
        monkeypatch.delenv(harness.TRACE_DIR_ENV, raising=False)
        with harness.figure_trace("fig13"):
            pass
        assert not obs.enabled()

    def test_writes_per_figure_jsonl(self, fig5_program, fig9_machine, tmp_path,
                                     monkeypatch):
        monkeypatch.setenv(harness.TRACE_DIR_ENV, str(tmp_path))
        with harness.figure_trace("fig13"):
            _run_pipeline(fig5_program, fig9_machine)
        path = os.path.join(str(tmp_path), "fig13.jsonl")
        records = read_jsonl(path)
        names = {r["name"] for r in records if r.get("type") == "span"}
        assert "figure" in names
        assert "map.nest" in names and "sim.run" in names
        assert not obs.enabled()

    def test_outer_recorder_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(harness.TRACE_DIR_ENV, str(tmp_path))
        col = CollectorSink()
        with obs.tracing(col):
            with harness.figure_trace("fig13"):
                obs.count("inside", 1)
        assert not os.path.exists(os.path.join(str(tmp_path), "fig13.jsonl"))
        assert col.summary()["counters"] == {"inside": 1}
        names = {r["name"] for r in col.spans()}
        assert "figure" in names


class TestCliTracing:
    SOURCE = """
    param k = 4;
    param m = 48;
    array B[48];
    parallel for (j = 2*k; j < m - 2*k; j++)
      B[j] = B[j] + B[2*k + j] + B[j - 2*k];
    """

    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "fig5.loop"
        path.write_text(self.SOURCE)
        return str(path)

    def test_map_trace_out(self, program_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["map", program_file, "--block-size", "32",
                     "--trace-out", str(out)])
        assert code == 0
        names = {r["name"] for r in read_jsonl(str(out))
                 if r.get("type") == "span"}
        assert "cli.map" in names and "map.nest" in names

    def test_trace_subcommand_covers_pipeline(self, program_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["trace", program_file, "--block-size", "32",
                     "--out", str(out)])
        assert code == 0
        records = read_jsonl(str(out))
        names = {r["name"] for r in records if r.get("type") == "span"}
        missing = PIPELINE_SPANS - names
        assert not missing, f"trace subcommand missed: {sorted(missing)}"
        printed = capsys.readouterr().out
        assert "Per-phase timings" in printed
        assert "Decision counters" in printed

    def test_trace_subcommand_no_sim(self, program_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["trace", program_file, "--block-size", "32",
                     "--out", str(out), "--no-sim"])
        assert code == 0
        names = {r["name"] for r in read_jsonl(str(out))
                 if r.get("type") == "span"}
        assert "map.nest" in names
        assert "sim.run" not in names

    def test_trace_subcommand_profile(self, program_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["trace", program_file, "--block-size", "32",
                     "--out", str(out), "--profile"])
        assert code == 0
        kinds = {r["type"] for r in read_jsonl(str(out))}
        assert "profile" in kinds
        assert "profile of span" in capsys.readouterr().out
