"""Unit tests for the run_all driver (steps monkeypatched for speed)."""

import os
import re

import pytest

from repro.experiments import run_all
from repro.experiments.harness import FigureResult


def fake_result():
    return FigureResult("Fake figure", ("scheme", "ratio"), (("base", 1.0), ("ta", 0.8)))


class TestMain:
    def _patch(self, monkeypatch):
        import repro.experiments.tables as tables

        monkeypatch.setattr(tables, "table1", fake_result)
        monkeypatch.setattr(tables, "table2", fake_result)
        for module_name in (
            "fig02_motivation", "fig13_main", "fig14_cross_machine",
            "fig15_scheduling", "fig16_blocksize", "fig17_cores",
            "fig18_deep_hierarchies", "fig19_small_caches",
            "fig20_levels_optimal", "zoo_sweep", "ablation_alpha_beta",
            "ablation_compile_time", "ablation_dynamic", "ablation_clustering",
        ):
            module = getattr(run_all, module_name)
            monkeypatch.setattr(module, "run", lambda *a, **k: fake_result())
        import repro.experiments.fig13_main as f13

        monkeypatch.setattr(f13, "miss_reductions", lambda *a, **k: fake_result())

    def test_runs_all_steps(self, monkeypatch, capsys):
        self._patch(monkeypatch)
        assert run_all.main([]) == 0
        out = capsys.readouterr().out
        assert out.count("Fake figure") >= 15

    def test_quick_flag(self, monkeypatch, capsys):
        self._patch(monkeypatch)
        assert run_all.main(["--quick"]) == 0

    def test_charts_flag(self, monkeypatch, capsys):
        self._patch(monkeypatch)
        assert run_all.main(["--charts"]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # bar chart rendered


class TestSlugs:
    """A step's slug names its trace file, and ``--only`` matches it."""

    def test_every_slug_is_a_bare_file_name(self):
        for label, _runner in run_all._steps(None):
            slug = run_all._slug(label)
            assert re.fullmatch(r"[a-z0-9_]+", slug), (label, slug)

    @pytest.mark.parametrize(
        "needle, label",
        [("figure_15", "Figure 15"), ("machine_zoo_irregular", "Machine zoo (irregular)")],
    )
    def test_ci_names_select_their_step(self, needle, label):
        labels = [label for label, _runner in run_all._steps(None)]
        assert [name for name in labels if run_all._matches(needle, name)] == [label]

    def test_ablation_trace_lands_in_the_trace_dir(self, monkeypatch, tmp_path, capsys):
        from repro.experiments import harness

        monkeypatch.setenv(harness.TRACE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(
            run_all.ablation_alpha_beta, "run", lambda *a, **k: fake_result()
        )
        assert run_all.main(["--only", "Ablation a/b", "--no-cache", "--jobs", "1"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["ablation_a_b.jsonl"]


class TestParallelPrewarm:
    """--jobs N must change timing only, never results."""

    def _real_steps(self, monkeypatch, machine):
        from repro.experiments import harness

        def step():
            rows = tuple(
                (scheme, harness.run_scheme("h264", scheme, machine).cycles)
                for scheme in ("base", "ta")
            )
            return FigureResult("Real figure", ("scheme", "cycles"), rows)

        monkeypatch.setattr(run_all, "_steps", lambda *a, **k: [("Real", step)])

    def _invoke(self, argv, capsys):
        from repro.experiments import harness

        harness.clear_cache()
        assert run_all.main(argv) == 0
        out = capsys.readouterr().out
        # Drop timing and prewarm narration; keep the tables.
        return "\n".join(
            line for line in out.splitlines()
            if not line.startswith(("[prewarm", "[Real"))
        )

    def test_jobs_byte_identical_to_serial(self, monkeypatch, capsys, tmp_path):
        from repro.experiments.harness import sim_machine
        from repro.topology.machines import nehalem

        self._real_steps(monkeypatch, sim_machine(nehalem()))
        serial = self._invoke(
            ["--jobs", "1", "--cache-dir", str(tmp_path / "serial")], capsys
        )
        parallel = self._invoke(
            ["--jobs", "2", "--cache-dir", str(tmp_path / "par")], capsys
        )
        assert "Real figure" in serial
        assert serial == parallel

    def test_prewarm_seeds_memo(self, monkeypatch, capsys, tmp_path):
        """After the pool phase the render phase simulates nothing."""
        from repro.experiments import harness
        from repro.experiments.harness import sim_machine
        from repro.topology.machines import nehalem

        self._real_steps(monkeypatch, sim_machine(nehalem()))
        harness.clear_cache()
        from repro import obs
        from repro.obs.sinks import CollectorSink

        sink = CollectorSink()
        with obs.tracing(sink):
            assert run_all.main(
                ["--jobs", "2", "--cache-dir", str(tmp_path)]
            ) == 0
        capsys.readouterr()
        # The parent never opened a simulation span itself; the runs all
        # happened in workers (whose counters were merged back).
        parent_spans = {r.get("name") for r in sink.spans()}
        assert "experiment.scheme" not in parent_spans
        summary = sink.summary()
        assert summary["counters"].get("harness.result_memo_misses", 0) > 0

    def test_only_filter(self, monkeypatch, capsys):
        self._patch_steps_for_only(monkeypatch)
        assert run_all.main(["--only", "figure_13", "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("Fake figure") == 2  # Figure 13 + Figure 13 (misses)

    def test_only_no_match_errors(self, monkeypatch, capsys):
        self._patch_steps_for_only(monkeypatch)
        assert run_all.main(["--only", "zzz", "--no-cache"]) == 2

    def test_only_no_match_lists_available_steps(self, monkeypatch, capsys):
        self._patch_steps_for_only(monkeypatch)
        assert run_all.main(["--only", "zzz", "--no-cache", "--jobs", "4"]) == 2
        err = capsys.readouterr().err
        assert "no step matches --only 'zzz'" in err
        assert "figure_13" in err  # the error names what WOULD match

    @pytest.mark.parametrize(
        "spelling", ["fig13", "fig_13", "figure_13", "Figure 13", "FIGURE 13"]
    )
    def test_only_accepts_short_and_long_spellings(
        self, monkeypatch, capsys, spelling
    ):
        """The documented short form (fig13) and the slug users see in
        trace files (figure_13) both select the Figure 13 steps."""
        self._patch_steps_for_only(monkeypatch)
        assert run_all.main(["--only", spelling, "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("Fake figure") == 2

    def _patch_steps_for_only(self, monkeypatch):
        import repro.experiments.tables as tables

        monkeypatch.setattr(tables, "table1", fake_result)
        monkeypatch.setattr(tables, "table2", fake_result)
        for module_name in (
            "fig02_motivation", "fig13_main", "fig14_cross_machine",
            "fig15_scheduling", "fig16_blocksize", "fig17_cores",
            "fig18_deep_hierarchies", "fig19_small_caches",
            "fig20_levels_optimal", "zoo_sweep", "ablation_alpha_beta",
            "ablation_compile_time", "ablation_dynamic", "ablation_clustering",
        ):
            module = getattr(run_all, module_name)
            monkeypatch.setattr(module, "run", lambda *a, **k: fake_result())
        import repro.experiments.fig13_main as f13

        monkeypatch.setattr(f13, "miss_reductions", lambda *a, **k: fake_result())


class TestMachineFlag:
    def test_unknown_machine_exits_2(self, capsys):
        assert run_all.main(["--machine", "pdp11", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine" in err
        assert "harpertown" in err

    def test_known_zoo_machine_accepted(self, monkeypatch, capsys):
        from repro.experiments import zoo_sweep

        captured = {}

        def fake_run(apps=None, machines=None):
            captured["machines"] = machines
            return fake_result()

        monkeypatch.setattr(zoo_sweep, "run", fake_run)
        monkeypatch.setattr(
            run_all, "_steps",
            lambda apps, machines=None: [
                ("Machine zoo", lambda: zoo_sweep.run(None, machines))
            ],
        )
        assert run_all.main(
            ["--machine", "zoo:unicore", "--no-cache", "--jobs", "1"]
        ) == 0
        assert captured["machines"] == ["zoo:unicore"]
