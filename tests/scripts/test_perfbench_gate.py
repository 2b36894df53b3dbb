"""The perfbench gate's verdict on the benchmark's last output line."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location(
    "perfbench_gate", REPO_ROOT / "scripts" / "perfbench_gate.py"
)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def output(**result) -> str:
    row = "paper-cold       seed=1  wall_s=7.5 s"
    return f"{row}\n{json.dumps({'attempted': 24, 'metrics': {}, **result})}\n"


def test_correct_run_passes():
    assert gate.verdict(output(correct=True, failed=0)) is None


@pytest.mark.parametrize(
    "stdout, reason",
    [
        (output(correct=False, failed=0), "correct: false"),
        (output(correct=True, failed=2), "failed: 2"),
        (output(correct=True), "failed: None"),
        ("", "no output"),
        ("paper-cold: exited 1\n", "last line is not JSON"),
    ],
)
def test_failing_runs(stdout, reason):
    assert reason in gate.verdict(stdout)
