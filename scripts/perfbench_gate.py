"""Run the repo's benchmark and fail unless every checked operation passed.

Runs the command ``BENCHMARK.json`` declares (``python3 perfbench/run.py``,
all defaults), echoes its output, and exits 1 when the command exits
non-zero or its last output line reports ``correct: false`` or
``failed > 0``.  perfbench verifies every plan, simulation and service
answer it times, so this is a correctness gate.  Timings are printed,
never compared: compare them between a parent and a change on one host.

Usage:
    python scripts/perfbench_gate.py
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(stdout):
    """Why a run's output fails the gate, or None when it passes."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last line is not JSON: {lines[-1]!r}"
    if result.get("correct") is not True:
        return "correct: false"
    if result.get("failed") != 0:
        return f"failed: {result.get('failed')}"
    return None


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    done = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    print(done.stdout, end="")
    reason = f"exited {done.returncode}" if done.returncode else verdict(done.stdout)
    if reason:
        print(f"perfbench gate: FAIL ({reason})", file=sys.stderr)
        return 1
    print("perfbench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
