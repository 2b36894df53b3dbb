"""Run the layer-attributed benchmark.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one row each

Workloads: ``paper-cold`` and ``irregular-trace`` map and simulate
kernel × machine pairs in this process; ``service-mix`` drives a fresh
``repro serve --workers 2`` daemon.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

from common import ROOT, SRC, WORK_DIR, child_env, result_line

WORKLOADS = ("paper-cold", "irregular-trace", "service-mix")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import inproc
    import service

    WORK_DIR.mkdir(exist_ok=True)
    try:
        if workload == "service-mix":
            return service.run(seed, seconds, trace)
        return inproc.run(workload, seed, seconds, trace)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def format_row(workload: str, seed: int, metrics: dict) -> str:
    cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return f"{workload:16s} seed={seed}  " + "  ".join(cells)


def run_all(args) -> int:
    """Each workload in its own process; one row per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        rows.append(format_row(workload, args.seed, result["metrics"]))
    print("\n".join(rows))
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import inproc

        inproc.setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)

    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(out["failed"] == 0, out["attempted"], out["failed"],
                       out["values"], out["kind"])
    print(format_row(args.workload, args.seed, json.loads(line)["metrics"]))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
