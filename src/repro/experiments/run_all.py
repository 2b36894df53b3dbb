"""Run every experiment and print the full report.

Usage::

    python -m repro.experiments.run_all               # everything
    python -m repro.experiments.run_all --quick       # 6-app subset
    python -m repro.experiments.run_all --charts      # + ASCII bar charts
    python -m repro.experiments.run_all --jobs 8      # parallel prewarm
    python -m repro.experiments.run_all --only fig13  # one step

Three layers keep repeat invocations fast:

* the in-memory memo shares runs between figures within one invocation;
* the persistent disk cache (on by default; ``--no-cache`` bypasses it,
  ``repro cache clear`` wipes it) makes a *re*-invocation near-instant;
* with ``--jobs N > 1`` the driver first runs every figure in spec
  recording mode — collecting the simulation runs they need without
  executing them — then fans the recorded specs over a process pool and
  seeds the memo with the workers' results.  The figures then render
  serially from the warm memo, so output is byte-identical to a serial
  run.  Workers also ship their obs counters back, keeping traces
  meaningful.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro import obs
from repro.experiments import harness, tables
from repro.experiments import (
    ablation_alpha_beta,
    ablation_clustering,
    ablation_compile_time,
    ablation_dynamic,
    fig02_motivation,
    fig13_main,
    fig14_cross_machine,
    fig15_scheduling,
    fig16_blocksize,
    fig17_cores,
    fig18_deep_hierarchies,
    fig19_small_caches,
    fig20_levels_optimal,
    zoo_sweep,
)

QUICK_APPS = ("galgel", "equake", "facesim", "namd", "h264", "applu")


def _steps(apps, machines=None):
    zoo_apps = None
    if apps is not None:
        zoo_apps = tuple(a for a in apps if a in zoo_sweep.SWEEP_APPS) or None
    return [
        ("Table 1", lambda: tables.table1()),
        ("Table 2", lambda: tables.table2()),
        ("Figure 2", lambda: fig02_motivation.run()),
        ("Figure 13", lambda: fig13_main.run(apps)),
        ("Figure 13 (misses)", lambda: fig13_main.miss_reductions(apps)),
        ("Figure 14", lambda: fig14_cross_machine.run(apps)),
        ("Figure 15", lambda: fig15_scheduling.run(apps)),
        ("Figure 16", lambda: fig16_blocksize.run(apps)),
        ("Figure 17", lambda: fig17_cores.run(apps)),
        ("Figure 18", lambda: fig18_deep_hierarchies.run(apps)),
        ("Figure 19", lambda: fig19_small_caches.run(apps)),
        ("Figure 20", lambda: fig20_levels_optimal.run(apps)),
        ("Machine zoo", lambda: zoo_sweep.run(zoo_apps, machines)),
        ("Machine zoo (irregular)", lambda: zoo_sweep.run_irregular(machines)),
        ("Ablation a/b", lambda: ablation_alpha_beta.run()),
        ("Ablation compile time", lambda: ablation_compile_time.run(apps)),
        ("Ablation dynamic", lambda: ablation_dynamic.run(apps)),
        ("Ablation clustering", lambda: ablation_clustering.run(apps)),
    ]


def _slug(label: str) -> str:
    """The label's words, lower-cased and joined by ``_``: a bare file
    name (``Ablation a/b`` -> ``ablation_a_b``)."""
    return "_".join(re.findall(r"[a-z0-9]+", label.lower()))


def _matches(needle: str, label: str) -> bool:
    """Substring match against the label and its slug, separator-blind.

    ``--only fig13``, ``--only "Figure 13"`` and ``--only figure_13`` all
    select the "Figure 13" steps: comparisons also run with spaces,
    underscores, and the ``figure``/``fig`` spelling difference
    collapsed, so the slug users see in trace file names and the short
    form used throughout the docs both work.
    """
    slug = _slug(label)
    needle = needle.lower()
    if needle in slug or needle in label.lower():
        return True
    flat = slug.replace("_", "").replace("figure", "fig")
    return needle.replace("_", "").replace(" ", "").replace("figure", "fig") in flat


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="run the paper's experiment suite and print every table",
    )
    parser.add_argument("--quick", action="store_true",
                        help="6-app subset instead of all workloads")
    parser.add_argument("--workload", action="append", default=None,
                        metavar="NAME", dest="workloads",
                        help="restrict the figures to workload NAME "
                             "(repeatable; see 'repro workloads list')")
    parser.add_argument("--charts", action="store_true",
                        help="append an ASCII bar chart to each figure")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the simulation prewarm "
                             "(default: CPU count; 1 disables the pool)")
    parser.add_argument("--only", default=None, metavar="SUBSTR",
                        help="run only steps whose name contains SUBSTR "
                             "(matched against e.g. 'figure_13')")
    parser.add_argument("--machine", action="append", default=None,
                        metavar="SPEC", dest="machines",
                        help="restrict the machine-zoo sweep to SPEC "
                             "(repeatable; builtin name, zoo:<name>, "
                             "sysfs:<path>, or lscpu:<path>)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent result cache entirely")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent cache directory "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    return parser


def _run_chunk(specs):
    """Worker: execute one chunk of recorded specs.

    Runs with the disk cache off — the parent is the only writer — and
    under a sink-less recorder so decision counters incremented during
    the runs travel back to the parent.
    """
    harness.disable_disk_cache()
    with obs.tracing() as recorder:
        results = [harness.execute_spec(spec) for spec in specs]
        counters = dict(recorder.counters)
    return results, counters


def _chunk_specs(specs):
    """Group specs by (workload, mapping machine): runs in one chunk share
    the worker's mapping memo, so the expensive mapping phase happens once
    per group rather than once per run."""
    groups: dict = {}
    for spec in specs:
        machine = spec.mapping_machine or spec.machine or spec.version
        groups.setdefault((spec.app, machine.name), []).append(spec)
    return list(groups.values())


def _prewarm(steps, jobs: int) -> None:
    """Record the steps' uncached runs and execute them over a pool."""
    t0 = time.perf_counter()
    specs = harness.record_specs(lambda: [runner() for _, runner in steps])
    if not specs:
        return
    chunks = _chunk_specs(specs)
    print(f"[prewarm: {len(specs)} runs / {len(chunks)} chunks on {jobs} workers]")
    with obs.span("experiments.prewarm", runs=len(specs), jobs=jobs):
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
            for future in as_completed(futures):
                chunk = futures[future]
                results, counters = future.result()
                for spec, result in zip(chunk, results):
                    harness.seed_result(spec, result)
                for name, value in counters.items():
                    obs.count(name, value)
    print(f"[prewarm: done in {time.perf_counter() - t0:.1f}s]")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    apps = QUICK_APPS if args.quick else None
    if args.workloads:
        # Validate names up front: an unknown workload is a usage error
        # (exit 2 with the menu), matching the machine-spec behavior.
        from repro.errors import UnknownWorkloadError
        from repro.workloads import workload

        try:
            for name in args.workloads:
                workload(name)
        except UnknownWorkloadError as error:
            print(f"error: unknown workload {error.name!r}; known workloads: "
                  f"{', '.join(error.known)}", file=sys.stderr)
            return 2
        apps = tuple(args.workloads)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)

    if args.machines:
        # Validate the specs up front: an unknown machine is a usage
        # error (exit 2 with the menu), same contract as --only.
        from repro.errors import UnknownMachineError
        from repro.topology.resolve import resolve_machine

        try:
            for spec in args.machines:
                resolve_machine(spec)
        except UnknownMachineError as error:
            print(f"error: unknown machine {error.spec!r}; known machines: "
                  f"{', '.join(error.known)}", file=sys.stderr)
            return 2

    steps = _steps(apps, args.machines)
    if args.only:
        all_slugs = [_slug(label) for label, _runner in steps]
        steps = [s for s in steps if _matches(args.only, s[0])]
        if not steps:
            print(
                f"error: no step matches --only {args.only!r}; available "
                f"steps: {', '.join(all_slugs)}",
                file=sys.stderr,
            )
            return 2
    if not args.no_cache:
        harness.enable_disk_cache(args.cache_dir)
    try:
        if jobs > 1:
            _prewarm(steps, jobs)
        for label, runner in steps:
            t0 = time.perf_counter()
            # With REPRO_TRACE_DIR set, each step writes <dir>/<slug>.jsonl.
            with harness.figure_trace(_slug(label)):
                result = runner()
            elapsed = time.perf_counter() - t0
            print(result.table())
            if args.charts:
                _maybe_chart(result)
            print(f"[{label}: {elapsed:.1f}s]")
            print()
    finally:
        harness.disable_disk_cache()
    return 0


def _maybe_chart(result) -> None:
    """Chart the last numeric column, when one exists."""
    from repro.errors import ExperimentError
    from repro.experiments.charts import figure_chart

    for header in reversed(result.headers):
        try:
            chart = figure_chart(result, header)
        except ExperimentError:
            continue
        print()
        print(chart)
        return


if __name__ == "__main__":
    raise SystemExit(main())
