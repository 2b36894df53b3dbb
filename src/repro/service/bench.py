"""Load benchmark for the mapping service (single vs. sharded).

Boots the real daemon as a subprocess — the same entry point operators
run — and drives a deterministic mixed workload against it:

* **cold** requests: first sighting of a distinct program, a full
  pipeline compute;
* **warm** requests: byte-identical repeats, answered by a cache tier
  (the worker LRU in single mode, the router byte-cache in shard mode);
* **degraded** requests: ``deadline_ms=0`` under a scaled topology, so
  the deadline governor must hand back a cheap fallback.

The request schedule is a pure function of the seed: the same programs,
the same ordering, the same class mix, whichever serving mode is under
test.  ``run_benchmark`` measures single-process and sharded serving on
the identical schedule and reports the throughput ratio; the CLI wrapper
(``scripts/service_load.py``) writes the report to ``BENCH_service.json``
and fails on any happy-path 5xx.

Percentile note: p50/p99 are linear-interpolation percentiles over the
per-request wall latencies observed by the client threads, so they
include queueing at the router and in the admission queue — what a
caller actually experiences.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.service.client import ServiceClient

#: Program shapes: the loop bound is the only varying dimension, which
#: keeps every variant cheap to compute while giving each a distinct
#: content digest (and hence a distinct shard slot and cache key).
SOURCE_TEMPLATE = """\
param m = {m};
array B[{m}];
array Q[{m}];
parallel for (i = 0; i < m; i++)
  B[i] = B[i] + Q[i] + Q[m - 1 - i];
"""

DEGRADED_SOURCE = SOURCE_TEMPLATE.format(m=96)


@dataclass
class BenchConfig:
    """One load run; ``requests`` is the measured request count."""

    requests: int = 20_000
    programs: int = 24          # distinct cold programs in the mix
    concurrency: int = 16       # client threads
    workers: int = 4            # shard worker processes under test
    threads: int = 2            # HTTP/admission threads per process
    queue_size: int = 128
    degraded_share: float = 0.01
    seed: int = 20100607        # the paper's conference week
    timeout_s: float = 120.0

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 1 <= self.programs <= self.requests:
            raise ValueError("programs must be in [1, requests]")
        if not 0.0 <= self.degraded_share < 1.0:
            raise ValueError("degraded_share must be in [0, 1)")


@dataclass
class Sample:
    label: str                  # cold | warm | degraded
    status: int
    elapsed_ms: float
    cache: str | None = None
    error: str | None = None


@dataclass
class LoadResult:
    mode: str
    wall_s: float
    samples: list[Sample] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return len(self.samples) / self.wall_s if self.wall_s > 0 else 0.0


def build_schedule(config: BenchConfig) -> list[dict]:
    """The deterministic request schedule for one run.

    Every entry is a ready-to-send ``/map`` payload plus its class
    label.  Each of the ``programs`` variants appears exactly once as a
    cold request (spread through the run); everything else is a warm
    repeat of an already-seen variant or a degraded-deadline probe.
    """
    rng = random.Random(config.seed)
    variants = [
        SOURCE_TEMPLATE.format(m=16 + 8 * index)
        for index in range(config.programs)
    ]
    # Cold positions: one per variant, the first at index 0 so the run
    # never opens with a warm request that has nothing to hit.
    cold_positions = {0: 0}
    free = rng.sample(range(1, config.requests), config.programs - 1)
    for variant_index, position in enumerate(sorted(free), start=1):
        cold_positions[position] = variant_index

    schedule: list[dict] = []
    seen = 0
    for position in range(config.requests):
        if position in cold_positions:
            variant = cold_positions[position]
            seen = max(seen, variant + 1)
            schedule.append({
                "label": "cold",
                "payload": {"source": variants[variant],
                            "machine": "dunnington", "scale": 32},
            })
        elif rng.random() < config.degraded_share:
            schedule.append({
                "label": "degraded",
                "payload": {"source": DEGRADED_SOURCE, "machine": "nehalem",
                            "scale": 4, "deadline_ms": 0},
            })
        else:
            schedule.append({
                "label": "warm",
                "payload": {"source": variants[rng.randrange(seen)],
                            "machine": "dunnington", "scale": 32},
            })
    return schedule


# -- daemon management ---------------------------------------------------

def _repo_src() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def boot_daemon(workers: int, threads: int, queue_size: int):
    """Start ``repro serve`` as a subprocess; returns (proc, port).

    The daemon's (and thus every worker's) stderr goes to a temp file,
    not a pipe: a pipe nobody drains for a 20k-request run would fill
    and block the daemon, and on failure we want the tail back —
    ``daemon_stderr_tail(proc)`` reads it.
    """
    env = dict(os.environ)
    src = _repo_src()
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    stderr_file = tempfile.NamedTemporaryFile(
        mode="w+", prefix="repro-serve-", suffix=".stderr", delete=False
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--threads", str(threads),
         "--queue-size", str(queue_size)],
        stdout=subprocess.PIPE, stderr=stderr_file, text=True, env=env,
    )
    proc.stderr_path = stderr_file.name
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if not match:
        proc.kill()
        proc.wait(timeout=10)
        stderr = daemon_stderr_tail(proc, limit=500)
        raise RuntimeError(f"no port in daemon banner {banner!r}: {stderr}")
    return proc, int(match.group(1))


def daemon_stderr_tail(proc, limit: int = 4000) -> str:
    """The last ``limit`` characters the daemon (or its workers) wrote
    to stderr; the temp file is removed on the way out."""
    path = getattr(proc, "stderr_path", None)
    if not path:
        return ""
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return ""
    try:
        os.unlink(path)
    except OSError:
        pass
    return text[-limit:]


def shutdown_daemon(proc) -> int | None:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=90)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
        return None


# -- load generation -----------------------------------------------------

def _fire(port: int, entry: dict, timeout_s: float) -> Sample:
    client = ServiceClient(port=port, timeout=timeout_s)
    started = time.perf_counter()
    try:
        status, _headers, body = client.request(
            "POST", "/map", entry["payload"]
        )
    except OSError as error:
        elapsed_ms = (time.perf_counter() - started) * 1e3
        return Sample(entry["label"], -1, elapsed_ms, error=str(error))
    elapsed_ms = (time.perf_counter() - started) * 1e3
    cache = None
    if status == 200:
        try:
            cache = json.loads(body).get("cache")
        except ValueError:
            pass
    return Sample(entry["label"], status, elapsed_ms, cache=cache)


def run_load(port: int, schedule: list[dict], config: BenchConfig,
             mode: str) -> LoadResult:
    """Push the whole schedule through ``concurrency`` client threads."""
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        futures = [
            pool.submit(_fire, port, entry, config.timeout_s)
            for entry in schedule
        ]
        samples = [future.result() for future in futures]
    wall_s = time.perf_counter() - started
    return LoadResult(mode=mode, wall_s=wall_s, samples=samples)


def _percentile(sorted_values: list[float], q: float) -> float | None:
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return round(sorted_values[0], 3)
    rank = q * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    frac = rank - low
    return round(
        sorted_values[low] * (1 - frac) + sorted_values[high] * frac, 3
    )


def summarize(result: LoadResult) -> dict:
    """Counts, tiers, and client-observed latency percentiles."""
    statuses: dict[str, int] = {}
    tiers: dict[str, int] = {}
    by_label: dict[str, list[float]] = {}
    errors: list[str] = []
    for sample in result.samples:
        statuses[str(sample.status)] = statuses.get(str(sample.status), 0) + 1
        if sample.cache is not None:
            tiers[sample.cache] = tiers.get(sample.cache, 0) + 1
        by_label.setdefault(sample.label, []).append(sample.elapsed_ms)
        if sample.error and len(errors) < 5:
            errors.append(sample.error)
    all_ms = sorted(ms for values in by_label.values() for ms in values)
    summary = {
        "mode": result.mode,
        "requests": len(result.samples),
        "wall_s": round(result.wall_s, 3),
        "throughput_rps": round(result.throughput_rps, 2),
        "statuses": statuses,
        "cache_tiers": tiers,
        "latency_ms": {
            "p50": _percentile(all_ms, 0.50),
            "p99": _percentile(all_ms, 0.99),
            "max": round(all_ms[-1], 3) if all_ms else None,
        },
        "by_class": {
            label: {
                "count": len(values),
                "p50": _percentile(sorted(values), 0.50),
                "p99": _percentile(sorted(values), 0.99),
            }
            for label, values in sorted(by_label.items())
        },
    }
    if errors:
        summary["transport_errors"] = errors
    return summary


def count_5xx(result: LoadResult) -> int:
    """Happy-path failures: 5xx or transport errors (status -1)."""
    return sum(1 for s in result.samples if s.status >= 500 or s.status < 0)


# -- the benchmark -------------------------------------------------------

def run_one_mode(config: BenchConfig, workers: int,
                 schedule: list[dict]) -> tuple[dict, int, int | None]:
    mode = "shard" if workers >= 2 else "single"
    proc, port = boot_daemon(workers, config.threads, config.queue_size)
    try:
        client = ServiceClient(port=port, timeout=config.timeout_s)
        client.wait_ready(timeout=60)
        result = run_load(port, schedule, config, mode=mode)
    finally:
        exit_code = shutdown_daemon(proc)
        stderr_tail = daemon_stderr_tail(proc)
    summary = summarize(result)
    summary["workers"] = workers
    summary["daemon_exit_code"] = exit_code
    bad = count_5xx(result)
    if stderr_tail and (bad or exit_code != 0):
        summary["daemon_stderr_tail"] = stderr_tail
    return summary, bad, exit_code


def run_benchmark(config: BenchConfig | None = None, *,
                  compare_single: bool = True) -> dict:
    """Measure sharded serving (and optionally the single baseline).

    Returns the ``BENCH_service.json`` payload; the caller decides what
    to do about ``bad_requests``.
    """
    config = config or BenchConfig()
    schedule = build_schedule(config)
    class_counts: dict[str, int] = {}
    for entry in schedule:
        class_counts[entry["label"]] = class_counts.get(entry["label"], 0) + 1

    report = {
        "benchmark": "repro.service.bench",
        "config": {
            "requests": config.requests,
            "programs": config.programs,
            "concurrency": config.concurrency,
            "workers": config.workers,
            "threads": config.threads,
            "queue_size": config.queue_size,
            "degraded_share": config.degraded_share,
            "seed": config.seed,
        },
        "schedule_classes": class_counts,
        "runs": [],
        "bad_requests": 0,
    }

    modes = ([1] if compare_single else []) + [config.workers]
    for workers in modes:
        summary, bad, exit_code = run_one_mode(config, workers, schedule)
        report["runs"].append(summary)
        report["bad_requests"] += bad
        if exit_code not in (0,):
            report["bad_requests"] += 1
            summary["clean_exit"] = False

    if compare_single and len(report["runs"]) == 2:
        single, shard = report["runs"]
        if single["throughput_rps"] > 0:
            report["speedup"] = round(
                shard["throughput_rps"] / single["throughput_rps"], 4
            )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Load-benchmark the mapping service "
                    "(single vs. sharded).")
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--programs", type=int, default=24)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--queue-size", type=int, default=128)
    parser.add_argument("--seed", type=int, default=20100607)
    parser.add_argument(
        "--no-compare", action="store_true",
        help="skip the single-process baseline run",
    )
    args = parser.parse_args(argv)

    config = BenchConfig(
        requests=args.requests, programs=min(args.programs, args.requests),
        concurrency=args.concurrency, workers=args.workers,
        threads=args.threads, queue_size=args.queue_size, seed=args.seed,
    )
    report = run_benchmark(config, compare_single=not args.no_compare)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    for run in report["runs"]:
        print(
            f"{run['mode']:>6} (workers={run['workers']}): "
            f"{run['throughput_rps']:.1f} req/s, "
            f"p50={run['latency_ms']['p50']}ms, "
            f"p99={run['latency_ms']['p99']}ms, "
            f"statuses={run['statuses']}"
        )
    if "speedup" in report:
        print(f"speedup (shard vs single): {report['speedup']}x")
    if report["bad_requests"]:
        print(
            f"FAIL: {report['bad_requests']} happy-path 5xx/transport "
            f"failures -> {args.out}",
            file=sys.stderr,
        )
        for run in report["runs"]:
            tail = run.get("daemon_stderr_tail")
            if tail:
                print(
                    f"--- daemon stderr tail ({run['mode']}, "
                    f"workers={run['workers']}) ---\n{tail}",
                    file=sys.stderr,
                )
        return 1
    print(f"service load OK -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
