"""CI smoke test for the mapping service.

Boots the real daemon as a subprocess, fires ~50 concurrent requests at
it — a mix of cache hits, cache misses, and one past-deadline request —
and then shuts it down with SIGTERM.  The run fails (exit 1) if any
request gets a 5xx, if the past-deadline request is not degraded, if
the daemon does not drain and exit cleanly, or if the plan in any
distinct 200 body does not decode (``plan_from_json`` against the
submitted program and the scaled machine, parsed the way the service
parses them).  Latency percentiles, response sizes and the daemon's own
/stats snapshot are written as a JSON artifact for the CI run to upload.

With ``--cache-dir DIR`` the daemon runs with ``--persistent --cache-dir
DIR``.  After the drain the script boots it again over the same
directory and additionally fails unless a repeated request answers
``cache: "disk"`` with a plan that decodes, and ``repro cache info --dir
DIR`` lists a ``plans`` and a ``mappings`` file.

Usage:
    python scripts/service_smoke.py [--out service-smoke.json]
            [--requests 50] [--workers 2] [--cache-dir DIR]
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.runtime.serialize import plan_from_json  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.protocol import parse_request  # noqa: E402

SOURCE_TEMPLATE = """\
param m = {m};
array B[{m}];
array Q[{m}];
parallel for (i = 0; i < m; i++)
  B[i] = B[i] + Q[i] + Q[m - 1 - i];
"""

#: Distinct program shapes — each is one pipeline run; repeats hit the cache.
VARIANTS = [SOURCE_TEMPLATE.format(m=m) for m in (16, 24, 32, 40, 48)]


def repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def boot_daemon(workers, extra_args=()):
    # stderr goes to a file, not a pipe: nothing drains a pipe during
    # the run, and on failure we want the worker tracebacks back.
    stderr_file = tempfile.NamedTemporaryFile(
        mode="w+", prefix="repro-smoke-", suffix=".stderr", delete=False
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--queue-size", "64", "--workers", str(workers), *extra_args],
        stdout=subprocess.PIPE, stderr=stderr_file, text=True, env=repro_env(),
    )
    proc.stderr_path = stderr_file.name
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if not match:
        proc.kill()
        proc.wait(timeout=10)
        raise SystemExit(
            f"no port in daemon banner: {banner!r}: "
            f"{stderr_tail(proc, limit=500)}"
        )
    return proc, int(match.group(1))


def stderr_tail(proc, limit=4000):
    """The last ``limit`` characters of the daemon's stderr file."""
    try:
        with open(proc.stderr_path, encoding="utf-8",
                  errors="replace") as handle:
            text = handle.read()
        os.unlink(proc.stderr_path)
    except OSError:
        return ""
    return text[-limit:]


def fire(client, index, failures):
    """One request; returns (label, status, elapsed_ms, cache_tier,
    answer), where ``answer`` is ``(request payload, body)`` for a 200."""
    if index == 7:
        # The deliberate past-deadline request: must degrade, not fail.
        payload = {"source": VARIANTS[0], "machine": "nehalem",
                   "scale": 32, "deadline_ms": 0}
        label = "deadline"
    else:
        payload = {"source": VARIANTS[index % len(VARIANTS)],
                   "machine": "dunnington", "scale": 32}
        label = "mapped"
    started = time.perf_counter()
    status, _headers, body = client.request("POST", "/map", payload)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if status >= 500:
        failures.append(f"request {index}: HTTP {status}: {body[:200]!r}")
        return label, status, elapsed_ms, None, None
    parsed = json.loads(body)
    if label == "deadline" and not parsed.get("degraded"):
        failures.append("past-deadline request was not degraded")
    if status == 200 and label == "mapped" and not parsed.get("ok"):
        failures.append(f"request {index}: ok=false: {parsed}")
    answer = (payload, body) if status == 200 else None
    return label, status, elapsed_ms, parsed.get("cache"), answer


def decode_plans(answers, failures):
    """Decode the plan of every distinct 200 body against the program
    and scaled machine its request named; returns how many decoded."""
    decoded = 0
    for body, payload in {body: payload for payload, body in answers}.items():
        try:
            request = parse_request(payload)
            mapping = json.dumps(json.loads(body)["mapping"])
            plan_from_json(mapping, request.program, request.machine)
        except Exception as error:  # noqa: BLE001 - every failure is reported
            failures.append(f"served plan does not decode: {type(error).__name__}: {error}")
        else:
            decoded += 1
    return decoded


def drain(proc, failures):
    """SIGTERM the daemon and wait for a clean exit; returns its code."""
    proc.send_signal(signal.SIGTERM)
    try:
        exit_code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        exit_code = None
        failures.append("daemon did not exit within 60s of SIGTERM")
    if exit_code not in (None, 0):
        failures.append(f"daemon exited {exit_code}, expected 0")
    return exit_code


def check_restart(workers, daemon_args, cache_dir, failures):
    """Reboot over the same cache directory and check the disk tiers."""
    proc, port = boot_daemon(workers, daemon_args)
    tier = None
    try:
        client = ServiceClient(port=port, timeout=120)
        client.wait_ready(timeout=30)
        # Request 0 repeats one the first boot mapped; the router cache
        # and the worker LRU start empty, so only the disk can answer.
        _label, _status, _ms, tier, answer = fire(client, 0, failures)
    finally:
        exit_code = drain(proc, failures)
    if tier != "disk":
        failures.append(f"repeat after restart answered cache={tier!r}, "
                        "expected 'disk'")
    decoded = decode_plans([answer] if answer else [], failures)
    listing = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "info", "--dir", cache_dir],
        capture_output=True, text=True, env=repro_env(), check=False,
    )
    listed = {line.split("|")[0].strip()
              for line in listing.stdout.splitlines()[2:]}
    for wanted in ("plans", "mappings"):
        if wanted not in listed:
            failures.append(f"repro cache info lists no {wanted} file")
    return {
        "restart_cache_tier": tier,
        "restart_plan_decoded": decoded == 1,
        "restart_exit_code": exit_code,
        "cache_info": listing.stdout.splitlines(),
    }, stderr_tail(proc)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="service-smoke.json")
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="run persistent over DIR, then restart and "
                             "require disk-tier answers")
    args = parser.parse_args(argv)

    daemon_args = []
    if args.cache_dir:
        daemon_args = ["--persistent", "--cache-dir", args.cache_dir]
    proc, port = boot_daemon(args.workers, daemon_args)
    failures = []
    results = []
    try:
        client = ServiceClient(port=port, timeout=120)
        client.wait_ready(timeout=30)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(fire, client, index, failures)
                for index in range(args.requests)
            ]
            results = [f.result() for f in futures]
        stats = client.stats()
    finally:
        exit_code = drain(proc, failures)
    daemon_stderr = stderr_tail(proc)

    latencies = sorted(ms for _label, _status, ms, _tier, _answer in results)
    answers = [answer for *_rest, answer in results if answer is not None]
    sizes = sorted(len(body) for _payload, body in answers)
    decoded = decode_plans(answers, failures)
    statuses = {}
    tiers = {}
    for _label, status, _ms, tier, _answer in results:
        statuses[str(status)] = statuses.get(str(status), 0) + 1
        if tier is not None:
            tiers[tier] = tiers.get(tier, 0) + 1
    # Repeats are cache hits: the worker LRU in single mode, the router
    # byte-cache (or a sibling's disk entry) in shard mode.
    cached = sum(tiers.get(tier, 0) for tier in ("memory", "router", "disk"))
    if cached == 0:
        failures.append("no request was answered from a cache tier")

    report = {
        "requests": len(results),
        "statuses": statuses,
        "cache_tiers": tiers,
        "latency_ms": {
            "p50": round(statistics.median(latencies), 2) if latencies else None,
            "p95": round(latencies[int(0.95 * (len(latencies) - 1))], 2)
            if latencies else None,
            "max": round(latencies[-1], 2) if latencies else None,
        },
        "response_bytes": {
            "median": statistics.median(sizes) if sizes else None,
            "max": sizes[-1] if sizes else None,
        },
        "plans_decoded": decoded,
        "daemon_exit_code": exit_code,
        "stats": stats,
        "failures": failures,
    }
    summary_keys = ["requests", "statuses", "cache_tiers", "latency_ms",
                    "response_bytes", "plans_decoded", "daemon_exit_code"]
    if args.cache_dir:
        report["persistent"], restart_stderr = check_restart(
            args.workers, daemon_args, args.cache_dir, failures
        )
        daemon_stderr = "\n".join(filter(None, (daemon_stderr, restart_stderr)))
        summary_keys.append("persistent")
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps({k: report[k] for k in summary_keys}, indent=2))
    if failures:
        print("FAILURES:", *failures, sep="\n  ", file=sys.stderr)
        if daemon_stderr:
            report["daemon_stderr_tail"] = daemon_stderr
            with open(args.out, "w") as handle:
                json.dump(report, handle, indent=2)
            print(f"--- daemon stderr tail ---\n{daemon_stderr}",
                  file=sys.stderr)
        return 1
    print(f"service smoke OK -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
