"""CI smoke test for the mapping service.

Boots the real daemon as a subprocess, fires ~50 concurrent requests at
it — a mix of cache hits, cache misses, and one past-deadline request —
and then shuts it down with SIGTERM.  The run fails (exit 1) if any
request gets a 5xx, if the past-deadline request is not degraded, if
the daemon does not drain and exit cleanly, or if the plan in any
distinct 200 body does not decode (``plan_from_json`` against the
submitted program and the scaled machine, parsed the way the service
parses them).  After the ``/map`` mix every variant gets a ``/remap``
``core_loss`` of core 1, then a ``core_hotplug`` of it with
``dead_cores: [1]``; the run also fails unless each answers 200 with a
plan that decodes against the post-event machine, and the ``remap``
stanza reads 3 stages replayed / 2 recomputed for the loss (the L1
capacity stays put, so blocksize, tagging and dependence hit) and 5 / 0
for the hot-plug (the post state is the one ``/map`` already mapped).
Then ``repro remap --via-service`` runs two histories against the same
daemon, and the run fails unless each second answer maps the state the
first event left, which the CLI sends back from the first answer's
``remap.post``: after a ``phase_change`` to alpha 0.8 / beta 0.2, the
``core_loss`` answer's key carries those knobs; after a
``topology_edit`` to arch-II at scale 32, its ``pre_machine`` is
``arch-II-x0.03125``.  Latency percentiles, response sizes, the remap
and CLI rows and the daemon's own /stats snapshot are written as a JSON
artifact for the CI run to upload.

With ``--cache-dir DIR`` the daemon runs with ``--persistent --cache-dir
DIR``.  After the drain the script boots it again over the same
directory and additionally fails unless a repeated request answers
``cache: "disk"`` with a plan that decodes, and ``repro cache info --dir
DIR`` lists a ``plans`` file and no ``mappings`` file (the plan store is
the service's one disk tier).

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

from repro.pipeline.knobs import Knobs  # noqa: E402
from repro.runtime.serialize import plan_from_json  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.protocol import parse_remap_request, parse_request  # noqa: E402

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


#: The two /remap steps sent to every variant, with the (replayed,
#: recomputed) stage counts each must report.
REMAP_STEPS = (
    ({"event": {"kind": "core_loss", "cores": [1]}}, (3, 2)),
    ({"event": {"kind": "core_hotplug", "cores": [1]}, "dead_cores": [1]}, (5, 0)),
)


def remap_variants(client, failures):
    """Lose core 1 of every variant's machine, then plug it back; returns
    one row per /remap."""
    rows = []
    for index, source in enumerate(VARIANTS):
        for step, expected in REMAP_STEPS:
            payload = {"source": source, "machine": "dunnington", "scale": 32, **step}
            kind = step["event"]["kind"]
            status, _headers, body = client.request("POST", "/remap", payload)
            row = {"variant": index, "kind": kind, "status": status}
            rows.append(row)
            if status != 200:
                failures.append(
                    f"/remap {kind} of variant {index}: HTTP {status}: {body[:200]!r}"
                )
                continue
            parsed = json.loads(body)
            stanza = parsed.get("remap", {})
            counts = (stanza.get("stages_replayed"), stanza.get("stages_recomputed"))
            row["replayed"], row["recomputed"] = counts
            if counts != expected:
                failures.append(
                    f"/remap {kind} of variant {index}: replayed/recomputed "
                    f"{counts}, expected {expected}"
                )
            try:
                post = parse_remap_request(payload).post
                plan_from_json(json.dumps(parsed["mapping"]), post.program, post.machine)
            except Exception as error:  # noqa: BLE001 - every failure is reported
                failures.append(
                    f"/remap {kind} plan does not decode: {type(error).__name__}: {error}"
                )
    return rows


LOSS = {"kind": "core_loss", "cores": [2]}

#: The histories run through ``repro remap --via-service``: a first
#: event, then ``LOSS``, whose answer must hold ``expected`` at
#: ``(stanza, field)``.  The phase's key is the CLI's default knobs
#: (local scheduling off) with the phase's alpha and beta.
CLI_HISTORIES = (
    ({"kind": "phase_change", "knobs": {"alpha": 0.8, "beta": 0.2}},
     ("key", "knobs"),
     list(Knobs(local_scheduling=False, alpha=0.8, beta=0.2).as_tuple())),
    ({"kind": "topology_edit", "machine": "arch-II", "scale": 32},
     ("remap", "pre_machine"),
     "arch-II-x0.03125"),
)


def remap_via_cli(port, failures):
    """Run each history through the CLI against the daemon; returns one
    row per history."""
    with tempfile.NamedTemporaryFile(
        "w", prefix="repro-smoke-", suffix=".loop", delete=False
    ) as handle:
        handle.write(VARIANTS[0])
    rows = []
    try:
        for first, (stanza, field), expected in CLI_HISTORIES:
            argv = [sys.executable, "-m", "repro", "remap", handle.name,
                    "--machine", "dunnington", "--via-service",
                    "--port", str(port), "--json"]
            for event in (first, LOSS):
                argv += ["--event", json.dumps(event)]
            run = subprocess.run(argv, capture_output=True, text=True,
                                 env=repro_env(), check=False)
            row = {"history": [first["kind"], LOSS["kind"]], "exit": run.returncode}
            rows.append(row)
            if run.returncode != 0:
                failures.append(
                    f"repro remap --via-service after {first['kind']} exited "
                    f"{run.returncode}: {run.stderr[-300:]}"
                )
                continue
            row[field] = json.loads(run.stdout)[1][stanza][field]
            if row[field] != expected:
                failures.append(
                    f"repro remap --via-service after {first['kind']}: the "
                    f"core_loss answer's {field} is {row[field]!r}, expected "
                    f"{expected!r}"
                )
    finally:
        os.unlink(handle.name)
    return rows


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
        # Request 0 repeats one the first boot mapped; the reply cache
        # and the content LRU start empty, so only the disk can answer.
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
    if "plans" not in listed:
        failures.append("repro cache info lists no plans file")
    if "mappings" in listed:
        failures.append("repro cache info lists a mappings file")
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
    remaps = []
    cli_remaps = []
    try:
        client = ServiceClient(port=port, timeout=120)
        client.wait_ready(timeout=30)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(fire, client, index, failures)
                for index in range(args.requests)
            ]
            results = [f.result() for f in futures]
        remaps = remap_variants(client, failures)
        cli_remaps = remap_via_cli(port, failures)
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
    # Repeats are cache hits: the front's reply cache ("front" in single
    # mode, "router" in shard mode), the content LRU, or a sibling's
    # disk entry in shard mode.
    cached = sum(
        tiers.get(tier, 0) for tier in ("front", "router", "memory", "disk")
    )
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
        "remaps": remaps,
        "cli_remaps": cli_remaps,
        "daemon_exit_code": exit_code,
        "stats": stats,
        "failures": failures,
    }
    summary_keys = ["requests", "statuses", "cache_tiers", "latency_ms",
                    "response_bytes", "plans_decoded", "remaps",
                    "cli_remaps", "daemon_exit_code"]
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
