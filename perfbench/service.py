"""The ``service-mix`` workload: a seeded request mix against the daemon.

Each run boots fresh ``repro serve --workers 2`` daemons (router plus two
forked workers, empty caches) and drives one through a closed loop of
two connections.  The schedule is a pure function of the seed and the
run length, with four request classes:

* ``cold``: the first ``/map`` of each of six light paper kernels on
  each of two machines at ``scale: 32``, always sent first;
* ``warm``: byte-identical repeats of a cold body (router byte-cache);
* ``variant``: a new α/β for a mapped program (the owning worker's
  artifact store replays four of five stages);
* ``remap``: a ``/remap`` ``core_loss`` event on a mapped program.

Responses are only hashed while the loop runs; decoding, plan
verification and simulation of the served plans happen after it, so
the client's own work does not compete with the daemon for the cores.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro import obs

from common import (
    WORK_DIR,
    HostSpeed,
    aggregate_spans,
    child_env,
    geomean,
    median,
    merge_aggregates,
    merge_counters,
    model_layers,
    percentile,
    service_layers,
    summary_counters,
    trace_layers,
)

KERNELS = ("sp", "h264", "namd", "freqmine", "galgel", "cg")
MACHINES = ("harpertown", "dunnington")
SCALE = 32
CONNECTIONS = 2
WORKERS = 2
BOOT_REPEATS = 3
#: Warm repeats per program for every variant (and every remap) of it.
WARM_PER_DERIVED = 10
#: Run seconds per variant-and-remap round of every program.
SECONDS_PER_ROUND = 5.0
ALPHA_BETA_GRID = tuple(
    (a / 10, b / 10) for a in range(1, 10) for b in range(1, 10) if (a, b) != (5, 5)
)
REQUEST_TIMEOUT_S = 120.0


# -- the schedule ---------------------------------------------------------------

@dataclass
class Entry:
    label: str          # cold | warm | variant | remap
    path: str           # /map | /remap
    program: int        # index into the program list
    body: dict


def programs() -> list[dict]:
    """The twelve cold ``/map`` bodies, with the harness block sizes."""
    from repro.workloads.registry import workload

    out = []
    for name in KERNELS:
        w = workload(name)
        for machine in MACHINES:
            out.append({
                "source": w.source, "name": name, "machine": machine,
                "scale": SCALE, "knobs": {"block_size": w.block_size()},
            })
    return out


def core_counts() -> dict[str, int]:
    from repro.topology.resolve import resolve_machine

    return {m: resolve_machine(m).num_cores for m in MACHINES}


def build_schedule(seed: int, seconds: float) -> list[Entry]:
    """Cold requests first, then every derived request in seeded order.

    Every program gets the same number of variants and remaps, so the
    class mix does not depend on the seed; the seed picks the order, the
    α/β values and the lost cores.
    """
    rng = random.Random(seed)
    bodies = programs()
    cores = core_counts()
    rounds = max(1, round(seconds / SECONDS_PER_ROUND))
    cold = [Entry("cold", "/map", i, body) for i, body in enumerate(bodies)]
    rng.shuffle(cold)
    rest: list[Entry] = []
    for i, body in enumerate(bodies):
        for alpha, beta in rng.sample(ALPHA_BETA_GRID, rounds):
            knobs = dict(body["knobs"], alpha=alpha, beta=beta)
            rest.append(Entry("variant", "/map", i, dict(body, knobs=knobs)))
        for core in rng.sample(range(cores[body["machine"]]), rounds):
            event = {"kind": "core_loss", "cores": [core]}
            rest.append(Entry("remap", "/remap", i, dict(body, event=event)))
        rest.extend(
            Entry("warm", "/map", i, body)
            for _ in range(2 * rounds * WARM_PER_DERIVED)
        )
    rng.shuffle(rest)
    return cold + rest


# -- the daemon -------------------------------------------------------------------

class Daemon:
    """One ``repro serve`` process tree; ``ready_s`` is boot-to-healthy."""

    def __init__(self, tag: str, trace_dir: str | None = None):
        env = child_env()
        if trace_dir:
            env["REPRO_TRACE_DIR"] = trace_dir
        self.stderr_path = WORK_DIR / f"daemon-{tag}.stderr"
        started = time.monotonic()
        with open(self.stderr_path, "w", encoding="utf-8") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(WORKERS)],
                stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
                cwd=WORK_DIR, start_new_session=True,
            )
        try:
            self.port = self._read_port(deadline=started + 60)
            self._wait_healthy(deadline=started + 60)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.monotonic() - started

    def _read_port(self, deadline: float) -> int:
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], max(0.0, deadline - time.monotonic())
        )
        banner = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if not match:
            raise RuntimeError(f"no port in daemon banner {banner!r}: {self.log_tail()}")
        return int(match.group(1))

    def _wait_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                status, body = self.get("/healthz")
                if status == 200 and json.loads(body).get("status") == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"daemon never became healthy: {self.log_tail()}")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        return json.loads(body) if status == 200 else {}

    def stop(self) -> int | None:
        """SIGTERM (the daemon drains and reaps its workers), then wait;
        a daemon that does not drain in time loses its whole process group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate(timeout=10)
        return self.proc.returncode

    def log_tail(self, limit: int = 2000) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""


# -- the closed loop ----------------------------------------------------------------

@dataclass
class Sample:
    index: int
    label: str
    status: int
    rtt_ms: float
    digest: str = ""
    error: str = ""
    fields: dict = field(default_factory=dict)
    body: bytes | None = field(default=None, repr=False)


def drive(port: int, schedule: list[Entry]) -> tuple[list[Sample], dict[str, bytes], float]:
    """Send the schedule over ``CONNECTIONS`` closed-loop clients.

    A derived request waits until its program's cold request has been
    answered, so it finds the program mapped.  Returns the samples in
    schedule order, the distinct response bodies by digest, and the
    wall seconds of the loop.
    """
    cold_done = {e.program: threading.Event() for e in schedule if e.label == "cold"}
    samples: list[Sample | None] = [None] * len(schedule)
    bodies: dict[str, bytes] = {}
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            entry = schedule[index]
            if entry.label != "cold":
                cold_done[entry.program].wait(REQUEST_TIMEOUT_S)
            sample = _send(port, index, entry)
            if entry.label == "cold":
                cold_done[entry.program].set()
            with lock:
                samples[index] = sample
                if sample.digest and sample.digest not in bodies:
                    bodies[sample.digest] = sample.body
            sample.body = None

    started = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, bodies, time.perf_counter() - started


def _send(port: int, index: int, entry: Entry) -> Sample:
    payload = json.dumps(entry.body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    started = time.perf_counter()
    try:
        conn.request("POST", entry.path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        rtt_ms = (time.perf_counter() - started) * 1e3
    except (OSError, http.client.HTTPException) as error:
        rtt_ms = (time.perf_counter() - started) * 1e3
        return Sample(index, entry.label, -1, rtt_ms, error=f"{type(error).__name__}: {error}")
    finally:
        conn.close()
    sample = Sample(index, entry.label, response.status, rtt_ms)
    if response.status == 200:
        sample.digest = hashlib.sha256(data).hexdigest()
        sample.body = data
    else:
        sample.error = data[:200].decode(errors="replace")
    return sample


# -- verification -------------------------------------------------------------------

class Verifier:
    """Decodes every distinct 200 body once and checks its plan.

    Worker-computed plans go through ``plan_from_json`` (which runs
    ``verify_complete``); a router replay must carry the same mapping as
    the cold response it repeats.  The served cold TA+S plans and their
    Base plans are then simulated on the same scaled machine.
    """

    def __init__(self, schedule: list[Entry]):
        self.schedule = schedule
        self.programs: dict[int, object] = {}
        self.machines: dict[tuple, object] = {}
        self.cold_plans: dict[int, object] = {}
        self.cold_mapping: dict[int, dict] = {}
        #: Simulation seconds at reference host speed.
        self.sim_s = 0.0
        self.cycles: dict[int, tuple[int, int]] = {}
        self.ta_results: list = []

    def _program(self, entry: Entry):
        if entry.program not in self.programs:
            from repro.lang import compile_source

            with obs.span("bench.compile"):
                self.programs[entry.program] = compile_source(
                    entry.body["source"], name=entry.body["name"]
                )
        return self.programs[entry.program]

    def _machine(self, name: str, dead: tuple[int, ...] = ()):
        key = (name, dead)
        if key not in self.machines:
            from repro.topology.resolve import resolve_machine

            with obs.span("bench.resolve"):
                machine = resolve_machine(name).with_scaled_caches(1.0 / SCALE)
            self.machines[key] = machine.without_cores(dead) if dead else machine
        return self.machines[key]

    def check(self, samples: list[Sample], bodies: dict[str, bytes]) -> int:
        """Fill each sample's ``fields``; return the number of failures."""
        decoded = {digest: json.loads(data) for digest, data in bodies.items()}
        verdicts: dict[str, str | None] = {}
        failed = 0
        # Cold responses first: warm replays are checked against them.
        for sample in sorted(samples, key=lambda s: s.label != "cold"):
            entry = self.schedule[sample.index]
            if sample.status != 200:
                failed += 1
                print(f"FAIL {entry.label} #{sample.index}: status "
                      f"{sample.status} {sample.error}", file=sys.stderr)
                continue
            body = decoded[sample.digest]
            stats = body.get("stats", {})
            remap = body.get("remap", {})
            sample.fields = {
                "cache": body.get("cache"),
                "elapsed_ms": body.get("elapsed_ms", 0.0),
                "queue_wait_ms": body.get("queue_wait_ms", 0.0),
                "pipeline_ms": stats.get("pipeline_ms", 0.0),
                "stages_replayed": remap.get("stages_replayed", 0),
                "stages_recomputed": remap.get("stages_recomputed", 0),
            }
            if sample.digest not in verdicts:
                verdicts[sample.digest] = self._verify(entry, body)
            if verdicts[sample.digest] is not None:
                failed += 1
                print(f"FAIL {entry.label} #{sample.index}: "
                      f"{verdicts[sample.digest]}", file=sys.stderr)
        return failed + self._simulate()

    def _verify(self, entry: Entry, body: dict) -> str | None:
        """Why one distinct response body is wrong, or None."""
        from repro.runtime.serialize import plan_from_json, plan_to_dict

        try:
            if entry.label == "warm":
                if body["mapping"] != self.cold_mapping[entry.program]:
                    return "replayed mapping differs from the cold one"
                return None
            dead = tuple(entry.body.get("event", {}).get("cores", ()))
            machine = self._machine(entry.body["machine"], dead)
            plan = plan_from_json(
                json.dumps(body["mapping"]), self._program(entry), machine
            )
            if entry.label == "cold":
                self.cold_mapping[entry.program] = body["mapping"]
                self.cold_plans[entry.program] = plan
                with obs.span("bench.encode"):
                    json.dumps(plan_to_dict(plan))
        except Exception as error:  # noqa: BLE001 - a failed check is a data point
            return f"{type(error).__name__}: {error}"
        return None

    def _simulate(self) -> int:
        """Simulate each cold plan and its Base plan, timed the way the
        in-process workloads time theirs."""
        from repro.mapping import base_plan
        from repro.sim.engine import simulate_plan

        failed = 0
        speed = HostSpeed()
        with speed.interleaved(period_s=0.05):
            for index in sorted(self.cold_plans):
                plan = self.cold_plans[index]
                first = len(speed.samples)
                speed.sample(2)
                try:
                    started = speed.now()
                    with obs.span("bench.simulate"):
                        ta = simulate_plan(plan)
                        ref = simulate_plan(base_plan(plan.nest, plan.machine))
                    elapsed = speed.now() - started
                    speed.sample(2)
                    self.sim_s += elapsed * speed.factor(since=first)
                    ta.verify_conservation()
                    ref.verify_conservation()
                except Exception as error:  # noqa: BLE001 - a failed check is a data point
                    failed += 1
                    print(f"FAIL simulate #{index}: {type(error).__name__}: {error}",
                          file=sys.stderr)
                    continue
                self.cycles[index] = (ta.cycles, ref.cycles)
                self.ta_results.append(ta)
        return failed


# -- one pass and the run ----------------------------------------------------------------

@dataclass
class Pass:
    schedule: list[Entry]
    samples: list[Sample]
    wall_s: float
    failed: int
    verifier: Verifier
    router: dict
    workers: dict


def one_pass(daemon: Daemon, schedule: list[Entry], speed: HostSpeed) -> Pass:
    with speed.sampling():
        samples, bodies, wall_s = drive(daemon.port, schedule)
    stats = daemon.stats()
    verifier = Verifier(schedule)
    started = time.perf_counter()
    failed = verifier.check(samples, bodies)
    print(f"loop {wall_s:.1f} s, {len(bodies)} distinct bodies verified in "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    return Pass(schedule, samples, wall_s, failed, verifier,
                stats.get("router", {}).get("counters", {}),
                stats.get("counters", {}))


def end_to_end(p: Pass, k: float) -> dict[str, float]:
    """End-to-end metrics of one pass; ``k`` scales times to reference
    host speed."""
    per_program: dict[int, float] = {}
    for s in p.samples:
        if s.fields.get("cache") == "none":
            program = p.schedule[s.index].program
            per_program[program] = (
                per_program.get(program, 0.0) + s.fields["pipeline_ms"] / 1e3
            )
    rtts = [s.rtt_ms * k for s in p.samples]
    return {
        "wall_s": p.wall_s * k,
        "map_s": sum(per_program.values()) * k,
        "map_max_s": max(per_program.values(), default=0.0) * k,
        "sim_s": p.verifier.sim_s,
        "cycles_ratio_geomean": geomean(
            ta / base for ta, base in p.verifier.cycles.values()
        ),
        "req_p50_ms": percentile(rtts, 0.50),
        "req_p99_ms": percentile(rtts, 0.99),
        "req_per_s": len(rtts) / (p.wall_s * k),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    schedule = build_schedule(seed, seconds)
    counts: dict[str, int] = {}
    for entry in schedule:
        counts[entry.label] = counts.get(entry.label, 0) + 1
    print(f"service-mix: seed {seed}, {len(schedule)} requests {counts}",
          file=sys.stderr)
    if trace:
        return _traced_run(schedule)
    speed = HostSpeed()
    boots = []
    for attempt in range(BOOT_REPEATS - 1):
        speed.sample(2)
        daemon = Daemon(f"boot{attempt}")
        boots.append(daemon.ready_s)
        daemon.stop()
    speed.sample(2)
    daemon = Daemon("load")
    boots.append(daemon.ready_s)
    try:
        p = one_pass(daemon, schedule, speed)
    finally:
        exit_code = daemon.stop()
    failed = p.failed + (exit_code != 0)
    k = speed.factor()
    print(f"loop: wall {p.wall_s:.3f} s measured, host-speed factor {k:.4f} "
          f"over {len(speed.samples)} samples", file=sys.stderr)
    values = end_to_end(p, k)
    values["setup_s"] = median(boots) * k
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    )
    return {"attempted": len(schedule), "failed": failed, "values": values,
            "kind": "end_to_end"}


def _traced_run(schedule: list[Entry]) -> dict:
    """An untraced pass for the service metrics, then a traced pass for
    the per-stage breakdown of worker computes."""
    from repro.obs.sinks import CollectorSink, read_jsonl

    plain_speed = HostSpeed()
    daemon = Daemon("untraced")
    try:
        plain = one_pass(daemon, schedule, plain_speed)
    finally:
        exit_code = daemon.stop()
    failed = plain.failed + (exit_code != 0)

    trace_dir = WORK_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    sink = CollectorSink()
    traced_speed = HostSpeed()
    daemon = Daemon("traced", trace_dir=str(trace_dir))
    try:
        with obs.tracing(sink):
            traced = one_pass(daemon, schedule, traced_speed)
    finally:
        exit_code = daemon.stop()
    failed += traced.failed + (exit_code != 0)

    mismatched = [
        index for index, cycles in traced.verifier.cycles.items()
        if plain.verifier.cycles.get(index) != cycles
    ]
    for index in mismatched:
        print(f"FAIL program #{index}: traced cycles differ from untraced",
              file=sys.stderr)
    failed += len(mismatched)

    files = [read_jsonl(str(trace_dir / name)) for name in sorted(os.listdir(trace_dir))]
    spans = merge_aggregates([aggregate_spans(sink.records)]
                             + [aggregate_spans(records) for records in files])
    counters = merge_counters([summary_counters(sink.records)]
                              + [summary_counters(records) for records in files])
    host_ms = spans.get("service.request", {}).get("wall", 0.0)
    values = trace_layers(spans, counters, host_ms)
    values.update(model_layers(traced.verifier.ta_results))
    values.update(service_layers(plain.samples, plain.router, plain.workers))
    values["obs.trace_overhead_share"] = (
        traced.wall_s * traced_speed.factor()
        / (plain.wall_s * plain_speed.factor()) - 1.0
    )
    print(f"worker compute (traced) {host_ms:.1f} ms over {len(files)} request "
          f"traces; cold RTT {values['service.rtt_cold_ms']:.1f} ms = router "
          f"{values['service.router_ms']:.1f} + queue "
          f"{values['service.queue_wait_ms']:.1f} + pipeline "
          f"{values['service.pipeline_ms']:.1f} + handler "
          f"{values['service.handler_ms']:.1f} (medians)", file=sys.stderr)
    return {"attempted": 2 * len(schedule), "failed": failed, "values": values,
            "kind": "per_layer"}
